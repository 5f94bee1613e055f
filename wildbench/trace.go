package main

import (
	"context"
	"net/netip"
	"sync/atomic"
	"time"

	"goingwild/internal/churn"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// The traced runs time calls into each layer from outside the program:
// they wrap what the program already accepts (a transport, a clock, a
// route handler, an observer) and never add spans inside it.

// memTransport is what the wrapped transports offer: the in-memory
// transport's packet path plus its optional batch and TCP extensions.
type memTransport interface {
	wildnet.Transport
	wildnet.BatchSender
	scanner.TCPQuerier
}

// tracedTransport times every send into the transport and every
// receiver callback out of it. It forwards wildnet.BatchSender (and the
// TCP fallback), so the scanner keeps its batched dispatch path: a
// wrapper without SendBatch would silently move the sweep onto the
// per-probe path and measure something else.
type tracedTransport struct {
	inner memTransport

	sendNs    atomic.Int64 // time inside Send/SendBatch, callbacks included
	recvNs    atomic.Int64 // time inside receiver callbacks
	calls     atomic.Int64 // Send plus SendBatch calls
	batches   atomic.Int64 // SendBatch calls
	probes    atomic.Int64 // datagrams handed to the transport
	responses atomic.Int64 // receiver callbacks
	lastEnd   atomic.Int64 // monotonic ns (since traceEpoch) of the latest return
}

var (
	_ memTransport = (*tracedTransport)(nil)
	_ churn.Clock  = (*tracedClock)(nil)
)

// traceEpoch anchors the monotonic timestamps the wrappers store.
var traceEpoch = time.Now()

// nowNs is monotonic nanoseconds since traceEpoch.
func nowNs() int64 { return int64(time.Since(traceEpoch)) }

func newTracedTransport(inner memTransport) *tracedTransport {
	return &tracedTransport{inner: inner}
}

// Send implements wildnet.Transport.
func (t *tracedTransport) Send(ctx context.Context, dst netip.Addr, dstPort, srcPort uint16, payload []byte) error {
	t0 := nowNs()
	err := t.inner.Send(ctx, dst, dstPort, srcPort, payload)
	t1 := nowNs()
	t.sendNs.Add(t1 - t0)
	t.calls.Add(1)
	t.probes.Add(1)
	t.lastEnd.Store(t1)
	return err
}

// SendBatch implements wildnet.BatchSender.
func (t *tracedTransport) SendBatch(ctx context.Context, batch []wildnet.Probe) (int, error) {
	t0 := nowNs()
	n, err := t.inner.SendBatch(ctx, batch)
	t1 := nowNs()
	t.sendNs.Add(t1 - t0)
	t.calls.Add(1)
	t.batches.Add(1)
	t.probes.Add(int64(len(batch)))
	t.lastEnd.Store(t1)
	return n, err
}

// SetReceiver implements wildnet.Transport, timing the callback.
func (t *tracedTransport) SetReceiver(f func(src netip.Addr, srcPort, dstPort uint16, payload []byte)) {
	t.inner.SetReceiver(func(src netip.Addr, srcPort, dstPort uint16, payload []byte) {
		t0 := nowNs()
		f(src, srcPort, dstPort, payload)
		t.recvNs.Add(nowNs() - t0)
		t.responses.Add(1)
	})
}

// QueryTCP implements scanner.TCPQuerier.
func (t *tracedTransport) QueryTCP(dst netip.Addr, payload []byte) ([]byte, bool) {
	return t.inner.QueryTCP(dst, payload)
}

// Close implements wildnet.Transport.
func (t *tracedTransport) Close() error { return t.inner.Close() }

// transportTotals is a point-in-time copy of a tracedTransport's sums.
type transportTotals struct {
	sendNs, recvNs, calls, batches, probes, responses int64
}

func (t *tracedTransport) totals() transportTotals {
	return transportTotals{
		sendNs:    t.sendNs.Load(),
		recvNs:    t.recvNs.Load(),
		calls:     t.calls.Load(),
		batches:   t.batches.Load(),
		probes:    t.probes.Load(),
		responses: t.responses.Load(),
	}
}

// sub is the work done between two snapshots.
func (a transportTotals) sub(b transportTotals) transportTotals {
	return transportTotals{
		sendNs:    a.sendNs - b.sendNs,
		recvNs:    a.recvNs - b.recvNs,
		calls:     a.calls - b.calls,
		batches:   a.batches - b.batches,
		probes:    a.probes - b.probes,
		responses: a.responses - b.responses,
	}
}

// add sums the work of two intervals.
func (a transportTotals) add(b transportTotals) transportTotals {
	return transportTotals{
		sendNs:    a.sendNs + b.sendNs,
		recvNs:    a.recvNs + b.recvNs,
		calls:     a.calls + b.calls,
		batches:   a.batches + b.batches,
		probes:    a.probes + b.probes,
		responses: a.responses + b.responses,
	}
}

// tracedClock forwards SetTime to the world clock and reports each
// simulated-week change, which marks the start of a producer epoch.
type tracedClock struct {
	inner churn.Clock
	onSet func(week int, atNs int64)
}

// SetTime implements churn.Clock.
func (c *tracedClock) SetTime(t wildnet.Time) {
	c.onSet(t.Week, nowNs())
	c.inner.SetTime(t)
}
