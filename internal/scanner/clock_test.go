package scanner

import (
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced Clock; Sleep jumps time forward
// instead of blocking, so pacing logic runs instantly and exactly.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) Advance(d time.Duration) { c.Sleep(d) }

// nullTransport swallows sends and hands the receiver back to the test.
type nullTransport struct {
	recv func(src netip.Addr, srcPort, dstPort uint16, payload []byte)
}

func (n *nullTransport) Send(ctx context.Context, dst netip.Addr, dstPort, srcPort uint16, payload []byte) error {
	return nil
}

func (n *nullTransport) SetReceiver(f func(src netip.Addr, srcPort, dstPort uint16, payload []byte)) {
	n.recv = f
}

func (n *nullTransport) Close() error { return nil }

func TestRateLimiterWithFakeClock(t *testing.T) {
	fc := newFakeClock()
	start := fc.Now()
	rl := newRateLimiter(1000, fc) // 1ms interval
	for i := 0; i < 50; i++ {
		rl.wait(context.Background())
	}
	// 50 tokens at 1k pps ≈ 50ms of virtual time; the 2ms burst
	// allowance trims a few ms off the tail.
	elapsed := fc.Now().Sub(start)
	if elapsed < 40*time.Millisecond || elapsed > 50*time.Millisecond {
		t.Errorf("50 tokens advanced the fake clock by %v, want ≈48ms", elapsed)
	}

	unlimited := newRateLimiter(0, fc)
	before := fc.Now()
	for i := 0; i < 1000; i++ {
		unlimited.wait(context.Background())
	}
	if fc.Now() != before {
		t.Error("unlimited rate limiter consumed virtual time")
	}
}

func TestSettleUsesInjectedClock(t *testing.T) {
	fc := newFakeClock()
	s := New(&nullTransport{}, Options{SettleDelay: 5 * time.Millisecond, Clock: fc})
	before := fc.Now()
	s.settle(context.Background())
	if got := fc.Now().Sub(before); got != 5*time.Millisecond {
		t.Errorf("settle advanced fake clock by %v, want 5ms", got)
	}
}
