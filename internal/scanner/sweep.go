package scanner

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"goingwild/internal/dnswire"
	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
)

// Responder is one host that answered the Internet-wide sweep.
type Responder struct {
	// Addr is the probed target address (recovered from the hex-IP
	// query name, not the packet source, §2.2).
	Addr uint32
	// Source is the address the response actually came from; differing
	// from Addr marks multi-homed hosts and DNS proxies.
	Source uint32
	RCode  dnswire.RCode
	// Answered reports a non-empty A answer section.
	Answered bool
}

// MisSourced reports whether the response came from a different host than
// probed.
func (r Responder) MisSourced() bool { return r.Addr != r.Source }

// SweepResult aggregates one Internet-wide scan.
type SweepResult struct {
	// Probed is the number of targets probed (after blacklisting).
	Probed uint64
	// Responders lists every answering host, by target address.
	Responders []Responder
	// ByRCode counts responders per status code (Figure 1 series).
	ByRCode map[dnswire.RCode]int
}

// Total returns the count of responding hosts.
func (r *SweepResult) Total() int { return len(r.Responders) }

// NOERROR returns the addresses of resolvers that answered NOERROR — the
// population every follow-up experiment starts from. The result is sized
// exactly in one pass before filling, since at the 27M-responder scale of
// §2.2 append-doubling would copy the slice ~25 times.
func (r *SweepResult) NOERROR() []uint32 {
	n := 0
	for _, resp := range r.Responders {
		if resp.RCode == dnswire.RCodeNoError {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]uint32, 0, n)
	for _, resp := range r.Responders {
		if resp.RCode == dnswire.RCodeNoError {
			out = append(out, resp.Addr)
		}
	}
	return out
}

// MisSourcedCount counts responders replying from foreign addresses.
func (r *SweepResult) MisSourcedCount() int {
	n := 0
	for _, resp := range r.Responders {
		if resp.MisSourced() {
			n++
		}
	}
	return n
}

// cachePrefixN salts the anti-caching label with the retry attempt:
// attempt 0 is byte-identical to the original census probe, while each
// retransmission round carries a fresh label — a genuinely new packet
// that redraws its per-packet loss fate (the target decode ignores the
// prefix, so attribution is unaffected).
//
//lint:hotpath per-probe / per-response sweep path
func cachePrefixN(u uint32, attempt int) [5]byte {
	v := uint16((uint64(u)*2654435761 + uint64(attempt)*0x9E3779B9) >> 8)
	const hexdigits = "0123456789abcdef"
	return [5]byte{'r', hexdigits[v>>12], hexdigits[v>>8&0xF], hexdigits[v>>4&0xF], hexdigits[v&0xF]}
}

// sweepCollector accumulates sweep responses in a sharded map keyed by
// target address. Its receive method is the hot receiver callback: one
// pooled wire view, no Message, no allocation at steady state.
type sweepCollector struct {
	base      string // canonical scan base the qname must end in
	responses *shardedMap[Responder]
	recv      *metrics.Counter // valid sweep responses seen (nil = metrics off)
}

func newSweepCollector(base string, hint int) *sweepCollector {
	return &sweepCollector{
		base:      dnswire.CanonicalName(base),
		responses: newShardedMap[Responder](hint),
	}
}

// receive handles one response datagram. First response per target wins,
// as with the old single-map collector.
//
//lint:hotpath per-probe / per-response sweep path
func (st *sweepCollector) receive(src netip4, srcPort, dstPort uint16, payload []byte) {
	v := dnswire.GetView()
	defer dnswire.PutView(v)
	if err := v.Reset(payload); err != nil || !v.QR() || v.QDCount() == 0 {
		return
	}
	target, ok := dnswire.DecodeTargetQNameU32(v.QName(), st.base)
	if !ok {
		return
	}
	st.recv.Inc()
	st.responses.InsertOnce(target, Responder{
		Addr:     target,
		Source:   addrU32(src),
		RCode:    v.RCode(),
		Answered: v.HasAnswerA(),
	})
}

// SweepContext probes every address of a 2^order space once, in
// LFSR-permuted order, skipping the blacklist. Each probe is a DNS A
// query for prefix.hex-ip.scanbase, so responses are attributed to the
// probed target regardless of their source address. Targets stream from
// Options.Shards leapfrog generators straight into batched sends — the
// permutation is never materialized — and Options.SweepRetries rounds
// re-probe the silent targets (see the engine in engine.go).
//
// A census sends exactly one probe per target: retransmitting to the
// silent majority (non-resolvers) would double the scan for a
// fraction-of-a-percent gain. Loss is accounted for by the
// secondary-vantage verification scan instead (§2.2). Transports must
// not retain payloads after Send/SendBatch returns.
//
// Cancellation is honored between send batches and during the settle
// wait. A cancelled sweep returns ctx.Err() together with a consistent
// partial result: every response collected before the abort is present,
// sorted, and counted, so callers that tolerate partial censuses (e.g. a
// checkpointing orchestrator) can keep it.
func (s *Scanner) SweepContext(ctx context.Context, order uint, seed uint32, bl *lfsr.Blacklist) (*SweepResult, error) {
	m := s.opts.Shards
	return s.sweep(ctx, sweepPlan{order: order, seed: seed, bl: bl, n: m, of: m})
}

// collectSweep freezes the collector into the sorted result.
func (s *Scanner) collectSweep(st *sweepCollector, probed uint64) *SweepResult {
	res := &SweepResult{
		Probed:     probed,
		ByRCode:    make(map[dnswire.RCode]int),
		Responders: sortedResponders(st),
	}
	for _, r := range res.Responders {
		res.ByRCode[r.RCode]++
	}
	return res
}

// sortedResponders copies the collector out in address order. Shard maps
// iterate in unspecified order; sorting makes the responder list (and
// everything derived from it, e.g. NOERROR ordering, or a checkpoint's
// collector snapshot) reproducible.
func sortedResponders(st *sweepCollector) []Responder {
	out := make([]Responder, 0, st.responses.Len())
	st.responses.Collect(func(_ uint32, r Responder) { out = append(out, r) })
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// shardBudget splits a retransmission budget across m shards: shard i
// gets total/m, plus one of the first total%m remainder units, so the
// shares sum exactly to the budget.
func shardBudget(total, i, m int) int {
	if total <= 0 {
		return 0
	}
	share := total / m
	if i < total%m {
		share++
	}
	return share
}

// publishShardGauges records the per-shard census accounting:
// scan.shard.<i>.sent is the number of census probes shard i dispatched,
// scan.shard.<i>.recv the number of responding targets shard i owns.
// Ownership is recovered after the fact by replaying the raw register
// walk once (slot position mod m, exactly the leapfrog split), so the
// hot receive path stays untouched. Both gauges are deterministic.
func (s *Scanner) publishShardGauges(order uint, seed uint32, bl *lfsr.Blacklist, st *sweepCollector, m int, sents []uint64) {
	if s.opts.Metrics == nil {
		return
	}
	for i, n := range sents {
		s.opts.Metrics.Gauge("scan.shard." + strconv.Itoa(i) + ".sent").Set(int64(n))
	}
	reg, err := lfsr.New(order, seed)
	if err != nil {
		return
	}
	counts := make([]int64, m)
	period := reg.Period()
	for pos := uint64(0); pos < period; pos++ {
		u := reg.Next()
		if bl != nil && bl.ContainsU32(u) {
			continue
		}
		if _, ok := st.responses.Get(u); ok {
			counts[pos%uint64(m)]++
		}
	}
	for i, c := range counts {
		s.opts.Metrics.Gauge("scan.shard." + strconv.Itoa(i) + ".recv").Set(c)
	}
}

// SweepShardContext probes shard `shard` of `of` of a 2^order sweep: the
// targets lfsr.ShardedGenerator(order, seed, bl, shard, of) yields, i.e.
// every of-th slot of the full permutation. Separate processes can each
// run one shard (goingwild -shard i/M) and cmd/wildmerge recombines the
// per-shard results into the unsharded report. It is the engine with one
// worker owning that shard, so retry rounds (with this shard's budget
// share) and batching apply within the shard; the result holds only this
// shard's probes and responders.
func (s *Scanner) SweepShardContext(ctx context.Context, order uint, seed uint32, bl *lfsr.Blacklist, shard, of int) (*SweepResult, error) {
	if shard < 0 || shard >= of {
		return nil, fmt.Errorf("scanner: shard %d/%d out of range", shard, of)
	}
	return s.sweep(ctx, sweepPlan{order: order, seed: seed, bl: bl, first: shard, n: 1, of: of})
}

// ProbeContext sends a single query toward one resolver and returns all
// responses that arrive before the settle deadline (the GFW study needs
// to observe response races, §4.2). A dead context cuts the settle wait
// short and surfaces as ctx.Err() alongside whatever arrived.
func (s *Scanner) ProbeContext(ctx context.Context, addr uint32, name string, typ dnswire.Type, class dnswire.Class) ([]*dnswire.Message, error) {
	if s.tr == nil {
		return nil, ErrNoTransport
	}
	var mu sync.Mutex
	var out []*dnswire.Message
	s.tr.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		if m, err := dnswire.Unpack(payload); err == nil && m.Header.QR {
			s.m.probeRecv.Inc()
			mu.Lock()
			out = append(out, m)
			mu.Unlock()
		}
	})
	wire := packQuery(0x5157, name, typ, class)
	s.m.probeSent.Inc()
	//lint:allow errdrop single-probe send failures are modeled packet loss
	s.tr.Send(ctx, lfsr.U32ToAddr(addr), 53, s.opts.BasePort, wire)
	err := s.settle(ctx)
	mu.Lock()
	defer mu.Unlock()
	return out, err
}
