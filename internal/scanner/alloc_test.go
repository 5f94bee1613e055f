package scanner

import (
	"net/netip"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/lfsr"
)

// The sweep budget is the point of the zero-alloc engine: these tests pin
// the send and receive paths at zero heap allocations per probe at steady
// state, so a regression (a string conversion, an escaping slice, a full
// Message unpack) fails CI instead of silently halving throughput.

func TestSweepSendPathAllocs(t *testing.T) {
	assertBatchAssemblyAllocs(t, 0)
}

// TestSweepRetrySendPathAllocs pins the retry rounds to the same budget:
// salting the anti-caching prefix with the attempt number must not cost
// an allocation, or a lossy-profile sweep (which retries a large share of
// the population) would pay per-probe garbage the census never did.
func TestSweepRetrySendPathAllocs(t *testing.T) {
	for attempt := 1; attempt <= 2; attempt++ {
		assertBatchAssemblyAllocs(t, attempt)
	}
}

// assertBatchAssemblyAllocs drives the sweep engine's per-batch assembly
// — probeBatch reset, add over templateBuild, finish — for full batches
// of the given attempt and requires zero heap allocations per batch, and
// so per probe.
func assertBatchAssemblyAllocs(t *testing.T, attempt int) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	baseWire, err := dnswire.EncodeNameWire(dnswire.CanonicalName(domains.ScanBase))
	if err != nil {
		t.Fatal(err)
	}
	build := templateBuild(baseWire, attempt)
	bat := probeBatchPool.Get().(*probeBatch)
	defer probeBatchPool.Put(bat)
	u := uint32(0x0A0B0C0D)
	allocs := testing.AllocsPerRun(50, func() {
		bat.reset()
		for i := 0; i < streamBatch; i++ {
			bat.add(u, build)
			u++
		}
		if probes := bat.finish(33000); len(probes) != streamBatch {
			t.Fatalf("batch holds %d probes, want %d", len(probes), streamBatch)
		}
	})
	if allocs != 0 {
		t.Fatalf("attempt %d: batch assembly allocates %.1f per %d-probe batch, want 0", attempt, allocs, streamBatch)
	}
}

func TestSweepReceivePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	// Build one realistic sweep response: the echoed question plus an A
	// answer.
	u := uint32(0x7F000001)
	prefix := cachePrefixN(u, 0)
	name := dnswire.EncodeTargetQName(string(prefix[:]), lfsr.U32ToAddr(u), domains.ScanBase)
	m := dnswire.NewQuery(uint16(u)^uint16(u>>16), name, dnswire.TypeA, dnswire.ClassIN)
	m.Header.QR = true
	m.AddAnswer(name, dnswire.ClassIN, 60, dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")})
	payload, err := m.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	src := lfsr.U32ToAddr(u)

	st := newSweepCollector(domains.ScanBase, 16)
	st.receive(src, 53, 33000, payload) // first delivery inserts
	// Steady state: duplicate responses (and by extension every parse)
	// must not touch the heap.
	allocs := testing.AllocsPerRun(500, func() {
		st.receive(src, 53, 33000, payload)
	})
	if allocs != 0 {
		t.Fatalf("sweep receive path allocates %.1f per response, want 0", allocs)
	}
	if st.responses.Len() != 1 {
		t.Fatalf("collector holds %d responders, want 1", st.responses.Len())
	}
	r, ok := st.responses.Get(u)
	if !ok || r.Addr != u || !r.Answered || r.RCode != dnswire.RCodeNoError {
		t.Fatalf("bad responder: %+v ok=%v", r, ok)
	}
}

func TestNOERRORPreallocates(t *testing.T) {
	res := &SweepResult{Responders: []Responder{
		{Addr: 1, RCode: dnswire.RCodeNoError},
		{Addr: 2, RCode: dnswire.RCodeRefused},
		{Addr: 3, RCode: dnswire.RCodeNoError},
	}}
	out := res.NOERROR()
	if len(out) != 2 || cap(out) != 2 {
		t.Fatalf("NOERROR len=%d cap=%d, want exact-size 2/2", len(out), cap(out))
	}
	if out[0] != 1 || out[1] != 3 {
		t.Fatalf("NOERROR order: %v", out)
	}
	if got := (&SweepResult{}).NOERROR(); got != nil {
		t.Fatalf("empty NOERROR = %v, want nil", got)
	}
}
