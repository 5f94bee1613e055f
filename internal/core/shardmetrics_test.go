package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"goingwild/internal/metrics"
	"goingwild/internal/scanner"
)

// runShardedSweep executes one Shards=m sweep with a fresh study and
// registry and returns both.
func runShardedSweep(t *testing.T, m int) (*scanner.SweepResult, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	cfg := DefaultConfig(14)
	cfg.Shards = m
	cfg.Metrics = reg
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.SweepAtContext(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return res, reg
}

// TestShardMetricsAccounting pins the per-shard observability the
// sharded sweep publishes: scan.shard.<i>.sent gauges that sum to the
// probed count, scan.shard.<i>.recv gauges that sum to the responder
// count, and a populated transport.batch.size histogram.
func TestShardMetricsAccounting(t *testing.T) {
	const m = 4
	res, reg := runShardedSweep(t, m)
	s := reg.Snapshot()
	var sent, recv int64
	for i := 0; i < m; i++ {
		gs := s.Gauge(fmt.Sprintf("scan.shard.%d.sent", i))
		gr := s.Gauge(fmt.Sprintf("scan.shard.%d.recv", i))
		if gs <= 0 {
			t.Errorf("scan.shard.%d.sent = %d, want > 0", i, gs)
		}
		sent += gs
		recv += gr
	}
	if uint64(sent) != res.Probed {
		t.Errorf("shard sent gauges sum to %d, sweep probed %d", sent, res.Probed)
	}
	if int(recv) != res.Total() {
		t.Errorf("shard recv gauges sum to %d, sweep has %d responders", recv, res.Total())
	}
	if g := s.Gauge(fmt.Sprintf("scan.shard.%d.sent", m)); g != 0 {
		t.Errorf("gauge for nonexistent shard %d is %d", m, g)
	}
	found := false
	for _, h := range s.Histograms {
		if h.Name != "transport.batch.size" {
			continue
		}
		found = true
		if h.Count == 0 {
			t.Error("transport.batch.size recorded no batches")
		}
	}
	if !found {
		t.Fatal("transport.batch.size histogram missing from snapshot")
	}
}

// TestShardMetricsDeterministic: the timing-stripped snapshot of a
// sharded sweep — shard gauges, batch-size histogram and all — is
// byte-identical across repeated runs and across a GOMAXPROCS flip,
// even though the m shard workers race freely at runtime.
func TestShardMetricsDeterministic(t *testing.T) {
	strip := func(reg *metrics.Registry) []byte {
		var buf bytes.Buffer
		if err := reg.Snapshot().StripTiming().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	_, regA := runShardedSweep(t, 4)
	_, regB := runShardedSweep(t, 4)
	a, b := strip(regA), strip(regB)
	if !bytes.Equal(a, b) {
		t.Errorf("sharded sweep snapshot differs between runs:\n--- run 1\n%s--- run 2\n%s", a, b)
	}

	old := runtime.GOMAXPROCS(0)
	flipped := 1
	if old == 1 {
		flipped = 4
	}
	runtime.GOMAXPROCS(flipped)
	_, regC := runShardedSweep(t, 4)
	runtime.GOMAXPROCS(old)
	if c := strip(regC); !bytes.Equal(a, c) {
		t.Errorf("sharded sweep snapshot diverges at GOMAXPROCS=%d:\n--- base\n%s--- flipped\n%s", flipped, a, c)
	}
}
