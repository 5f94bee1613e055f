package scanner

import (
	"context"
	"fmt"
	"testing"

	"goingwild/internal/metrics"
)

// TestSweepStressParallel drives several full sweeps at once, each with
// its own world and four shard workers. Its job is to give the race
// detector concurrent coverage of the sweep engine's shard workers, the
// shared rate limiter, the receiver path and the metric counters (see
// `make race`).
func TestSweepStressParallel(t *testing.T) {
	t.Parallel()
	for i := 0; i < 4; i++ {
		seed := uint32(100 + i)
		t.Run(fmt.Sprintf("world%d", i), func(t *testing.T) {
			t.Parallel()
			w, tr := testWorld(t, 14)
			defer tr.Close()
			reg := metrics.New()
			s := New(tr, Options{Shards: 4, RatePPS: 2_000_000, SettleDelay: NoSettle, Metrics: reg})
			res, err := s.SweepContext(context.Background(), 14, seed, w.ScanBlacklist())
			if err != nil {
				t.Fatal(err)
			}
			if res.Total() == 0 {
				t.Fatal("stress sweep found no responders")
			}
			snap := reg.Snapshot()
			sent, recv := snap.Counter("scanner.sweep.sent"), snap.Counter("scanner.sweep.recv")
			if sent != res.Probed || recv < uint64(res.Total()) {
				t.Errorf("counters missed traffic: sent=%d recv=%d, sweep probed %d with %d responders",
					sent, recv, res.Probed, res.Total())
			}
		})
	}
}
