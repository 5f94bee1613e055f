package core

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"goingwild/internal/churn"
	"goingwild/internal/metrics"
	"goingwild/internal/scanner"
)

// streamCfg is the shared shape of the streaming-determinism tests: a
// small world, enough weeks to exercise add/update/remove deltas.
func streamCfg(order uint) Config {
	cfg := DefaultConfig(order)
	cfg.Weeks = 6
	return cfg
}

// seriesBatch runs the batch reference churn.RunWeekly on a fresh
// study, with the schedule the series engine uses: the study's scanner,
// clock and locator, its ScanSeed, and the first and last weeks
// retained.
func seriesBatch(t *testing.T, cfg Config) *churn.Series {
	t.Helper()
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	series, err := churn.RunWeekly(context.Background(), s.Scanner, s.Transport, s.locator(), churn.StudyConfig{
		Order:       cfg.Order,
		Seed:        cfg.ScanSeed,
		Weeks:       cfg.Weeks,
		Blacklist:   s.World.ScanBlacklist(),
		RetainWeeks: []int{0, cfg.Weeks - 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return series
}

// seriesStream runs the streaming weekly series on a fresh study.
func seriesStream(t *testing.T, cfg Config, live func(EpochView)) *churn.Series {
	t.Helper()
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	series, err := s.RunWeeklySeriesStreamContext(context.Background(), live)
	if err != nil {
		t.Fatal(err)
	}
	return series
}

// TestStreamingSeriesMatchesBatch holds the series engine to an
// independent reference: the epoch stream must reproduce what the batch
// churn.RunWeekly aggregates from full sweeps on an identical fresh
// study — deeply equal structures, so every rendering derived from them
// (Figure 1, Tables 1–2; pure functions of the series) is
// byte-identical — including across a GOMAXPROCS flip, since the
// bounded queue hands the consumer exactly the producer's epoch order
// no matter the schedule. TestSeriesGolden and the CI stream-determinism
// job pin the rendered bytes on top.
func TestStreamingSeriesMatchesBatch(t *testing.T) {
	const order = 16
	cfg := streamCfg(order)
	batch := seriesBatch(t, cfg)

	var views []EpochView
	stream := seriesStream(t, cfg, func(v EpochView) { views = append(views, v) })
	if !reflect.DeepEqual(stream, batch) {
		t.Fatal("streamed series != batch series")
	}

	// The live views arrive once per week, in order, already aggregated.
	if len(views) != cfg.Weeks {
		t.Fatalf("live callback fired %d times, want %d", len(views), cfg.Weeks)
	}
	for i, v := range views {
		if v.Obs.Week != i || v.Delta.Week != i {
			t.Errorf("view %d carries week %d / delta week %d", i, v.Obs.Week, v.Delta.Week)
		}
		if v.Obs.Total == 0 {
			t.Errorf("week %d live observation is empty", i)
		}
	}
	// After week 0's full-census delta, later weeks are genuinely
	// incremental: updates and removes appear, not just adds.
	if len(views[0].Delta.Deltas) != views[0].Obs.Total {
		t.Errorf("week-0 delta has %d records for %d responders; first epoch must be all adds",
			len(views[0].Delta.Deltas), views[0].Obs.Total)
	}

	old := runtime.GOMAXPROCS(0)
	flipped := 1
	if old == 1 {
		flipped = 4
	}
	runtime.GOMAXPROCS(flipped)
	again := seriesStream(t, cfg, nil)
	runtime.GOMAXPROCS(old)
	if !reflect.DeepEqual(again, batch) {
		t.Fatalf("streamed series diverges from batch at GOMAXPROCS=%d", flipped)
	}
}

// TestStreamingReplayReproducesBatchSnapshot is the delta-replay
// property at the core layer: folding every epoch's delta batch over
// the empty snapshot — which is exactly what the tracker does — must
// land on the batch run's final retained responder set, byte for byte.
func TestStreamingReplayReproducesBatchSnapshot(t *testing.T) {
	const order = 16
	cfg := streamCfg(order)
	batch := seriesBatch(t, cfg)

	var deltas []churn.EpochDelta
	stream := seriesStream(t, cfg, func(v EpochView) { deltas = append(deltas, v.Delta) })
	if len(stream.Last().Responders) == 0 {
		t.Fatal("no final responders to compare")
	}

	// Replay through the scanner delta layer alone, with no tracker in
	// the loop, as the CI determinism job does.
	var state []scanner.Responder
	for _, d := range deltas {
		var err error
		state, err = scanner.ApplyResponderDeltas(state, d.Deltas)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(state, batch.Last().Responders) {
		t.Fatal("replayed final snapshot != batch final responder set")
	}
}

// TestStreamingEpochMetricsDeterministic extends the metrics contract
// to the epoch instruments: pipeline.delta.size and pipeline.epoch.done
// are deterministic (identical stripped snapshots across runs and a
// GOMAXPROCS flip), while pipeline.epoch.lag carries the Timing class
// and is stripped.
func TestStreamingEpochMetricsDeterministic(t *testing.T) {
	cfg := streamCfg(14)
	run := func() *metrics.Registry {
		reg := metrics.New()
		c := cfg
		c.Metrics = reg
		s, err := NewStudy(c)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.RunWeeklySeriesStreamContext(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	regA := run()
	regB := run()
	jsonA, jsonB := stripJSON(t, regA), stripJSON(t, regB)
	if !bytes.Equal(jsonA, jsonB) {
		t.Errorf("epoch metrics differ between runs:\n--- run 1\n%s--- run 2\n%s", jsonA, jsonB)
	}
	old := runtime.GOMAXPROCS(0)
	flipped := 1
	if old == 1 {
		flipped = 4
	}
	runtime.GOMAXPROCS(flipped)
	regC := run()
	runtime.GOMAXPROCS(old)
	if jsonC := stripJSON(t, regC); !bytes.Equal(jsonA, jsonC) {
		t.Errorf("epoch metrics diverge at GOMAXPROCS=%d:\n--- base\n%s--- flipped\n%s", flipped, jsonA, jsonC)
	}

	snap := regA.Snapshot()
	if got := snap.Counter("pipeline.epoch.done"); got != uint64(cfg.Weeks) {
		t.Errorf("pipeline.epoch.done = %d, want %d", got, cfg.Weeks)
	}
	if !bytes.Contains(jsonA, []byte("pipeline.delta.size")) {
		t.Error("stripped snapshot is missing pipeline.delta.size")
	}
	if bytes.Contains(jsonA, []byte("pipeline.epoch.lag")) {
		t.Error("pipeline.epoch.lag survived StripTiming; it must carry the Timing class")
	}
}

// TestStreamingProducerFailurePropagates aborts the stream mid-flight
// and checks the producer error surfaces instead of a hang or a
// truncated success.
func TestStreamingProducerFailurePropagates(t *testing.T) {
	cfg := streamCfg(14)
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, err = s.RunWeeklySeriesStreamContext(ctx, func(EpochView) {
		calls++
		if calls == 2 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("cancelled stream reported success")
	}
	if calls >= cfg.Weeks {
		t.Errorf("stream ran all %d weeks despite cancellation", calls)
	}
}
