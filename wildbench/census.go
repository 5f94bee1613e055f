package main

import (
	"context"
	"reflect"
	"sync"
	"time"

	"goingwild/internal/churn"
	"goingwild/internal/core"
	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
	"goingwild/internal/pipeline"
	"goingwild/internal/scanner"
)

// censusScale is the census workload's size: order 22 is 4.19M probes
// and about 31k responders per epoch, and a three-week series is one
// timed operation.
func censusScale(toy bool) (order uint, weeks int) {
	if toy {
		return 16, 3
	}
	return 22, 3
}

// epochQueueDepth is core's bound on the delta queue between the sweep
// producer and the apply stage; the traced composition uses the same.
const epochQueueDepth = 2

// runCensus times Study.RunWeeklySeriesStreamContext, the streaming
// weekly census, and checks that every run returns the same series.
func runCensus(ctx context.Context, p params) *result {
	r := newResult("census", host(shards, 0))
	order, weeks := censusScale(p.toy)
	cfg := studyConfig(order, p.seed)
	cfg.Weeks = weeks
	st, setup, err := newStudies(cfg)
	if err != nil {
		r.attempted, r.failed = 1, 1
		r.check("study", false, "%v", err)
		return r
	}
	defer st.Close()
	r.set("setup_s", setup, setupReps)

	// The first run fills the world's per-week caches; it is not timed
	// and its series is the reference every timed run must equal.
	ref, err := st.RunWeeklySeriesStreamContext(ctx, nil)
	if err != nil {
		r.attempted, r.failed = 1, 1
		r.check("warm-up series", false, "%v", err)
		return r
	}
	if !p.toy && p.seed == defaultSeed {
		checkCensusExpectation(r, ref)
	}

	var rates, walls, epochs []float64
	var heap float64
	deadline := time.Now().Add(p.seconds)
	for r.attempted == 0 || time.Now().Before(deadline) {
		var probed uint64
		t0 := time.Now()
		last := t0
		ser, err := st.RunWeeklySeriesStreamContext(ctx, func(v core.EpochView) {
			now := time.Now()
			epochs = append(epochs, now.Sub(last).Seconds())
			last = now
			probed += v.Delta.Probed
		})
		wall := time.Since(t0)
		heap = max(heap, liveHeapMB())
		r.attempted++
		if err != nil || !reflect.DeepEqual(ser, ref) {
			r.failed++
			if err != nil {
				break
			}
			continue
		}
		rates = append(rates, float64(probed)/wall.Seconds())
		walls = append(walls, wall.Seconds()*1e6)
	}
	r.set("heap_peak_mb", heap, r.attempted)
	r.check("series repeat", r.failed == 0, "%d timed runs equal the warm-up series", r.attempted-r.failed)
	r.set("rate_per_s", median(rates), len(rates))
	r.set("latency_p50_us", median(walls), len(walls))
	r.set("latency_tail_us", tail(walls), len(walls))
	r.set("epoch_s", median(epochs), len(epochs))
	return r
}

// censusTrace accumulates the traced census runs' layer times. The
// producer-side fields are written by the producer goroutine of one
// series and read after it is joined.
type censusTrace struct {
	sweepNs, diffNs, putNs, producerNs int64
	getNs, applyNs                     int64
	epochs                             int
	probed                             uint64
}

// tracedSeries runs the weekly series the way core composes it —
// churn.StreamWeekly feeding a bounded pipeline.Queue drained into a
// churn.Tracker — with spans around each layer call: the sweep (through
// StreamWeekly's Sweep hook), the diff StreamWeekly computes between
// the sweep and the sink, the queue Put and Get, and Tracker.Apply.
func tracedSeries(ctx context.Context, st *core.Study, tc *censusTrace) (*churn.Series, error) {
	cfg := st.Cfg
	q := pipeline.NewQueue[churn.EpochDelta](epochQueueDepth)
	tracker := churn.NewTracker(locator(st.World), []int{0, cfg.Weeks - 1})
	bl := st.World.ScanBlacklist()

	var epochStart, sweepEnd, producerEnd int64
	clock := &tracedClock{inner: st.Transport, onSet: func(_ int, at int64) {
		if epochStart != 0 {
			tc.producerNs += at - epochStart
		}
		epochStart = at
	}}
	scfg := churn.StudyConfig{
		Order:     cfg.Order,
		Seed:      cfg.ScanSeed,
		Weeks:     cfg.Weeks,
		Blacklist: bl,
		Sweep: func(ctx context.Context, week int) (*scanner.SweepResult, error) {
			t0 := nowNs()
			res, err := st.Scanner.SweepContext(ctx, cfg.Order, cfg.ScanSeed+uint32(week), bl)
			sweepEnd = nowNs()
			tc.sweepNs += sweepEnd - t0
			return res, err
		},
	}
	sink := func(ctx context.Context, d churn.EpochDelta) error {
		t0 := nowNs()
		tc.diffNs += t0 - sweepEnd
		err := q.Put(ctx, d)
		producerEnd = nowNs()
		tc.putNs += producerEnd - t0
		return err
	}

	prodCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var prodErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer q.Close()
		prodErr = churn.StreamWeekly(prodCtx, st.Scanner, clock, scfg, sink)
	}()
	var applyErr error
	for {
		t0 := nowNs()
		d, ok, err := q.Get(ctx)
		t1 := nowNs()
		tc.getNs += t1 - t0
		if err != nil || !ok {
			applyErr = err
			break
		}
		_, err = tracker.Apply(d)
		tc.applyNs += nowNs() - t1
		if err != nil {
			applyErr = err
			break
		}
		tc.epochs++
		tc.probed += d.Probed
	}
	cancel()
	wg.Wait()
	tc.producerNs += producerEnd - epochStart
	if applyErr != nil {
		return nil, applyErr
	}
	if prodErr != nil {
		return nil, prodErr
	}
	return tracker.Series(), nil
}

// traceCensus measures the census layers. It alternates untraced runs
// of the core path with traced runs of the same composition over a
// wrapping transport, and fails when tracing changes the series, the
// probe count, or the batch size the scanner dispatches.
func traceCensus(ctx context.Context, p params, r *result) {
	order, weeks := censusScale(p.toy)
	cfg := studyConfig(order, p.seed)
	cfg.Weeks = weeks
	plain, err := core.NewStudy(cfg)
	if err != nil {
		r.check("census study", false, "%v", err)
		return
	}
	defer plain.Close()
	ref, err := plain.RunWeeklySeriesStreamContext(ctx, nil)
	if err != nil {
		r.check("census series", false, "%v", err)
		return
	}

	// The unwrapped batch size and probe count, from a registry alone.
	bcfg := cfg
	bcfg.Metrics = metrics.New()
	base, err := core.NewStudy(bcfg)
	if err != nil {
		r.check("census study", false, "%v", err)
		return
	}
	defer base.Close()
	if _, err := base.RunWeeklySeriesStreamContext(ctx, nil); err != nil {
		r.check("census series", false, "%v", err)
		return
	}
	bsnap := bcfg.Metrics.Snapshot()
	baseBatch := histMean(bsnap, "transport.batch.size")
	baseSent := bsnap.Counter("scanner.sweep.sent")
	baseRecv := bsnap.Counter("scanner.sweep.recv")

	// The traced study carries no registry: with one attached, the
	// sharded sweep replays its permutation to publish per-shard gauges,
	// which would land in the scanner's self time.
	traced, err := core.NewStudy(cfg)
	if err != nil {
		r.check("census study", false, "%v", err)
		return
	}
	defer traced.Close()
	tt := newTracedTransport(traced.Transport)
	traced.Scanner = scanner.New(tt, scanOpts(cfg))
	// One untimed traced run fills the traced world's caches.
	if _, err := tracedSeries(ctx, traced, &censusTrace{}); err != nil {
		r.check("census traced series", false, "%v", err)
		return
	}
	tr0 := tt.totals()

	var tc censusTrace
	var plainWalls, tracedWalls []float64
	same, runs := true, 0
	deadline := time.Now().Add(p.seconds)
	for runs < 2 || time.Now().Before(deadline) {
		t0 := time.Now()
		ser, err := plain.RunWeeklySeriesStreamContext(ctx, nil)
		plainWalls = append(plainWalls, time.Since(t0).Seconds())
		if err != nil {
			r.check("census series", false, "%v", err)
			return
		}
		same = same && reflect.DeepEqual(ser, ref)
		t0 = time.Now()
		ser, err = tracedSeries(ctx, traced, &tc)
		tracedWalls = append(tracedWalls, time.Since(t0).Seconds())
		if err != nil {
			r.check("census traced series", false, "%v", err)
			return
		}
		same = same && reflect.DeepEqual(ser, ref)
		runs++
	}
	r.attempted += 2 * runs
	tr := tt.totals().sub(tr0)
	batch := ratio(float64(tr.probes), float64(tr.batches))

	r.check("census traced = untraced", same, "%d traced and %d untraced series equal the reference", runs, runs)
	r.check("census probe count", tc.probed == uint64(runs)*baseSent && uint64(tr.probes) == tc.probed,
		"traced %d probes over %d runs (%d through the transport); untraced %d per run", tc.probed, runs, tr.probes, baseSent)
	r.check("census batching kept", batch >= baseBatch && tr.batches > 0,
		"traced %.2f probes per SendBatch, untraced transport.batch.size mean %.2f", batch, baseBatch)

	probes := float64(tr.probes)
	ep := float64(tc.epochs)
	// The shards sweep in parallel, so shards x the sweep span is the
	// time the sweep had; the transport's share of it is measured, and
	// the scanner's self time is what is left. The leftover includes
	// shard imbalance and idle time, so the parts are checked for
	// consistency rather than reconciled.
	selfNs := shards*tc.sweepNs - tr.sendNs
	r.check("census trace parts", tr.recvNs <= tr.sendNs && selfNs >= 0,
		"receive %d ns <= transport %d ns <= shards x sweep %d ns", tr.recvNs, tr.sendNs, shards*tc.sweepNs)
	r.set("census.lfsr.gen_ns", genNsPerTarget(cfg, plain.World.ScanBlacklist()), shards*weeks)
	r.set("census.scanner.self_ns", ratio(float64(selfNs), probes), int(tr.probes))
	r.set("census.wildnet.send_ns", ratio(float64(tr.sendNs-tr.recvNs), probes), int(tr.probes))
	r.set("census.scanner.recv_ns", ratio(float64(tr.recvNs), float64(tr.responses)), int(tr.responses))
	r.set("census.scanner.batch_probes", batch, int(tr.batches))
	r.set("census.scanner.answer_ratio", ratio(float64(baseRecv), float64(baseSent)), int(baseSent))
	r.set("census.scanner.diff_ms", ratio(float64(tc.diffNs), ep)/1e6, tc.epochs)
	r.set("census.pipeline.put_wait_ms", ratio(float64(tc.putNs), ep)/1e6, tc.epochs)
	r.set("census.pipeline.get_wait_ms", ratio(float64(tc.getNs), ep)/1e6, tc.epochs)
	r.set("census.churn.apply_ms", ratio(float64(tc.applyNs), ep)/1e6, tc.epochs)
	// The producer's wall split, each span counted once: the sweep, the
	// diff and the queue Put against the producer's epoch wall time.
	rec := ratio(float64(tc.sweepNs+tc.diffNs+tc.putNs), float64(tc.producerNs))
	r.set("census.reconcile_ratio", rec, tc.epochs)
	r.check("census reconcile", rec >= 1-reconcileTol && rec <= 1+reconcileTol, "%.4f within 1±%.2f", rec, reconcileTol)
	r.set("census.trace_overhead", ratio(median(tracedWalls), median(plainWalls)), runs)
}

// genNsPerTarget drains every shard's generator for each week of the
// series with NextBatch, as the sweep's batch workers do, and returns
// the time per target.
func genNsPerTarget(cfg core.Config, bl *lfsr.Blacklist) float64 {
	bl.Freeze()
	var buf [256]uint32
	var targets int
	t0 := time.Now()
	for week := 0; week < cfg.Weeks; week++ {
		for i := 0; i < cfg.Shards; i++ {
			g, err := lfsr.ShardedGenerator(cfg.Order, cfg.ScanSeed+uint32(week), bl, i, cfg.Shards)
			if err != nil {
				return 0
			}
			for n := g.NextBatch(buf[:]); n > 0; n = g.NextBatch(buf[:]) {
				targets += n
			}
		}
	}
	return ratio(float64(time.Since(t0).Nanoseconds()), float64(targets))
}
