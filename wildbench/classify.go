package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"goingwild/internal/core"
	"goingwild/internal/metrics"
	"goingwild/internal/pipeline"
	"goingwild/internal/scanner"
)

// classifyWeek is the study week the Figure-3 chain runs at.
const classifyWeek = 50

// classifyOrder is the classify workload's size: order 17 yields about
// 644 resolvers, 100k domain probes and 5.4k fetched pairs per chain.
func classifyOrder(toy bool) uint {
	if toy {
		return 15
	}
	return 17
}

// classifyStages are the chain's pipeline stages, in order.
var classifyStages = []string{"ipv4-scan", "domain-scan", "prefilter", "classify", "figure4"}

// chain runs one Figure-3 chain (all 13 categories) on a fresh study and
// returns it with its wall time. A chain that degrades a stage fails.
func chain(ctx context.Context, st *core.Study) (*core.DomainStudyResult, time.Duration, error) {
	t0 := time.Now()
	res, err := st.RunDomainStudyContext(ctx, classifyWeek, nil)
	wall := time.Since(t0)
	if err == nil && len(st.Degraded) > 0 {
		err = fmt.Errorf("stage %s degraded: %s", st.Degraded[0].Stage, st.Degraded[0].Err)
	}
	return res, wall, err
}

// runClassify times Study.RunDomainStudyContext, each chain on a freshly
// built study, and checks that every chain reports the same Figure-3
// box counts.
func runClassify(ctx context.Context, p params) *result {
	r := newResult("classify", host(shards, 0))
	cfg := studyConfig(classifyOrder(p.toy), p.seed)
	st, setup, err := newStudies(cfg)
	if err != nil {
		r.attempted, r.failed = 1, 1
		r.check("study", false, "%v", err)
		return r
	}
	r.set("setup_s", setup, setupReps)
	ref, _, err := chain(ctx, st)
	st.Close()
	if err != nil {
		r.attempted, r.failed = 1, 1
		r.check("warm-up chain", false, "%v", err)
		return r
	}
	if !p.toy && p.seed == defaultSeed {
		checkClassifyExpectation(r, ref.StageTrace)
	}

	var walls, scans []float64
	var heap float64
	deadline := time.Now().Add(p.seconds)
	for r.attempted == 0 || time.Now().Before(deadline) {
		r.attempted++
		st, err := core.NewStudy(cfg)
		if err != nil {
			r.failed++
			break
		}
		st.Observer = func(ev pipeline.StageEvent) {
			if ev.Kind == pipeline.StageDone && ev.Stage == "ipv4-scan" {
				scans = append(scans, ev.Elapsed.Seconds())
			}
		}
		res, wall, err := chain(ctx, st)
		heap = max(heap, liveHeapMB())
		st.Close()
		if err != nil || !reflect.DeepEqual(res.StageTrace, ref.StageTrace) {
			r.failed++
			continue
		}
		walls = append(walls, wall.Seconds())
	}
	r.set("heap_peak_mb", heap, r.attempted)
	r.check("chain repeat", r.failed == 0, "%d timed chains match the warm-up box counts", r.attempted-r.failed)
	r.set("rate_per_s", 1/median(walls), len(walls))
	us := make([]float64, len(walls))
	for i, w := range walls {
		us[i] = w * 1e6
	}
	r.set("latency_p50_us", median(us), len(us))
	r.set("latency_tail_us", tail(us), len(us))
	r.set("epoch_s", median(scans), len(scans))
	return r
}

// traceClassify measures the chain's stages from Study.Observer events
// and the per-probe domain-scan path through a wrapping transport under
// a scanner built with core's options.
func traceClassify(ctx context.Context, p params, r *result) {
	cfg := studyConfig(classifyOrder(p.toy), p.seed)
	// The untraced reference chain carries the registry the probe counts
	// come from; the timed chains carry none, so no metric publication
	// lands in their stage times.
	rcfg := cfg
	rcfg.Metrics = metrics.New()
	plain, err := core.NewStudy(rcfg)
	if err != nil {
		r.check("classify study", false, "%v", err)
		return
	}
	ref, _, err := chain(ctx, plain)
	plain.Close()
	if err != nil {
		r.check("classify chain", false, "%v", err)
		return
	}
	snap := rcfg.Metrics.Snapshot()
	domainSent := snap.Counter("scanner.domains.sent")
	retrySpend := snap.Counter("scanner.retry.spend")

	stageNs := map[string]int64{}
	var scan transportTotals
	var wallNs int64
	chains := 0
	same := true
	deadline := time.Now().Add(p.seconds)
	for chains < 2 || time.Now().Before(deadline) {
		st, err := core.NewStudy(cfg)
		if err != nil {
			r.check("classify study", false, "%v", err)
			return
		}
		tt := newTracedTransport(st.Transport)
		st.Scanner = scanner.New(tt, scanOpts(cfg))
		var at transportTotals
		st.Observer = func(ev pipeline.StageEvent) {
			switch ev.Kind {
			case pipeline.StageStart:
				if ev.Stage == "domain-scan" {
					at = tt.totals()
				}
			case pipeline.StageDone:
				stageNs[ev.Stage] += ev.Elapsed.Nanoseconds()
				if ev.Stage == "domain-scan" {
					scan = scan.add(tt.totals().sub(at))
				}
			}
		}
		res, wall, err := chain(ctx, st)
		st.Close()
		if err != nil {
			r.check("classify traced chain", false, "%v", err)
			return
		}
		same = same && reflect.DeepEqual(res.StageTrace, ref.StageTrace)
		wallNs += wall.Nanoseconds()
		chains++
	}
	r.attempted += chains
	r.check("classify traced = untraced", same, "%d traced chains match the untraced box counts", chains)

	var stagesNs int64
	for _, name := range classifyStages {
		stagesNs += stageNs[name]
		r.set("classify.core."+name+"_s", float64(stageNs[name])/float64(chains)/1e9, chains)
	}
	r.set("classify.wildnet.send_ns", ratio(float64(scan.sendNs-scan.recvNs), float64(scan.probes)), int(scan.probes))
	r.set("classify.scanner.recv_ns", ratio(float64(scan.recvNs), float64(scan.responses)), int(scan.responses))
	r.set("classify.scanner.domain_probes", float64(domainSent), 1)
	r.set("classify.scanner.retry_share", ratio(float64(retrySpend), float64(domainSent)), 1)
	counts := map[string]int{}
	for _, c := range ref.StageTrace {
		counts[c.Stage] = c.Count
	}
	r.set("classify.prefilter.unexpected_tuples", float64(counts["3-unexpected tuples"]), 1)
	r.set("classify.classify.pairs", float64(counts["4-fetched pairs"]), 1)
	r.set("classify.classify.clusters", float64(counts["5-clusters"]), 1)
	rec := ratio(float64(stagesNs), float64(wallNs))
	r.set("classify.reconcile_ratio", rec, chains)
	r.check("classify reconcile", rec >= 1-reconcileTol && rec <= 1+reconcileTol, "%.4f within 1±%.2f", rec, reconcileTol)
}
