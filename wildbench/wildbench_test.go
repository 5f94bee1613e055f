package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/*_default.json at benchmark scale")

// toy is the scale the self-tests run at.
func toy(seed uint64) params {
	return params{seed: seed, seconds: 300 * time.Millisecond, toy: true}
}

func requireCorrect(t *testing.T, r *result) {
	t.Helper()
	if r.attempted < 1 {
		t.Errorf("%s: nothing attempted", r.workload)
	}
	for _, c := range r.checks {
		if !c.ok {
			t.Errorf("%s: check %s failed: %s", r.workload, c.name, c.detail)
		}
	}
	if r.failed != 0 {
		t.Errorf("%s: %d of %d operations failed", r.workload, r.failed, r.attempted)
	}
}

// TestWorkloadsToy runs each workload at toy scale with its checks.
func TestWorkloadsToy(t *testing.T) {
	ms, err := loadMetrics("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			r := workloads[name](context.Background(), toy(7))
			requireCorrect(t, r)
			for _, d := range ms.EndToEnd {
				if v, ok := r.metrics[d.Name]; !ok || !(v > 0) {
					t.Errorf("%s: %s = %v, want a positive measurement", name, d.Name, v)
				}
			}
		})
	}
}

// TestTraceToy runs the traced ledger at toy scale: tracing must not
// change results, every layer metric must be reported, and both
// reconcile ratios must stay within the benchmark's tolerance.
func TestTraceToy(t *testing.T) {
	ms, err := loadMetrics("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	p := toy(7)
	p.seconds *= 3
	r := runTrace(context.Background(), p, "census")
	requireCorrect(t, r)
	for _, d := range ms.PerLayer {
		if _, ok := r.metrics[d.Name]; !ok {
			t.Errorf("layer metric %s not reported", d.Name)
		}
	}
	for _, name := range []string{"census.reconcile_ratio", "classify.reconcile_ratio"} {
		if v := r.metrics[name]; v < 1-reconcileTol || v > 1+reconcileTol {
			t.Errorf("%s = %.4f, outside 1±%.2f", name, v, reconcileTol)
		}
	}
}

// TestMixPure checks that the serve mix is a pure function of the seed
// and that its hit and miss pools do not overlap.
func TestMixPure(t *testing.T) {
	ctx := context.Background()
	pools := func(seed uint64) *servePools {
		st, cfg, epochs, err := serveStudy(toy(seed))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		p, err := primePools(ctx, st, cfg, epochs, seed)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := pools(11), pools(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("pools differ between two builds from one seed")
	}
	if !a.disjoint() {
		t.Fatal("hit and miss pools overlap")
	}
	seq := func(p *servePools, seed uint64, conn int) []request {
		m := newMixer(seed, conn, p)
		out := make([]request, 5000)
		for i := range out {
			out[i] = m.next()
		}
		return out
	}
	if !reflect.DeepEqual(seq(a, 11, 0), seq(b, 11, 0)) {
		t.Fatal("mix differs between two runs of one seed")
	}
	if reflect.DeepEqual(seq(a, 11, 0), seq(a, 12, 0)) {
		t.Fatal("mix ignores the seed")
	}
	var kinds [nKinds]int
	misses := map[uint32]bool{}
	for conn := 0; conn < serveConns; conn++ {
		for _, rq := range seq(a, 11, conn) {
			kinds[rq.kind]++
			if rq.kind == kindMiss {
				if misses[rq.addr] {
					t.Fatalf("miss address %08x drawn twice", rq.addr)
				}
				misses[rq.addr] = true
			}
		}
	}
	if want := [nKinds]int{2 * 4850, 2 * 100, 2 * 50}; kinds != want {
		t.Errorf("kinds over two 5000-request sequences = %v, want %v", kinds, want)
	}
}

// TestExpectations checks the committed expectations at benchmark scale
// on the default seed; -update rewrites them.
func TestExpectations(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark scale")
	}
	ctx := context.Background()
	order, weeks := censusScale(false)
	cfg := studyConfig(order, defaultSeed)
	cfg.Weeks = weeks
	st, _, err := newStudies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := st.RunWeeklySeriesStreamContext(ctx, nil)
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
	cst, _, err := newStudies(studyConfig(classifyOrder(false), defaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := chain(ctx, cst)
	cst.Close()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		write := func(path string, v any) {
			b, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write("testdata/census_default.json", censusSummary(ser))
		write("testdata/classify_default.json", res.StageTrace)
		return
	}
	r := newResult("expect", hostInfo{})
	checkCensusExpectation(r, ser)
	checkClassifyExpectation(r, res.StageTrace)
	for _, c := range r.checks {
		if !c.ok {
			t.Errorf("%s: %s", c.name, c.detail)
		}
	}
}
