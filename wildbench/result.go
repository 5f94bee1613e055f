package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"goingwild/internal/churn"
	"goingwild/internal/core"
	"goingwild/internal/geodb"
	"goingwild/internal/metrics"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// shards is the sweep concurrency of every workload. It is set only
// through core.Config.Shards (and the same scanner option core derives
// from it), never through a worker-pool knob, and it matches the two
// CPUs the benchmark was sized on.
const shards = 2

// setupReps is how many times a workload repeats its set-up; setup_s is
// the median, which keeps one slow first allocation from setting it.
const setupReps = 31

// params are one run's inputs. toy shrinks every workload to a scale
// the self-tests can afford; the benchmark itself never sets it.
type params struct {
	seed    uint64
	seconds time.Duration
	toy     bool
}

// defaultSeed is the world seed of core.DefaultConfig, the benchmark's
// default --seed.
var defaultSeed = core.DefaultConfig(0).Seed

// studyConfig maps the benchmark seed to a study configuration: the
// seed picks the world and the scan permutation (and, in serve, the
// request mix). The default seed is core.DefaultConfig's, world and
// scan seed alike, and only it has committed expectations.
func studyConfig(order uint, seed uint64) core.Config {
	cfg := core.DefaultConfig(order)
	if seed != cfg.Seed {
		cfg.Seed = seed
		cfg.ScanSeed = uint32(mix64(seed))
	}
	cfg.Shards = shards
	return cfg
}

// scanOpts mirrors the scanner options core.NewStudy derives from a
// config, for studies whose scanner the traced runs rebuild over a
// wrapping transport. Concurrency comes from Shards alone.
func scanOpts(cfg core.Config) scanner.Options {
	return scanner.Options{
		Shards:       cfg.Shards,
		Retries:      1,
		SettleDelay:  scanner.NoSettle,
		Backoff:      cfg.Backoff,
		RetryBudget:  cfg.RetryBudget,
		SweepRetries: cfg.SweepRetries,
		Metrics:      cfg.Metrics,
	}
}

// locator maps addresses through the world's registry, as core does.
func locator(w *wildnet.World) churn.Locator {
	return func(u uint32) (string, geodb.RIR) {
		loc := w.Geo().LookupU32(u)
		return loc.Country, loc.RIR
	}
}

// mix64 is the splitmix64 finalizer: a fixed bijection used to derive
// seeds and request mixes from the benchmark seed.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// newStudies builds the study setupReps times and keeps the last one,
// returning the median construction time in seconds. One untimed
// construction first grows the fresh process's heap, which is the
// runtime's set-up, not the program's.
func newStudies(cfg core.Config) (*core.Study, float64, error) {
	st, err := core.NewStudy(cfg)
	if err != nil {
		return nil, 0, err
	}
	ds := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		st.Close()
		t0 := time.Now()
		st, err = core.NewStudy(cfg)
		ds = append(ds, time.Since(t0).Seconds())
		if err != nil {
			return nil, 0, err
		}
	}
	return st, median(ds), nil
}

// check is one output check of a run.
type check struct {
	name   string
	ok     bool
	detail string
}

// result is one workload's outcome: its metrics, the samples behind
// them, and the output checks.
type result struct {
	workload  string
	host      hostInfo
	metrics   map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	checks    []check
}

func newResult(workload string, h hostInfo) *result {
	return &result{workload: workload, host: h, metrics: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric with the number of samples behind it.
func (r *result) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

// check records an output check.
func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// correct reports whether every check passed and no operation failed.
func (r *result) correct() bool {
	if r.failed > 0 {
		return false
	}
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// report prints the human-readable block: host, metrics by name with
// unit and sample count, fail ratio, and every check.
func (r *result) report(w io.Writer, defs []metricDef) {
	hb, _ := json.Marshal(r.host)
	fmt.Fprintf(w, "[%s] host %s\n", r.workload, hb)
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			continue
		}
		as := ""
		if a := d.As[r.workload]; a != "" {
			as = "  (" + a + ")"
		}
		if strings.Contains(d.Name, "tail_us") {
			as = fmt.Sprintf(" q=%.3f", tailQ(r.samples[d.Name])) + as
		}
		fmt.Fprintf(w, "[%s] %-40s %14.6g %-6s n=%d%s\n", r.workload, d.Name, v, d.Unit, r.samples[d.Name], as)
	}
	fmt.Fprintf(w, "[%s] %-40s %14.6g %-6s (%d of %d failed)\n", r.workload, "fail_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.failed, r.attempted)
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "[%s] check %-34s %s  %s\n", r.workload, c.name, status, c.detail)
	}
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line assembles the result line from the named metric definitions;
// prefix qualifies names when one line carries several workloads. A
// missing or non-finite metric is itself a failed check.
func line(results []*result, defs []metricDef, prefix bool) resultLine {
	out := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		for _, d := range defs {
			v, ok := r.metrics[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				r.check("metric "+d.Name, false, "not measured")
				continue
			}
			name := d.Name
			if prefix {
				name = r.workload + "." + name
			}
			out.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
		}
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.attempted
		out.Failed += r.failed
	}
	return out
}

// histMean is the mean observation of a registry histogram.
func histMean(s metrics.Snapshot, name string) float64 {
	for _, h := range s.Histograms {
		if h.Name == name {
			return ratio(float64(h.Sum), float64(h.Count))
		}
	}
	return 0
}
