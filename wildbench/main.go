// Command wildbench is the repository's benchmark. It runs three
// workloads — the weekly census, the Figure-3 classification chain and
// the live lookup service over loopback HTTP — from one process, prints
// every end-to-end metric by name with its unit, and checks each
// workload's output. With -trace 1 it instead runs every workload once
// with each layer's calls wrapped and timed, and prints the per-layer
// ledger.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash wildbench/run.sh --workload census --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// runTimeout bounds a whole invocation, so a hung workload fails
// instead of stalling its caller.
const runTimeout = 170 * time.Second

// reconcileTol bounds |reconcile_ratio - 1| in traced runs.
const reconcileTol = 0.1

var workloads = map[string]func(context.Context, params) *result{
	"census":   runCensus,
	"classify": runClassify,
	"serve":    runServe,
}

var workloadOrder = []string{"census", "classify", "serve"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wildbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "census, classify, serve, or all")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the default is core.DefaultConfig's")
	secs := fs.Float64("seconds", 15, "how long each workload measures")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadOrder
	if *workload != "all" {
		if _, ok := workloads[*workload]; !ok {
			fmt.Fprintf(stderr, "wildbench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	ms, err := loadMetrics("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "wildbench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	p := params{seed: *seed, seconds: time.Duration(*secs * float64(time.Second))}

	var results []*result
	defs := ms.EndToEnd
	if *trace == 0 {
		for _, name := range names {
			results = append(results, workloads[name](ctx, p))
		}
	} else {
		results = []*result{runTrace(ctx, p, *workload)}
		defs = ms.PerLayer
	}
	out := line(results, defs, len(results) > 1)
	for _, r := range results {
		r.report(stdout, defs)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "wildbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// runTrace runs the traced ledger: every workload's layers, whichever
// workload was named, so each traced run reports every layer metric.
// The time budget is split evenly between the three.
func runTrace(ctx context.Context, p params, workload string) *result {
	r := newResult("trace:"+workload, host(shards, serveConns))
	p.seconds /= 3
	traceCensus(ctx, p, r)
	traceClassify(ctx, p, r)
	traceServe(ctx, p, r)
	return r
}
