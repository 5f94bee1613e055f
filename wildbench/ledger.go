package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// BENCHMARK.json, at the repository root, names every metric with its
// unit, direction and bound. ledger.json is the benchmark's own notes
// on top of it: what each workload loads, what each metric stands for
// on each workload, which end-to-end metric each layer metric should
// move, a held-out seed for checking later claims on a world their
// author did not tune against, and a baseline. Only the metric notes
// are read here; the rest is for the reader.
//
//go:embed ledger.json
var ledgerJSON []byte

// move names an end-to-end metric, on one workload, that a layer
// metric should move.
type move struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

// metricDef is one metric: its name, unit, direction and bound from
// BENCHMARK.json, joined with its notes from ledger.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// As names, per workload, the quantity an end-to-end metric stands
	// for there (census.probes_per_s, serve.p99_us, ...).
	As map[string]string `json:"as,omitempty"`
	// Means says how the metric is measured.
	Means json.RawMessage `json:"means"`
	// Moves lists what a layer metric should move; empty when it is a
	// check of the trace itself or a property of the simulated world.
	Moves []move `json:"moves,omitempty"`
}

// metricSet is the metrics a run reports.
type metricSet struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadMetrics reads the metric list from the BENCHMARK.json at path and
// joins each metric with its ledger notes. A note for a metric that
// BENCHMARK.json does not list is an error, so the notes cannot go
// stale.
func loadMetrics(path string) (*metricSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms metricSet
	if err := json.Unmarshal(raw, &ms); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var led metricSet
	if err := json.Unmarshal(ledgerJSON, &led); err != nil {
		return nil, fmt.Errorf("ledger.json: %w", err)
	}
	join := func(defs, notes []metricDef) error {
		at := map[string]int{}
		for i, d := range defs {
			at[d.Name] = i
		}
		for _, n := range notes {
			i, ok := at[n.Name]
			if !ok {
				return fmt.Errorf("ledger.json describes %s, which %s does not list", n.Name, path)
			}
			defs[i].As, defs[i].Means, defs[i].Moves = n.As, n.Means, n.Moves
		}
		return nil
	}
	if err := join(ms.EndToEnd, led.EndToEnd); err != nil {
		return nil, err
	}
	if err := join(ms.PerLayer, led.PerLayer); err != nil {
		return nil, err
	}
	return &ms, nil
}
