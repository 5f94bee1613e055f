package main

import (
	_ "embed"
	"encoding/json"
	"reflect"

	"goingwild/internal/churn"
	"goingwild/internal/core"
)

// Committed expectations at benchmark scale on the default seed: the
// census workload's per-week totals and by-rcode counts, and the
// classify workload's Figure-3 box counts. Other seeds sweep other
// worlds and are checked only for repeatability. A change to the
// program that alters either is a change in results, not in speed.

//go:embed testdata/census_default.json
var censusExpectJSON []byte

//go:embed testdata/classify_default.json
var classifyExpectJSON []byte

// censusWeek is one week of the census expectation.
type censusWeek struct {
	Week    int            `json:"week"`
	Total   int            `json:"total"`
	ByRCode map[string]int `json:"by_rcode"`
}

// censusSummary reduces a series to what the expectation pins.
func censusSummary(s *churn.Series) []censusWeek {
	out := make([]censusWeek, 0, len(s.Weeks))
	for _, w := range s.Weeks {
		by := map[string]int{}
		for rc, n := range w.ByRCode {
			by[rc.String()] = n
		}
		out = append(out, censusWeek{Week: w.Week, Total: w.Total, ByRCode: by})
	}
	return out
}

func checkCensusExpectation(r *result, s *churn.Series) {
	var want []censusWeek
	if err := json.Unmarshal(censusExpectJSON, &want); err != nil {
		r.check("census expectation", false, "%v", err)
		return
	}
	got := censusSummary(s)
	r.check("census expectation", reflect.DeepEqual(got, want), "weekly totals and rcodes %v, want %v", got, want)
}

func checkClassifyExpectation(r *result, got []core.StageCount) {
	var want []core.StageCount
	if err := json.Unmarshal(classifyExpectJSON, &want); err != nil {
		r.check("classify expectation", false, "%v", err)
		return
	}
	r.check("classify expectation", reflect.DeepEqual(got, want), "box counts %v, want %v", got, want)
}
