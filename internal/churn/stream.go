package churn

import (
	"context"
	"fmt"
	"sort"

	"goingwild/internal/dnswire"
	"goingwild/internal/geodb"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// EpochDelta is one weekly scan expressed as a typed change batch: the
// deltas that transform the previous week's responder set into this
// week's, sorted by target address. It is the unit flowing through the
// epoch stream's bounded queues.
type EpochDelta struct {
	Week   int
	Probed uint64
	Deltas []scanner.ResponderDelta
}

// StreamWeekly is the weekly-scan producer of the study's series engine:
// it runs the sweeps RunWeekly runs — same clock advance, same per-week
// seed schedule, in the same order, so the simulated world's fault
// state evolves exactly as under the batch reference — but hands each
// week to sink as an EpochDelta instead of accumulating a Series. A blocking sink
// (e.g. pipeline.Queue.Put) is the backpressure seam: the producer can
// run only as far ahead as the sink allows. A sink error (including a
// closed queue's) aborts the stream.
func StreamWeekly(ctx context.Context, sc *scanner.Scanner, clock Clock, cfg StudyConfig, sink func(context.Context, EpochDelta) error) error {
	prev := cfg.Prev
	for week := cfg.StartWeek; week < cfg.Weeks; week++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		clock.SetTime(wildnet.At(week))
		var res *scanner.SweepResult
		var err error
		if cfg.Sweep != nil {
			res, err = cfg.Sweep(ctx, week)
		} else {
			res, err = sc.SweepContext(ctx, cfg.Order, cfg.Seed+uint32(week), cfg.Blacklist)
		}
		if err != nil {
			return err
		}
		d := EpochDelta{Week: week, Probed: res.Probed, Deltas: scanner.DiffSweepResponders(prev, res.Responders)}
		prev = res.Responders
		if err := sink(ctx, d); err != nil {
			return err
		}
	}
	return nil
}

// Tracker is the mergeable streaming collector for the weekly series:
// it consumes EpochDeltas in week order and maintains the responder
// snapshot plus the per-week aggregates incrementally, so each week's
// tables can render live without a second pass. Its Series output is
// identical — map for map, slice for slice — to what the batch
// RunWeekly builds from full sweeps.
//
// A Tracker is shard-local (accumulate) and Merge is the deterministic
// combine: trackers fed disjoint target subsets of the same weeks fold
// into the tracker the full stream would have produced.
type Tracker struct {
	loc      Locator
	retain   map[int]bool
	snapshot []scanner.Responder

	byRCode   map[dnswire.RCode]int
	byCountry map[string]int
	byRIR     map[geodb.RIR]int

	series Series
}

// NewTracker builds a tracker that locates responders with loc and
// retains the responder lists of retainWeeks (as StudyConfig does).
func NewTracker(loc Locator, retainWeeks []int) *Tracker {
	retain := map[int]bool{}
	for _, w := range retainWeeks {
		retain[w] = true
	}
	return &Tracker{
		loc:       loc,
		retain:    retain,
		byRCode:   map[dnswire.RCode]int{},
		byCountry: map[string]int{},
		byRIR:     map[geodb.RIR]int{},
	}
}

// bump adjusts one aggregate bucket, deleting the key when it reaches
// zero: the batch path builds its maps by pure increment, so they carry
// only >0 entries, and the incremental maps must match key for key.
func bump[K comparable](m map[K]int, k K, by int) {
	if n := m[k] + by; n == 0 {
		delete(m, k)
	} else {
		m[k] = n
	}
}

// apply folds one responder change into the aggregates.
func (t *Tracker) apply(r scanner.Responder, by int) {
	bump(t.byRCode, r.RCode, by)
	country, rir := t.loc(r.Addr)
	bump(t.byCountry, country, by)
	bump(t.byRIR, rir, by)
}

// lookup finds the current record of addr in the sorted snapshot.
func (t *Tracker) lookup(addr uint32) (scanner.Responder, bool) {
	i := sort.Search(len(t.snapshot), func(i int) bool { return t.snapshot[i].Addr >= addr })
	if i < len(t.snapshot) && t.snapshot[i].Addr == addr {
		return t.snapshot[i], true
	}
	return scanner.Responder{}, false
}

// Apply consumes one week's delta batch: it advances the snapshot,
// folds the changes into the running aggregates, appends the week's
// observation to the series, and returns that observation so the
// caller can render it live. Weeks must arrive in order; a delta that
// violates the stream contract surfaces as an error.
func (t *Tracker) Apply(d EpochDelta) (*WeekObservation, error) {
	if want := len(t.series.Weeks); d.Week != want {
		return nil, fmt.Errorf("churn: epoch delta for week %d, want week %d", d.Week, want)
	}
	for _, dl := range d.Deltas {
		switch dl.Op {
		case scanner.DeltaAdd:
			t.apply(dl.Responder, +1)
		case scanner.DeltaRemove:
			t.apply(dl.Responder, -1)
		case scanner.DeltaUpdate:
			old, ok := t.lookup(dl.Addr())
			if !ok {
				return nil, fmt.Errorf("churn: delta update of absent target %08x", dl.Addr())
			}
			t.apply(old, -1)
			t.apply(dl.Responder, +1)
		}
	}
	next, err := scanner.ApplyResponderDeltas(t.snapshot, d.Deltas)
	if err != nil {
		return nil, fmt.Errorf("churn: week %d: %w", d.Week, err)
	}
	t.snapshot = next
	obs := WeekObservation{
		Week:      d.Week,
		Total:     len(t.snapshot),
		ByRCode:   copyMap(t.byRCode),
		ByCountry: copyMap(t.byCountry),
		ByRIR:     copyMap(t.byRIR),
	}
	if t.retain[d.Week] {
		// Non-nil even when empty, matching the batch collector's freeze.
		obs.Responders = make([]scanner.Responder, len(t.snapshot))
		copy(obs.Responders, t.snapshot)
	}
	t.series.Weeks = append(t.series.Weeks, obs)
	return &t.series.Weeks[len(t.series.Weeks)-1], nil
}

// Snapshot is the current responder set, sorted by address. The caller
// must not mutate it.
func (t *Tracker) Snapshot() []scanner.Responder { return t.snapshot }

// Series returns the accumulated weekly series — after the final epoch,
// the same value RunWeekly returns.
func (t *Tracker) Series() *Series { return &t.series }

// Merge folds other — a tracker fed the same weeks over a disjoint
// target subset — into t. Snapshots merge by address (a shared target
// is an error: shard streams must partition the space), per-week totals
// and aggregate maps sum, and retained responder lists merge sorted.
// The combine is deterministic: the result is independent of merge
// order up to the commutativity of the sums.
func (t *Tracker) Merge(other *Tracker) error {
	if len(t.series.Weeks) != len(other.series.Weeks) {
		return fmt.Errorf("churn: merging trackers at week %d and week %d", len(t.series.Weeks), len(other.series.Weeks))
	}
	merged, err := mergeResponders(t.snapshot, other.snapshot)
	if err != nil {
		return err
	}
	t.snapshot = merged
	for k, n := range other.byRCode {
		bump(t.byRCode, k, n)
	}
	for k, n := range other.byCountry {
		bump(t.byCountry, k, n)
	}
	for k, n := range other.byRIR {
		bump(t.byRIR, k, n)
	}
	for i := range t.series.Weeks {
		a, b := &t.series.Weeks[i], &other.series.Weeks[i]
		a.Total += b.Total
		for k, n := range b.ByRCode {
			bump(a.ByRCode, k, n)
		}
		for k, n := range b.ByCountry {
			bump(a.ByCountry, k, n)
		}
		for k, n := range b.ByRIR {
			bump(a.ByRIR, k, n)
		}
		if a.Responders != nil || b.Responders != nil {
			if a.Responders, err = mergeResponders(a.Responders, b.Responders); err != nil {
				return fmt.Errorf("churn: week %d retained set: %w", a.Week, err)
			}
		}
	}
	return nil
}

// mergeResponders merge-sorts two disjoint sorted responder sets.
func mergeResponders(a, b []scanner.Responder) ([]scanner.Responder, error) {
	out := make([]scanner.Responder, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Addr < b[j].Addr:
			out = append(out, a[i])
			i++
		case a[i].Addr > b[j].Addr:
			out = append(out, b[j])
			j++
		default:
			return nil, fmt.Errorf("churn: target %08x tracked by both shards", a[i].Addr)
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, nil
}

func copyMap[K comparable](m map[K]int) map[K]int {
	out := make(map[K]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
