package core

import (
	"context"
	"fmt"
	"sync"

	"goingwild/internal/churn"
	"goingwild/internal/pipeline"
	"goingwild/internal/scanner"
)

// epochQueueDepth bounds the delta queue between the sweep producer and
// the apply stage: the producer can run at most this many weekly scans
// ahead of the consumer before Put blocks. Small on purpose — the seam
// exists for backpressure, not buffering.
const epochQueueDepth = 2

// EpochView is the live per-epoch slice handed to the streaming
// callback after each week's deltas are applied: the week's full
// observation (for incremental Figure-1/Table-1 rendering), the delta
// batch that produced it, and the consumer's lag behind the producer at
// dequeue time.
type EpochView struct {
	Obs   *churn.WeekObservation
	Delta churn.EpochDelta
	Lag   int
}

// RunWeeklySeriesStreamContext performs the §2.2 longitudinal scans
// (Figure 1 and, via the retained first and last weeks, Tables 1–2) as
// an epoch stream; see runSeries. live, when non-nil, is called after
// each epoch is applied.
func (s *Study) RunWeeklySeriesStreamContext(ctx context.Context, live func(EpochView)) (*churn.Series, error) {
	return s.runSeries(ctx, nil, live)
}

// RunWeeklySeriesResumeContext is RunWeeklySeriesStreamContext with its
// progress threaded through store, so the run can be killed at any
// instant and resumed to the exact same Series; see runSeries. A nil
// store is the plain stream — but pass a nil interface, not a typed nil
// pointer, which does not compare equal to nil.
func (s *Study) RunWeeklySeriesResumeContext(ctx context.Context, store SeriesStore, live func(EpochView)) (*churn.Series, error) {
	return s.runSeries(ctx, store, live)
}

// runSeries is the study's one weekly-series engine. A producer
// goroutine runs the weekly sweeps (churn.StreamWeekly) and feeds
// per-week delta batches through a bounded queue; the "epoch-apply"
// stage consumes one batch per epoch into a mergeable churn.Tracker;
// the "series-final" finalizer joins the producer and freezes the
// series. The result equals what the batch reference churn.RunWeekly
// builds, map for map.
//
// live, when non-nil, is called after each epoch is applied, on the
// consumer side of the queue; like the pipeline observer it is a side
// channel and must not be used to feed results back in. Per-epoch lag
// and delta-size metrics land in Cfg.Metrics (pipeline.epoch.lag is
// Timing class; pipeline.delta.size and pipeline.epoch.done are
// deterministic).
//
// With a store, progress is recorded at two granularities. Mid-sweep,
// the scanner's rendezvous checkpoints land in sweepDocName (tagged
// with the week); after each epoch's deltas are applied, the
// EpochCommit hook persists the cursor and the tracker's frozen state
// in seriesDocName. On entry the store is consulted (resumeSeries), and
// once every week is applied the sweep document is dropped.
func (s *Study) runSeries(ctx context.Context, store SeriesStore, live func(EpochView)) (*churn.Series, error) {
	scfg := churn.StudyConfig{
		Order:     s.Cfg.Order,
		Seed:      s.Cfg.ScanSeed,
		Weeks:     s.Cfg.Weeks,
		Blacklist: s.World.ScanBlacklist(),
	}
	var tracker *churn.Tracker
	if store != nil {
		var err error
		if tracker, err = s.resumeSeries(store, &scfg); err != nil {
			return nil, err
		}
	} else {
		tracker = churn.NewTracker(s.locator(), []int{0, s.Cfg.Weeks - 1})
	}
	em := pipeline.NewEpochMetrics(s.Cfg.Metrics)
	q := pipeline.NewQueue[churn.EpochDelta](epochQueueDepth)

	// The producer owns the queue: it alone calls Put and closes it when
	// the stream ends (normally or not). Its context is cancelled when
	// this function returns, so an abort on the consumer side — a failed
	// apply, a dead caller context — can never strand it blocked on Put.
	prodCtx, cancelProd := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancelProd()
	var prodErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer q.Close()
		prodErr = churn.StreamWeekly(prodCtx, s.Scanner, s.Transport, scfg, func(ctx context.Context, d churn.EpochDelta) error {
			return q.Put(ctx, d)
		})
	}()

	eng := s.engine()
	eng.MustAdd(pipeline.Stage{
		Name: "epoch-apply",
		RunEpoch: func(ctx context.Context, epoch int) ([]pipeline.Count, error) {
			d, ok, err := q.Get(ctx)
			if err != nil {
				return nil, err
			}
			if !ok {
				// The queue's close happens-after the producer's error
				// write, so prodErr is settled here.
				if prodErr != nil {
					return nil, prodErr
				}
				return nil, fmt.Errorf("core: epoch stream ended before epoch %d", epoch)
			}
			lag := q.Len()
			em.Lag.Set(int64(lag))
			em.DeltaSize.Observe(int64(len(d.Deltas)))
			obs, err := tracker.Apply(d)
			if err != nil {
				return nil, err
			}
			em.Epochs.Inc()
			if live != nil {
				live(EpochView{Obs: obs, Delta: d, Lag: lag})
			}
			return []pipeline.Count{
				{Name: "epoch deltas", Value: len(d.Deltas)},
				{Name: "week responders", Value: obs.Total},
			}, nil
		},
	})
	eng.MustAdd(pipeline.Stage{
		Name:  "series-final",
		Needs: []string{"epoch-apply"},
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			// Every epoch is applied; the producer has nothing left to
			// send, so the join is immediate.
			wg.Wait()
			if prodErr != nil {
				return nil, prodErr
			}
			if store != nil {
				// The producer is done, so no in-flight sweep save can
				// race this removal; it reaches disk with the caller's
				// next generation (typically the owning section's
				// completion).
				store.Drop(sweepDocName)
			}
			series := tracker.Series()
			counts := []pipeline.Count{{Name: "weeks scanned", Value: len(series.Weeks)}}
			if len(series.Weeks) > 0 {
				counts = append(counts, pipeline.Count{Name: "final-week responders", Value: series.Last().Total})
			}
			return counts, nil
		},
	})
	if store != nil {
		// Commit the cursor after each applied epoch: everything up to
		// and including this week is now derivable from the store alone.
		// The stop check runs after the save, so a first-interrupt run
		// exits with exactly this state on disk.
		eng.EpochCommit = func(ctx context.Context, epoch int) error {
			if err := store.Update(seriesDocName, SeriesCheckpoint{Cursor: epoch + 1, Tracker: tracker.State()}); err != nil {
				return err
			}
			return store.CheckStop()
		}
	}
	trace, err := eng.RunEpochsFrom(ctx, scfg.StartWeek, s.Cfg.Weeks)
	s.noteDegraded(trace)
	if err != nil {
		return nil, err
	}
	return tracker.Series(), nil
}

// resumeSeries restores a series run from store and points scfg at the
// restored state. A committed cursor skips the finished weeks entirely:
// the returned tracker resumes from its frozen aggregates, and the
// stream re-enters at the cursor, diffing against the restored
// snapshot. Every week's sweep goes through the resumable sweep, whose
// rendezvous checkpoints reach the store mid-week; a sweep document for
// the in-flight week resumes that sweep from its last rendezvous. A
// sweep document for an already-committed week — a crash landed between
// the epoch commit and the next generation — is simply ignored:
// replaying a week's sweep from scratch is deterministic, so dropped
// progress costs time, never bytes.
func (s *Study) resumeSeries(store SeriesStore, scfg *churn.StudyConfig) (*churn.Tracker, error) {
	var ck SeriesCheckpoint
	resumed, err := store.Fetch(seriesDocName, &ck)
	if err != nil {
		return nil, err
	}
	var tracker *churn.Tracker
	if resumed {
		if ck.Cursor < 0 || ck.Cursor > s.Cfg.Weeks {
			return nil, fmt.Errorf("core: series checkpoint cursor %d out of range for %d weeks", ck.Cursor, s.Cfg.Weeks)
		}
		tracker = churn.ResumeTracker(s.locator(), ck.Tracker)
	} else {
		tracker = churn.NewTracker(s.locator(), []int{0, s.Cfg.Weeks - 1})
	}
	cursor := ck.Cursor

	var ws weekSweepState
	var prevSweep *scanner.SweepCheckpoint
	if ok, err := store.Fetch(sweepDocName, &ws); err != nil {
		return nil, err
	} else if ok && ws.Week == cursor {
		prevSweep = &ws.Ck
	}

	scfg.StartWeek = cursor
	scfg.Prev = tracker.Snapshot()
	scfg.Sweep = func(ctx context.Context, week int) (*scanner.SweepResult, error) {
		rc := &scanner.ResumeControl{
			Save: func(sck *scanner.SweepCheckpoint) error {
				if err := store.Update(sweepDocName, weekSweepState{Week: week, Ck: *sck}); err != nil {
					return err
				}
				return store.CheckStop()
			},
		}
		if week == cursor {
			rc.Prev = prevSweep
		}
		return s.Scanner.SweepResumeContext(ctx, s.Cfg.Order, s.Cfg.ScanSeed+uint32(week), s.World.ScanBlacklist(), rc)
	}
	return tracker, nil
}
