package scanner

import (
	"context"
	"sync"

	"goingwild/internal/lfsr"
	"goingwild/internal/wildnet"
)

// Resumable sweeps. SweepResumeContext runs the sweep engine with its
// checkpoint hook set: the engine periodically quiesces its shard
// workers at a rendezvous barrier and hands a consistent
// SweepCheckpoint to the caller's Save hook. A process
// killed at any instant can restart from the last saved checkpoint and
// produce the identical SweepResult an uninterrupted run produces:
//
//   - Shard workers own disjoint slices of the target permutation, and
//     every probe payload is a pure function of (target, round), so
//     replaying a shard from its saved generator position re-sends
//     exactly the probes the dead run had not yet sent.
//   - The world model's packet fates are pure per-packet draws — the
//     only mutable transport state is the retransmission counter, which
//     the checkpoint carries — so a replayed send observes the same
//     fate it would have in the uninterrupted run.
//   - The collector snapshot is taken only while every sender is parked
//     at the barrier, so it can never contain a response to a probe
//     beyond some shard's saved generator position. That matters in
//     retry rounds: the miss filter consults the collector, and a
//     "future" entry would suppress a retransmission the uninterrupted
//     run made.

// ShardProgress is one shard worker's position inside the current
// sweep round.
type ShardProgress struct {
	// Gen marks how far the shard's target generator has advanced;
	// every target before this position has been fully sent.
	Gen lfsr.GeneratorState `json:"gen"`
	// Sent counts the probes this shard has sent in the round; only
	// round 0's count toward Probed (retry traffic is not coverage).
	Sent uint64 `json:"sent"`
}

// SweepCheckpoint is a consistent cut of an in-flight sweep.
type SweepCheckpoint struct {
	Order  uint   `json:"order"`
	Seed   uint32 `json:"seed"`
	Shards int    `json:"shards"`
	// Round is the round in progress: 0 is the census, 1..SweepRetries
	// are retransmission rounds. When Workers is nil the round has not
	// started (the checkpoint sits on a round boundary).
	Round   int             `json:"round"`
	Workers []ShardProgress `json:"workers,omitempty"`
	// Budgets is each shard's remaining retransmission allowance; nil
	// when the scan runs with an unlimited budget.
	Budgets []int `json:"budgets,omitempty"`
	// Probed is the census probe count so far (final once Round > 0).
	Probed uint64 `json:"probed"`
	// Responders is the sorted collector content at the cut.
	Responders []Responder `json:"responders,omitempty"`
	// Attempts carries the fault layer's retransmission counters for
	// payloads transmitted more than once at the current simulated
	// instant. Sweep payloads are unique per (target, round) — the
	// anti-caching prefix is round-salted — so this is empty today; it
	// is captured so any future same-payload retransmission within a
	// checkpoint window redraws its fate correctly after a resume.
	Attempts []wildnet.AttemptRecord `json:"attempts,omitempty"`
	// Done marks a finished sweep: the checkpoint holds the complete
	// result and a resume returns it without sending anything.
	Done bool `json:"done"`
}

// ResumeControl wires a resumable sweep to its checkpoint store.
type ResumeControl struct {
	// Prev is the checkpoint to resume from; nil starts fresh.
	Prev *SweepCheckpoint
	// Save persists one checkpoint. It runs with every shard worker
	// quiesced and must not retain the pointer after returning. An
	// error (e.g. checkpoint.ErrStopped from a signal-triggered stop
	// after a successful save) unwinds the sweep.
	Save func(*SweepCheckpoint) error
	// EveryBatches is how many send batches each worker dispatches
	// between rendezvous points (default 16; one batch is up to
	// streamBatch probes).
	EveryBatches int
}

// attemptsCarrier is implemented by transports whose fault layer keeps
// retransmission counters (wildnet.MemTransport).
type attemptsCarrier interface {
	AttemptsState() []wildnet.AttemptRecord
	RestoreAttempts([]wildnet.AttemptRecord)
}

// rendezvous is the quiesce barrier checkpoint snapshots require. Every
// worker calls pause after each batch; when a snapshot is due, workers
// park until the last arrival runs snap() — at that instant every
// registered worker has published its position (the mutex orders its
// writes before the snapshot's reads) and nothing is in flight. Errors
// from snap (including the deliberate stop signal) are sticky and
// unwind every worker.
type rendezvous struct {
	mu     sync.Mutex
	cond   *sync.Cond
	active int
	parked int
	gen    uint64
	due    bool
	snap   func() error
	err    error
}

func newRendezvous(workers int, snap func() error) *rendezvous {
	r := &rendezvous{active: workers, snap: snap}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// fire runs the pending snapshot and releases parked workers. Caller
// holds mu; every active worker is parked (or this is the last one).
func (r *rendezvous) fire() {
	if r.err == nil {
		if err := r.snap(); err != nil {
			r.err = err
		}
	}
	r.due = false
	r.parked = 0
	r.gen++
	r.cond.Broadcast()
}

// pause parks the worker when a snapshot is due (or this worker
// requests one) until it is taken.
func (r *rendezvous) pause(request bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if request {
		r.due = true
	}
	if r.err != nil {
		return r.err
	}
	if !r.due {
		return nil
	}
	r.parked++
	if r.parked == r.active {
		r.fire()
	} else {
		for g := r.gen; r.gen == g; {
			r.cond.Wait()
		}
	}
	return r.err
}

// finish deregisters a worker whose round is over. If the remaining
// workers are all parked on a due snapshot, the departing worker takes
// it for them.
func (r *rendezvous) finish() {
	r.mu.Lock()
	r.active--
	if r.due && r.parked == r.active {
		r.fire()
	}
	r.mu.Unlock()
}

// SweepResumeContext is SweepContext with crash-safe checkpoints. With
// rc nil (or rc.Save nil) it is exactly SweepContext; otherwise the
// engine periodically saves a consistent SweepCheckpoint through rc.Save
// and, when rc.Prev is set, resumes from it instead of starting over.
// The final SweepResult is identical to an uninterrupted SweepContext
// run with the same options: both are the same engine, and the
// checkpoint hook only parks workers, never changes what they send.
func (s *Scanner) SweepResumeContext(ctx context.Context, order uint, seed uint32, bl *lfsr.Blacklist, rc *ResumeControl) (*SweepResult, error) {
	if rc == nil || rc.Save == nil {
		return s.SweepContext(ctx, order, seed, bl)
	}
	m := s.opts.Shards
	return s.sweep(ctx, sweepPlan{order: order, seed: seed, bl: bl, n: m, of: m, rc: rc})
}

// snapshotAttempts captures the transport's retransmission counters,
// keeping only entries a resume could ever consult: payloads already
// transmitted at least twice at this simulated instant, whose next
// retransmission must observe the right attempt number. Single-shot
// payloads (every sweep probe — targets are probed once per round, and
// rounds salt the payload) are reproduced by the replay itself.
func (s *Scanner) snapshotAttempts() []wildnet.AttemptRecord {
	tc, ok := s.tr.(attemptsCarrier)
	if !ok {
		return nil
	}
	recs := tc.AttemptsState()
	out := recs[:0]
	for _, r := range recs {
		if r.N >= 2 {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
