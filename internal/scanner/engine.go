package scanner

import (
	"context"
	"fmt"
	"sync"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/lfsr"
	"goingwild/internal/wildnet"
)

// The sweep engine. SweepContext, SweepShardContext and
// SweepResumeContext are thin entries into one loop:
//
//	for round := 0 .. SweepRetries:
//	    every shard worker drains its private leapfrog generator through
//	    the pooled probe arena into SendBatch (retry rounds keep only
//	    still-silent targets and spend the shard's budget share)
//	    join the workers, settle once
//
// Shard i of M owns every M-th slot of the target permutation
// (lfsr.ShardedGenerator), so shard workers never share a generator,
// and all of them insert into the one striped collector; disjoint
// target sets keep first-response-wins per target intact. Every probe is
// a pure function of (target, round), bit-identical whatever M is, so
// the modeled per-packet loss draws — and the responder set — cannot
// depend on M. The one divergence is a bound RetryBudget, which splits
// per shard (shardBudget); an unlimited budget is exactly equivalent.
// M=1 runs its worker on the calling goroutine.
//
// The checkpoint rendezvous is an optional hook: nil (one nil check per
// batch) unless a ResumeControl with Save is passed, in which case every
// worker parks at the barrier after each EveryBatches batches so a
// consistent SweepCheckpoint can be taken (see resume.go).

// sweepPlan names one engine run: the permutation, the n shards
// first..first+n-1 of its of-way leapfrog split that this call owns,
// and the optional checkpoint hook.
type sweepPlan struct {
	order    uint
	seed     uint32
	bl       *lfsr.Blacklist
	first, n int
	of       int
	rc       *ResumeControl
}

// shardWorker is one sender of the engine. Its fields are written only
// by its own goroutine during a round; the checkpoint snapshot reads
// them while every worker is parked at the rendezvous, and the engine
// after the round's join.
type shardWorker struct {
	idx    int // shard index within the plan's of-way split
	gen    *lfsr.TargetGenerator
	sent   uint64 // probes sent in the current round
	census uint64 // probes sent in round 0
	budget int    // remaining retransmissions (budgeted runs only)
	err    error
}

// sweepEngine is the state of one engine run.
type sweepEngine struct {
	s        *Scanner
	plan     sweepPlan
	st       *sweepCollector
	bs       wildnet.BatchSender
	baseWire []byte
	workers  []shardWorker
	budgeted bool
	round    int
	census   uint64 // census probe count; final once round 0 is done
	rz       *rendezvous
	every    int
}

// sendLoop adapts a transport without wildnet.BatchSender to the
// engine's one dispatch call by sending the batch probe by probe.
type sendLoop struct{ Transport }

func (t sendLoop) SendBatch(ctx context.Context, batch []wildnet.Probe) (int, error) {
	for i := range batch {
		p := &batch[i]
		//lint:allow errdrop sweep send failures are modeled packet loss
		t.Send(ctx, p.Dst, p.DstPort, p.SrcPort, p.Payload)
	}
	return len(batch), nil
}

// sweep runs the engine over plan and returns the sorted result. A
// failed or cancelled run returns its error together with a consistent
// partial result: every response collected before the abort is present,
// sorted, and counted.
func (s *Scanner) sweep(ctx context.Context, plan sweepPlan) (*SweepResult, error) {
	if s.tr == nil {
		return nil, ErrNoTransport
	}
	var prev *SweepCheckpoint
	if plan.rc != nil {
		prev = plan.rc.Prev
		if err := s.checkResumable(plan, prev); err != nil {
			return nil, err
		}
	}
	st := newSweepCollector(domains.ScanBase, int(uint64(1)<<plan.order/64/uint64(plan.of))*plan.n)
	st.recv = s.m.sweepRecv
	s.tr.SetReceiver(st.receive)
	baseWire, err := dnswire.EncodeNameWire(st.base)
	if err != nil {
		return nil, err
	}
	if plan.bl != nil {
		// Shard workers read the blacklist concurrently; the lazy
		// sort-and-merge must happen before they start.
		plan.bl.Freeze()
	}
	e := &sweepEngine{
		s:        s,
		plan:     plan,
		st:       st,
		baseWire: baseWire,
		workers:  make([]shardWorker, plan.n),
		budgeted: s.opts.RetryBudget > 0,
		every:    16,
	}
	if bs, ok := s.tr.(wildnet.BatchSender); ok {
		e.bs = bs
	} else {
		e.bs = sendLoop{s.tr}
	}
	if plan.rc != nil && plan.rc.EveryBatches > 0 {
		e.every = plan.rc.EveryBatches
	}
	for k := range e.workers {
		w := &e.workers[k]
		w.idx = plan.first + k
		w.budget = shardBudget(s.opts.RetryBudget, w.idx, plan.of)
	}
	err = e.run(ctx, prev)
	if plan.n > 1 && plan.rc == nil {
		sents := make([]uint64, plan.n)
		for k := range e.workers {
			sents[k] = e.workers[k].census
		}
		s.publishShardGauges(plan.order, plan.seed, plan.bl, st, plan.n, sents)
	}
	return s.collectSweep(st, e.census), err
}

// checkResumable refuses a checkpoint from a different sweep.
func (s *Scanner) checkResumable(plan sweepPlan, prev *SweepCheckpoint) error {
	if prev == nil {
		return nil
	}
	if prev.Order != plan.order || prev.Seed != plan.seed || prev.Shards != plan.of {
		return fmt.Errorf("scanner: checkpoint is a %d-shard order-%d seed-%d sweep; this run is %d-shard order-%d seed-%d",
			prev.Shards, prev.Order, prev.Seed, plan.of, plan.order, plan.seed)
	}
	if !prev.Done && prev.Round > s.opts.SweepRetries {
		return fmt.Errorf("scanner: checkpoint round %d exceeds this run's %d retry rounds", prev.Round, s.opts.SweepRetries)
	}
	return nil
}

// run drives the rounds, starting from prev when resuming. The
// StageDeadline guard starts once the census has settled, so it bounds
// the retry phase only, as in every other scan.
func (e *sweepEngine) run(ctx context.Context, prev *SweepCheckpoint) error {
	s := e.s
	if prev != nil {
		for _, r := range prev.Responders {
			e.st.responses.InsertOnce(r.Addr, r)
		}
		if tc, ok := s.tr.(attemptsCarrier); ok {
			tc.RestoreAttempts(prev.Attempts)
		}
		e.census = prev.Probed
		if prev.Done {
			return nil
		}
		e.round = prev.Round
		if e.budgeted && len(prev.Budgets) == len(e.workers) {
			for k := range e.workers {
				e.workers[k].budget = prev.Budgets[k]
			}
		}
	}
	var guard deadlineGuard
	if e.round > 0 {
		guard = s.newDeadlineGuard()
	}
	for ; ; e.round++ {
		if e.round > 0 {
			if err := s.backoffWait(ctx, e.round); err != nil {
				return err
			}
			s.m.retryRounds.Inc()
		}
		if err := e.sendRound(ctx, prev); err != nil {
			return err
		}
		prev = nil
		if err := s.settle(ctx); err != nil {
			return err
		}
		if e.round == 0 {
			guard = s.newDeadlineGuard()
		}
		done := e.round >= s.opts.SweepRetries || guard.expired() || e.budgetSpent()
		if e.plan.rc != nil {
			// Round boundary: force a checkpoint so a crash during the
			// next round's backoff (or after the last round) resumes
			// cleanly.
			ck := e.checkpoint(e.round + 1)
			ck.Done = done
			if err := e.plan.rc.Save(ck); err != nil {
				return err
			}
		}
		if done {
			return ctx.Err()
		}
	}
}

// budgetSpent reports whether a bound retransmission budget is gone on
// every shard, which ends the retry phase.
func (e *sweepEngine) budgetSpent() bool {
	if !e.budgeted {
		return false
	}
	for k := range e.workers {
		if e.workers[k].budget > 0 {
			return false
		}
	}
	return true
}

// sendRound runs one round: fresh (or, when prev cuts this round,
// restored) generators, one drain per worker, then the join.
func (e *sweepEngine) sendRound(ctx context.Context, prev *SweepCheckpoint) error {
	p := e.plan
	resumed := prev != nil && prev.Round == e.round && len(prev.Workers) == len(e.workers)
	for k := range e.workers {
		w := &e.workers[k]
		var err error
		if resumed {
			w.gen, err = lfsr.Resume(prev.Workers[k].Gen, p.bl)
			w.sent = prev.Workers[k].Sent
		} else {
			w.gen, err = lfsr.ShardedGenerator(p.order, p.seed, p.bl, w.idx, p.of)
			w.sent = 0
		}
		if err != nil {
			return err
		}
		w.err = nil
	}
	if p.rc != nil {
		e.rz = newRendezvous(len(e.workers), e.saveMidRound)
	}
	build := templateBuild(e.baseWire, e.round)
	if len(e.workers) == 1 {
		e.drain(ctx, &e.workers[0], build)
	} else {
		var wg sync.WaitGroup
		for k := range e.workers {
			wg.Add(1)
			go func(w *shardWorker) {
				defer wg.Done()
				e.drain(ctx, w, build)
			}(&e.workers[k])
		}
		wg.Wait()
	}
	if e.round == 0 {
		e.census = 0
		for k := range e.workers {
			w := &e.workers[k]
			w.census = w.sent
			e.census += w.sent
		}
	}
	for k := range e.workers {
		if err := e.workers[k].err; err != nil {
			return err
		}
	}
	return nil
}

// drain is one worker's round: pull a target batch, assemble the
// accepted targets' probes, dispatch them in one SendBatch, and repeat
// until the generator (or the shard's retry budget) runs out.
// Cancellation is polled once per batch, and skipped entirely for
// non-cancellable contexts.
func (e *sweepEngine) drain(ctx context.Context, w *shardWorker, build func(u uint32, buf []byte) []byte) {
	s := e.s
	if e.rz != nil {
		defer e.rz.finish()
	}
	cancellable := ctx.Done() != nil
	bat := probeBatchPool.Get().(*probeBatch)
	defer probeBatchPool.Put(bat)
	var targets [streamBatch]uint32
	for batches := 1; ; batches++ {
		if cancellable && ctx.Err() != nil {
			w.err = ctx.Err()
			return
		}
		n := w.gen.NextBatch(targets[:])
		if n == 0 {
			return
		}
		more := e.fill(ctx, w, bat, targets[:n], build)
		if bat.n > 0 {
			probes := bat.finish(s.opts.BasePort)
			w.sent += uint64(len(probes))
			s.m.sweepSent.Add(uint64(len(probes)))
			if e.round > 0 {
				s.m.retrySpend.Add(uint64(len(probes)))
			}
			s.m.batchSize.Observe(int64(len(probes)))
			// Send failures are modeled packet loss.
			e.bs.SendBatch(ctx, probes)
		}
		if e.rz != nil {
			if err := e.rz.pause(batches%e.every == 0); err != nil {
				w.err = err
				return
			}
		}
		if !more {
			return
		}
	}
}

// fill assembles one pulled target batch into bat: every target in the
// census round; in retry rounds only still-silent targets, while the
// worker's budget share lasts. It reports false once the budget is
// spent, which ends the worker's round.
//
//lint:hotpath per-probe sweep dispatch
func (e *sweepEngine) fill(ctx context.Context, w *shardWorker, bat *probeBatch, targets []uint32,
	build func(u uint32, buf []byte) []byte) bool {
	bat.reset()
	retry := e.round > 0
	limited := e.s.rate.interval != 0
	for _, u := range targets {
		if retry {
			if _, answered := e.st.responses.Get(u); answered {
				continue
			}
			if e.budgeted {
				if w.budget <= 0 {
					return false
				}
				w.budget--
			}
		}
		if limited {
			e.s.rate.wait(ctx)
		}
		bat.add(u, build)
	}
	return true
}

// checkpoint captures the engine's round-independent state; the caller
// adds the per-worker positions or the Done mark.
func (e *sweepEngine) checkpoint(round int) *SweepCheckpoint {
	ck := &SweepCheckpoint{
		Order:      e.plan.order,
		Seed:       e.plan.seed,
		Shards:     e.plan.of,
		Round:      round,
		Probed:     e.census,
		Responders: sortedResponders(e.st),
		Attempts:   e.s.snapshotAttempts(),
	}
	if e.budgeted {
		ck.Budgets = make([]int, len(e.workers))
		for k := range e.workers {
			ck.Budgets[k] = e.workers[k].budget
		}
	}
	return ck
}

// saveMidRound is the rendezvous snapshot: it runs while every worker
// is parked (or finished), so each worker's generator position marks
// exactly the targets it has fully sent.
func (e *sweepEngine) saveMidRound() error {
	ck := e.checkpoint(e.round)
	ck.Workers = make([]ShardProgress, len(e.workers))
	var sent uint64
	for k := range e.workers {
		w := &e.workers[k]
		ck.Workers[k] = ShardProgress{Gen: w.gen.State(), Sent: w.sent}
		sent += w.sent
	}
	if e.round == 0 {
		ck.Probed = sent
	}
	return e.plan.rc.Save(ck)
}
