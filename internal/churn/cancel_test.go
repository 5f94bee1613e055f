package churn

import (
	"context"
	"errors"
	"testing"
	"time"

	"goingwild/internal/metrics"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// cancelOnPTRClock is a scanner clock whose sleeps return at once. The
// first sleep taken after a single-probe query has gone out — in
// RunCohort, the settle wait of the first rDNS lookup — cancels the
// run's context, modeling a deadline landing mid-lookup.
type cancelOnPTRClock struct {
	probes *metrics.Counter
	cancel context.CancelFunc
}

func (c *cancelOnPTRClock) Now() time.Time { return time.Time{} }

func (c *cancelOnPTRClock) Sleep(time.Duration) {
	if c.probes.Value() > 0 {
		c.cancel()
	}
}

// TestCohortRDNSHonorsCancellation drives RunCohort over a cohort that
// has vanished by day 1, so every member goes to the rDNS loop, with a
// non-zero settle delay whose first rDNS sleep cancels ctx. The run
// must stop with ctx.Err() after at most one further probe, instead of
// resolving every churner on an uncancellable context.
func TestCohortRDNSHonorsCancellation(t *testing.T) {
	const order = 14
	w, err := wildnet.NewWorld(wildnet.DefaultConfig(order))
	if err != nil {
		t.Fatal(err)
	}
	tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	defer tr.Close()

	day1 := wildnet.Time{Week: 0, Day: 1}
	var cohort []uint32
	for u := uint32(64); u < 1<<order && len(cohort) < 40; u++ {
		if w.RDNS(u) != "" && !w.ResolverAt(u, day1) {
			cohort = append(cohort, u)
		}
	}
	if len(cohort) < 10 {
		t.Fatalf("only %d silent rDNS-carrying addresses found", len(cohort))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := metrics.New()
	probes := reg.Counter("scanner.probe.sent")
	sc := scanner.New(tr, scanner.Options{
		Retries:     1,
		SettleDelay: time.Millisecond,
		Clock:       &cancelOnPTRClock{probes: probes, cancel: cancel},
		Metrics:     reg,
	})
	_, err = RunCohort(ctx, sc, tr, cohort, 4, w.RoleAddr(wildnet.RoleTrustedDNS, 0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCohort error = %v, want context.Canceled", err)
	}
	switch n := probes.Value(); {
	case n == 0:
		t.Error("no rDNS lookup was sent; the cohort never reached the rDNS loop")
	case n > 2:
		t.Errorf("rDNS loop sent %d lookups; cancellation during the first allows at most one more", n)
	}
}
