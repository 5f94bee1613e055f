// Command dnsscan is the standalone scanning tool: Internet-wide sweeps,
// CHAOS fingerprinting, and domain-set scans over the virtual Internet —
// either through the in-memory transport or over real UDP sockets via the
// loopback gateway (-udp), which exercises the kernel network stack.
//
// Usage:
//
//	dnsscan -order 16 -mode sweep
//	dnsscan -order 16 -mode chaos -udp
//	dnsscan -order 16 -mode domains -category Banking
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"goingwild/internal/checkpoint"
	"goingwild/internal/churn"
	"goingwild/internal/debughttp"
	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/fingerprint"
	"goingwild/internal/metrics"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

func main() {
	var (
		order       = flag.Uint("order", 16, "address-space width in bits")
		seed        = flag.Uint64("seed", 0x60176A11D, "world seed")
		scanSeed    = flag.Uint("scanseed", 0x5EED, "LFSR seed for the target permutation")
		week        = flag.Int("week", 0, "study week")
		mode        = flag.String("mode", "sweep", "sweep | chaos | domains")
		epochs      = flag.Int("epochs", 0, "run N weekly epoch sweeps through the delta layer (per-epoch diffs on stderr; summary reflects the replayed final snapshot)")
		category    = flag.String("category", "Banking", "domain category for -mode domains")
		useUDP      = flag.Bool("udp", false, "drive the scan over real UDP sockets (loopback gateway)")
		rate        = flag.Int("rate", 0, "probe rate limit in packets/s (0 = unlimited)")
		chaos       = flag.String("chaos", "", "fault-injection profile (clean, lossy, hostile, flaky); empty injects nothing")
		ckptDir     = flag.String("checkpoint", "", "directory for crash-safe sweep checkpoints (in-memory transport only)")
		resume      = flag.Bool("resume", false, "resume the sweep from the newest checkpoint in -checkpoint")
		progress    = flag.Bool("progress", false, "print a periodic progress line to stderr (implies a metrics registry)")
		metricsPath = flag.String("metrics", "", "write a JSON metrics snapshot to this file at exit")
		debugAddr   = flag.String("debug-addr", "", "serve expvar/pprof/metrics over HTTP on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *resume && *ckptDir == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}
	if *ckptDir != "" && (*useUDP || *epochs > 0) {
		// The resumable sweep replays the in-memory world's deterministic
		// fault draws; real sockets and the epoch demo have no such replay.
		fatal(fmt.Errorf("-checkpoint supports only the in-memory transport without -epochs"))
	}

	// The checkpoint fingerprint covers every flag that shapes the sweep,
	// so a resume under different flags is refused.
	var runner *checkpoint.Runner
	var ctx context.Context
	if *ckptDir != "" {
		fingerprint := fmt.Sprintf("dnsscan order=%d seed=%#x scanseed=%#x week=%d chaos=%s", *order, *seed, *scanSeed, *week, *chaos)
		r, err := checkpoint.OpenRun(*ckptDir, *resume, fingerprint, os.Stdout, os.Stderr)
		if err != nil {
			fatal(err)
		}
		runner = r
		// Two-phase interrupts: first SIGINT checkpoints at the next
		// rendezvous and exits 3, the second cancels hard.
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		defer runner.InstallSignals(cancel)()
	} else {
		// SIGINT cancels the sweep within one send batch; the partial
		// tally still prints, so an interrupted scan reports what it saw.
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
	}

	wcfg := wildnet.DefaultConfig(*order)
	wcfg.Seed = *seed
	// Metrics are a pure side channel: the scan's stdout is
	// byte-identical with and without a registry attached. The scanner
	// always counts into reg, which the traffic line reads; the world's
	// fault counters join it when an observability flag asks for them.
	reg := metrics.New()
	if *metricsPath != "" || *debugAddr != "" || *progress {
		wcfg.Metrics = reg
	}
	if *chaos != "" {
		faults, err := wildnet.ChaosProfile(*chaos)
		if err != nil {
			fatal(err)
		}
		wcfg.Faults = faults
	}
	world, err := wildnet.NewWorld(wcfg)
	if err != nil {
		fatal(err)
	}

	var tr scanner.Transport
	var clock churn.Clock
	settle := scanner.NoSettle
	if *useUDP {
		gw, err := wildnet.StartGateway(world, wildnet.VantagePrimary)
		if err != nil {
			fatal(err)
		}
		defer gw.Close()
		gw.SetTime(wildnet.At(*week))
		udp, err := wildnet.DialGateway(gw.Addr())
		if err != nil {
			fatal(err)
		}
		tr = udp
		clock = gw
		settle = 200 * time.Millisecond
		if *rate == 0 {
			// Loopback sockets drop bursts beyond the buffer; pace
			// real-UDP scans by default.
			*rate = 30000
		}
		fmt.Printf("scanning over UDP via gateway %s\n", gw.Addr())
	} else {
		mem := wildnet.NewMemTransport(world, wildnet.VantagePrimary)
		mem.SetTime(wildnet.At(*week))
		tr = mem
		clock = mem
	}
	defer tr.Close()

	sweepRetries := 0
	if wcfg.Faults.Enabled() {
		// Ride over the injected loss the way the chaos harness does.
		sweepRetries = 2
	}
	sc := scanner.New(tr, scanner.Options{
		Retries: 1, SettleDelay: settle, RatePPS: *rate,
		SweepRetries: sweepRetries, Metrics: reg,
	})
	if *debugAddr != "" {
		addr, stopDebug, err := debughttp.Serve(*debugAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stopDebug(); err != nil {
				fmt.Fprintln(os.Stderr, "dnsscan: debug endpoint:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "dnsscan: debug endpoint on http://%s\n", addr)
	}
	if *metricsPath != "" {
		defer func() {
			if err := writeMetricsSnapshot(*metricsPath, reg); err != nil {
				fmt.Fprintln(os.Stderr, "dnsscan:", err)
			}
		}()
	}
	if *progress {
		// The periodic traffic line goes to stderr, clocked through the
		// scanner's Clock seam, so stdout stays byte-identical.
		stopProg := metrics.StartProgress(os.Stderr, scanner.SystemClock, 2*time.Second, reg, nil)
		defer stopProg()
	}
	start := time.Now()
	defer func() { fmt.Println(trafficLine(reg.Snapshot(), time.Since(start))) }()
	var sweep *scanner.SweepResult
	if *epochs > 0 {
		// Epoch-streaming mode: the weekly producer of the study's series
		// engine (churn.StreamWeekly) runs one sweep per epoch and hands
		// it over as a delta batch, which is replayed into a running
		// snapshot. Per-epoch lines go to stderr; the summary below
		// reflects the replayed final snapshot, which must equal the last
		// sweep exactly.
		var snapshot []scanner.Responder
		var probed uint64
		var records int
		err := churn.StreamWeekly(ctx, sc, clock, churn.StudyConfig{
			Order:     *order,
			Seed:      uint32(*scanSeed),
			Weeks:     *epochs,
			Blacklist: world.ScanBlacklist(),
		}, func(_ context.Context, d churn.EpochDelta) error {
			var err error
			if snapshot, err = scanner.ApplyResponderDeltas(snapshot, d.Deltas); err != nil {
				return err
			}
			probed = d.Probed
			records += len(d.Deltas)
			fmt.Fprintf(os.Stderr, "dnsscan: epoch %d: %d delta records, %d responders\n",
				d.Week, len(d.Deltas), len(snapshot))
			return nil
		})
		if err != nil {
			fatal(err)
		}
		sweep = scanner.SnapshotSweep(probed, snapshot)
		elapsed := time.Since(start)
		fmt.Printf("epochs: %d sweeps, %d delta records in %v (%.0f records/s)\n",
			*epochs, records, elapsed.Round(time.Millisecond), float64(records)/elapsed.Seconds())
	} else if runner != nil {
		// Crash-safe sweep: progress lands in the checkpoint directory at
		// every rendezvous; a killed run resumes mid-sweep and reproduces
		// the uninterrupted responder set exactly.
		rc := &scanner.ResumeControl{
			Save: func(ck *scanner.SweepCheckpoint) error {
				if err := runner.Update("sweep", ck); err != nil {
					return err
				}
				return runner.CheckStop()
			},
		}
		var prev scanner.SweepCheckpoint
		if ok, err := runner.Fetch("sweep", &prev); err != nil {
			fatal(err)
		} else if ok {
			rc.Prev = &prev
		}
		var err error
		sweep, err = sc.SweepResumeContext(ctx, *order, uint32(*scanSeed), world.ScanBlacklist(), rc)
		if err != nil {
			fatal(err)
		}
	} else {
		var err error
		sweep, err = sc.SweepContext(ctx, *order, uint32(*scanSeed), world.ScanBlacklist())
		if err != nil {
			fatal(err)
		}
	}
	elapsed := time.Since(start)
	pps := float64(sweep.Probed) / elapsed.Seconds()
	fmt.Printf("sweep: %d targets in %v (%.0f probes/s), %d responders\n",
		sweep.Probed, elapsed.Round(time.Millisecond), pps, sweep.Total())
	for _, rc := range []dnswire.RCode{dnswire.RCodeNoError, dnswire.RCodeRefused, dnswire.RCodeServFail} {
		fmt.Printf("  %-9s %d\n", rc, sweep.ByRCode[rc])
	}
	fmt.Printf("  mis-sourced responses: %d\n", sweep.MisSourcedCount())

	switch *mode {
	case "sweep":
	case "chaos":
		resolvers := sweep.NOERROR()
		res, err := sc.ScanChaosContext(ctx, resolvers)
		if err != nil {
			fatal(err)
		}
		survey := fingerprint.SurveyChaos(res)
		fmt.Printf("chaos: %d/%d responded; versioned %.1f%%\n",
			survey.Responded, len(resolvers), 100*survey.VersionedShare())
	case "domains":
		var names []string
		for _, d := range domains.ByCategory(domains.Category(*category)) {
			names = append(names, d.Name)
		}
		if len(names) == 0 {
			fatal(fmt.Errorf("unknown category %q", *category))
		}
		names = append(names, domains.GroundTruth)
		resolvers := sweep.NOERROR()
		res, err := sc.ScanDomainsContext(ctx, resolvers, names)
		if err != nil {
			fatal(err)
		}
		for ni, name := range res.Names {
			answered, withAddrs := 0, 0
			for ri := range resolvers {
				a := &res.Answers[ni][ri]
				if a.Answered() {
					answered++
				}
				if len(a.Addrs) > 0 {
					withAddrs++
				}
			}
			fmt.Printf("  %-38s answered %5d  with-addresses %5d\n", name, answered, withAddrs)
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

func fatal(err error) {
	if errors.Is(err, checkpoint.ErrStopped) {
		fmt.Fprintln(os.Stderr, "dnsscan: checkpoint saved; resume with -resume")
		os.Exit(3)
	}
	fmt.Fprintln(os.Stderr, "dnsscan:", err)
	os.Exit(1)
}

// writeMetricsSnapshot writes the registry's final snapshot as JSON.
func writeMetricsSnapshot(path string, reg *metrics.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// trafficLine renders the sweep's probe and response counts and its
// average send rate over elapsed.
func trafficLine(snap metrics.Snapshot, elapsed time.Duration) string {
	sent, recv := snap.Counter("scanner.sweep.sent"), snap.Counter("scanner.sweep.recv")
	ratio, rate := 0.0, 0.0
	if sent > 0 {
		ratio = float64(recv) / float64(sent)
	}
	if elapsed > 0 {
		rate = float64(sent) / elapsed.Seconds()
	}
	return fmt.Sprintf("traffic: sent=%d recv=%d (%.1f%%) rate=%.0f pps", sent, recv, 100*ratio, rate)
}
