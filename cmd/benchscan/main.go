// Command benchscan measures the two measurement hot paths — the sweep
// engine and hierarchical clustering — and writes the results as JSON
// (BENCH_scan.json by default). The committed copy of that file is the
// performance baseline; `make bench` regenerates it and CI runs the
// -quick variant as a smoke test so the harness itself cannot rot.
//
// The JSON layout is fixed (struct-ordered keys, no timestamps or host
// details), so two runs differ only in the measured numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"goingwild/internal/cluster"
	"goingwild/internal/core"
	"goingwild/internal/scanner"
)

type sweepBench struct {
	Order       uint    `json:"order"`
	Probes      uint64  `json:"probes"`
	NsPerOp     int64   `json:"ns_per_op"`
	ProbesPerS  float64 `json:"probes_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type clusterBench struct {
	N          int     `json:"n"`
	NsPerOp    int64   `json:"ns_per_op"`
	ItemsPerS  float64 `json:"items_per_sec"`
	MergeCount int     `json:"merges"`
}

// shardRow is one line of the shard-scaling table: the sweep run as M
// leapfrog shard workers. Efficiency is throughput(M) / (M *
// throughput(1)) — the classic parallel-efficiency ratio, which on a
// single-core runner decays as ~1/M by construction.
type shardRow struct {
	Shards     int     `json:"shards"`
	NsPerOp    int64   `json:"ns_per_op"`
	ProbesPerS float64 `json:"probes_per_sec"`
	Efficiency float64 `json:"parallel_efficiency"`
}

// dispatchBench compares probe dispatch modes: "batched" uses the
// transport's SendBatch (sendmmsg-style bulk handoff), "single" hides
// the BatchSender interface and falls back to one Send per probe.
type dispatchBench struct {
	Mode       string  `json:"mode"`
	NsPerOp    int64   `json:"ns_per_op"`
	ProbesPerS float64 `json:"probes_per_sec"`
}

// epochBench measures the streaming weekly series end to end: weekly
// sweeps expressed as delta batches, pushed through the bounded queue
// and applied by the epoch engine. Throughput is delta records per
// second across the whole stream (produce + diff + apply).
type epochBench struct {
	Weeks        int     `json:"weeks"`
	DeltaRecords int     `json:"delta_records"`
	NsPerOp      int64   `json:"ns_per_op"`
	RecordsPerS  float64 `json:"delta_records_per_sec"`
}

type report struct {
	Sweep sweepBench `json:"sweep"`
	// SweepShards is the M=1,2,4,8 scaling table; BestShards is the row
	// with the highest throughput (the number the perf target is judged
	// at).
	SweepShards   []shardRow      `json:"sweep_shards"`
	BestShards    int             `json:"best_shards"`
	SweepDispatch []dispatchBench `json:"sweep_dispatch"`
	EpochStream   epochBench      `json:"epoch_stream"`
	Cluster       []clusterBench  `json:"cluster"`
	// ClusterScalingRatio is time(2n)/time(n) for the two cluster sizes:
	// ~4 for the O(n²) chain, ~6-8 for the old O(n³) scan at these sizes.
	ClusterScalingRatio float64 `json:"cluster_scaling_ratio"`
}

// synthDist is a deterministic, hash-flavored distance in (0, 1] so the
// clustering benchmark sees realistic unequal distances rather than a
// handful of tied values.
func synthDist(i, j int) float64 {
	h := uint64(i*2654435761) ^ uint64(j)*0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return float64(h%1000000+1) / 1000000
}

func benchSweep(order uint) (sweepBench, error) {
	s, err := core.NewStudy(core.DefaultConfig(order))
	if err != nil {
		return sweepBench{}, err
	}
	defer s.Close()
	var probed uint64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := s.Scanner.SweepContext(context.Background(), order, uint32(i+1), s.World.ScanBlacklist())
			if err != nil {
				b.Fatal(err)
			}
			probed = res.Probed
		}
	})
	ns := r.NsPerOp()
	return sweepBench{
		Order:       order,
		Probes:      probed,
		NsPerOp:     ns,
		ProbesPerS:  float64(probed) / (float64(ns) / 1e9),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}, nil
}

// benchScanner times one sweep configuration over an existing study's
// transport (or any Transport wrapper around it).
func benchScanner(s *core.Study, tr scanner.Transport, order uint, shards int) (int64, uint64) {
	sc := scanner.New(tr, scanner.Options{
		Shards:      shards,
		Retries:     1,
		SettleDelay: scanner.NoSettle,
	})
	var probed uint64
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sc.SweepContext(context.Background(), order, uint32(i+1), s.World.ScanBlacklist())
			if err != nil {
				b.Fatal(err)
			}
			probed = res.Probed
		}
	})
	return r.NsPerOp(), probed
}

// singleOnly hides the transport's BatchSender so the scanner sends
// each batch through its per-probe Send adapter.
type singleOnly struct{ scanner.Transport }

func benchShardTable(s *core.Study, order uint, ms []int) []shardRow {
	rows := make([]shardRow, 0, len(ms))
	var base float64
	for _, m := range ms {
		ns, probed := benchScanner(s, s.Transport, order, m)
		pps := float64(probed) / (float64(ns) / 1e9)
		if m == 1 {
			base = pps
		}
		eff := 1.0
		if base > 0 {
			eff = pps / (float64(m) * base)
		}
		rows = append(rows, shardRow{Shards: m, NsPerOp: ns, ProbesPerS: pps, Efficiency: eff})
		fmt.Printf("sweep shards=%d: %.3fs/op  %.2fM probes/s  efficiency %.2f\n",
			m, float64(ns)/1e9, pps/1e6, eff)
	}
	return rows
}

func benchDispatch(s *core.Study, order uint) []dispatchBench {
	out := make([]dispatchBench, 0, 2)
	for _, mode := range []string{"batched", "single"} {
		tr := scanner.Transport(s.Transport)
		if mode == "single" {
			tr = singleOnly{s.Transport}
		}
		ns, probed := benchScanner(s, tr, order, 1)
		pps := float64(probed) / (float64(ns) / 1e9)
		out = append(out, dispatchBench{Mode: mode, NsPerOp: ns, ProbesPerS: pps})
		fmt.Printf("sweep dispatch=%s: %.3fs/op  %.2fM probes/s\n", mode, float64(ns)/1e9, pps/1e6)
	}
	return out
}

// benchEpochStream times the streaming weekly series on its own study
// (the epoch count, not the space order, dominates its cost).
func benchEpochStream(order uint, weeks int) (epochBench, error) {
	cfg := core.DefaultConfig(order)
	cfg.Weeks = weeks
	s, err := core.NewStudy(cfg)
	if err != nil {
		return epochBench{}, err
	}
	defer s.Close()
	var records int
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			records = 0
			if _, err := s.RunWeeklySeriesStreamContext(context.Background(), func(v core.EpochView) {
				records += len(v.Delta.Deltas)
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	ns := r.NsPerOp()
	return epochBench{
		Weeks:        weeks,
		DeltaRecords: records,
		NsPerOp:      ns,
		RecordsPerS:  float64(records) / (float64(ns) / 1e9),
	}, nil
}

func benchCluster(n int) clusterBench {
	var merges int
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := cluster.Agglomerate(n, synthDist, 0.6)
			merges = len(res.Merges)
		}
	})
	ns := r.NsPerOp()
	return clusterBench{
		N:          n,
		NsPerOp:    ns,
		ItemsPerS:  float64(n) / (float64(ns) / 1e9),
		MergeCount: merges,
	}
}

func main() {
	out := flag.String("out", "BENCH_scan.json", "output JSON path")
	order := flag.Uint("order", 20, "sweep order (2^order probe targets)")
	quick := flag.Bool("quick", false, "CI smoke mode: order 16 sweep, smaller cluster sizes")
	flag.Parse()

	// testing.Benchmark honors the -test.benchtime flag; register the
	// testing flags and pin a small fixed iteration count so a run costs
	// seconds, not minutes (one sweep iteration is the dominant cost).
	testing.Init()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		fmt.Fprintln(os.Stderr, "benchscan:", err)
		os.Exit(1)
	}

	sweepOrder := *order
	clusterSizes := []int{400, 800}
	epochWeeks := 8
	if *quick {
		sweepOrder = 16
		clusterSizes = []int{200, 400}
		epochWeeks = 4
	}

	sw, err := benchSweep(sweepOrder)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchscan: sweep:", err)
		os.Exit(1)
	}
	fmt.Printf("sweep order=%d: %d probes in %.3fs  %.2fM probes/s  %d allocs/op  %.1f MB/op\n",
		sw.Order, sw.Probes, float64(sw.NsPerOp)/1e9, sw.ProbesPerS/1e6,
		sw.AllocsPerOp, float64(sw.BytesPerOp)/(1<<20))

	// The shard-scaling table and the dispatch comparison share one
	// study (one world build). Three iterations per row: these are the
	// numbers make bench-quick gates on, so buy down the noise.
	if err := flag.Set("test.benchtime", "3x"); err != nil {
		fmt.Fprintln(os.Stderr, "benchscan:", err)
		os.Exit(1)
	}
	study, err := core.NewStudy(core.DefaultConfig(sweepOrder))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchscan:", err)
		os.Exit(1)
	}
	defer study.Close()
	rep := report{Sweep: sw}
	rep.SweepShards = benchShardTable(study, sweepOrder, []int{1, 2, 4, 8})
	best := rep.SweepShards[0]
	for _, row := range rep.SweepShards[1:] {
		if row.ProbesPerS > best.ProbesPerS {
			best = row
		}
	}
	rep.BestShards = best.Shards
	fmt.Printf("best shard count: M=%d at %.2fM probes/s\n", best.Shards, best.ProbesPerS/1e6)
	rep.SweepDispatch = benchDispatch(study, sweepOrder)

	es, err := benchEpochStream(sweepOrder, epochWeeks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchscan: epoch stream:", err)
		os.Exit(1)
	}
	rep.EpochStream = es
	fmt.Printf("epoch stream weeks=%d: %.3fs/op  %d delta records  %.0f records/s\n",
		es.Weeks, float64(es.NsPerOp)/1e9, es.DeltaRecords, es.RecordsPerS)

	// Clustering is cheap enough for a few iterations; median out noise.
	if err := flag.Set("test.benchtime", "3x"); err != nil {
		fmt.Fprintln(os.Stderr, "benchscan:", err)
		os.Exit(1)
	}
	for _, n := range clusterSizes {
		cb := benchCluster(n)
		rep.Cluster = append(rep.Cluster, cb)
		fmt.Printf("cluster n=%d: %.3fms/op  %.0f items/s  %d merges\n",
			cb.N, float64(cb.NsPerOp)/1e6, cb.ItemsPerS, cb.MergeCount)
	}
	if len(rep.Cluster) == 2 && rep.Cluster[0].NsPerOp > 0 {
		rep.ClusterScalingRatio = float64(rep.Cluster[1].NsPerOp) / float64(rep.Cluster[0].NsPerOp)
		fmt.Printf("cluster scaling time(%d)/time(%d) = %.2fx (4x = quadratic)\n",
			rep.Cluster[1].N, rep.Cluster[0].N, rep.ClusterScalingRatio)
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchscan:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchscan:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
