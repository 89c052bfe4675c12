// Command benchfig regenerates the paper's evaluation artefacts (see
// DESIGN.md's experiment index):
//
//	benchfig -exp e1             # record round-trip microbenchmark
//	benchfig -exp fig4           # Figure 4: recording overhead sweep
//	benchfig -exp fig5           # Figure 5: use-case query sweeps
//	benchfig -exp gran           # E7: granularity ablation
//	benchfig -exp dist           # E8: distributed stores
//	benchfig -exp ingest         # write-path sweep (backends x writers)
//	benchfig -exp shard          # sharded-store scaling sweep (1/2/4 shards)
//	benchfig -exp obs            # instrumentation-overhead gate (on vs off)
//	benchfig -exp writeavail     # write availability under compaction floor gate
//	benchfig -exp all            # everything
//
// By default the sweeps run at laptop scale (seconds); -paper selects
// the paper's parameters (100 KB samples, 100-800 permutations,
// 500-4000 store records), which takes substantially longer.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"preserv/internal/bench"
	"preserv/internal/store"
)

func main() {
	exp := flag.String("exp", "all", "experiment: e1, fig4, fig5, gran, dist, ingest, shard, obs, writeavail or all")
	paper := flag.Bool("paper", false, "run at the paper's scale (slow)")
	seed := flag.Int64("seed", 2005, "workload seed")
	quiet := flag.Bool("q", false, "suppress progress lines")
	flag.Parse()

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = io.Discard
	}
	out := os.Stdout

	runE1 := func() {
		iters := 200
		if *paper {
			iters = 1000
		}
		res, err := bench.RunE1(iters, store.NewMemoryBackend())
		if err != nil {
			log.Fatalf("benchfig: e1: %v", err)
		}
		bench.RenderE1(out, res, "memory")
	}

	runFig4 := func() {
		opts := bench.Fig4Options{Seed: *seed}
		if *paper {
			opts.SampleBytes = 100 << 10
			opts.PermSteps = []int{100, 200, 300, 400, 500, 600, 700, 800}
			opts.BatchSize = 100
		}
		points, err := bench.RunFigure4(opts, progress)
		if err != nil {
			log.Fatalf("benchfig: fig4: %v", err)
		}
		sum, err := bench.SummarizeFig4(points)
		if err != nil {
			log.Fatalf("benchfig: fig4 summary: %v", err)
		}
		bench.RenderFig4(out, points, sum)
	}

	runFig5 := func() {
		opts := bench.Fig5Options{Seed: *seed}
		if *paper {
			opts.RecordSteps = []int{500, 1000, 1500, 2000, 2500, 3000, 3500, 4000}
		}
		points, err := bench.RunFigure5(opts, progress)
		if err != nil {
			log.Fatalf("benchfig: fig5: %v", err)
		}
		sum, err := bench.SummarizeFig5(points)
		if err != nil {
			log.Fatalf("benchfig: fig5 summary: %v", err)
		}
		bench.RenderFig5(out, points, sum)
	}

	runGran := func() {
		opts := bench.GranOptions{Seed: *seed}
		if *paper {
			opts.SampleBytes = 100 << 10
			opts.Permutations = 200
			opts.BatchSizes = []int{1, 5, 10, 25, 50, 100, 200}
			opts.SchedulingDelay = 500 * time.Millisecond
		}
		points, err := bench.RunGranularity(opts, progress)
		if err != nil {
			log.Fatalf("benchfig: gran: %v", err)
		}
		bench.RenderGranularity(out, points)
	}

	runDist := func() {
		opts := bench.DistOptions{Seed: *seed}
		if *paper {
			opts.Records = 4800
		}
		points, err := bench.RunDistributed(opts, progress)
		if err != nil {
			log.Fatalf("benchfig: dist: %v", err)
		}
		bench.RenderDistributed(out, points)
	}

	runIngest := func() {
		// The file flavour opens the kvdb log, so it has no row of its own.
		records := 5000
		if *paper {
			records = 50000
		}
		for _, backend := range []string{"memory", "kvdb"} {
			if _, err := bench.RunIngestSweep(backend, []int{1, 4, 8}, 100, records, out); err != nil {
				log.Fatalf("benchfig: ingest: %v", err)
			}
		}
	}

	runShard := func() {
		opts := bench.ShardSweepOptions{Seed: *seed}
		if *paper {
			opts.Sessions = 96
			opts.RecordsPerSession = 48
		}
		points, err := bench.RunShardSweep(opts, progress)
		if err != nil {
			log.Fatalf("benchfig: shard: %v", err)
		}
		bench.RenderShardSweep(out, points)
	}

	runObs := func() {
		opts := bench.ObsGateOptions{}
		if *paper {
			opts.Records = 20000
		}
		res, err := bench.RunObsGate(opts, progress)
		if err != nil {
			log.Fatalf("benchfig: obs: %v", err)
		}
		bench.RenderObsGate(out, res)
		if !res.Pass {
			log.Fatalf("benchfig: obs: instrumentation overhead gate failed: ratio %.3f < %.2f",
				res.Ratio, bench.ObsGateThreshold)
		}
	}

	runWriteavail := func() {
		opts := bench.WriteAvailOptions{Seed: *seed}
		if *paper {
			opts.Batches = 16
			opts.BatchSize = 512
			opts.Records = 2000
		}
		points, err := bench.RunWriteAvailSweep(opts, progress)
		if err != nil {
			log.Fatalf("benchfig: writeavail: %v", err)
		}
		bench.RenderWriteAvail(out, points)
		if err := bench.CheckWriteAvailFloors(points); err != nil {
			log.Fatalf("benchfig: writeavail: %v", err)
		}
	}

	ran := false
	for _, e := range []struct {
		name string
		run  func()
	}{
		{"e1", runE1}, {"fig4", runFig4}, {"fig5", runFig5}, {"gran", runGran}, {"dist", runDist},
		{"ingest", runIngest}, {"shard", runShard}, {"obs", runObs}, {"writeavail", runWriteavail},
	} {
		if *exp == e.name || *exp == "all" {
			e.run()
			fmt.Fprintln(out)
			ran = true
		}
	}
	if !ran {
		log.Fatalf("benchfig: unknown experiment %q", *exp)
	}
}
