// Compressibility: run the full protein compressibility experiment of
// the paper end to end — synthetic microbial proteins, group encoding,
// shuffled permutations, gzip+ppmz compression, provenance recorded
// asynchronously to an in-process PReServ store.
//
//	go run ./examples/compressibility
package main

import (
	"fmt"
	"log"

	"preserv/internal/experiment"
	"preserv/internal/grid"
	"preserv/internal/preserv"
	"preserv/internal/store"
)

func main() {
	// The embedded database of all the paper's evaluations, its log in
	// memory.
	backend := store.NewMemoryBackend()
	svc := preserv.NewService(store.New(backend))
	srv, err := preserv.Serve(svc, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// A small simulated grid: 4 slots, 25 ms scheduling latency.
	cluster, err := grid.NewCluster(4, 25_000_000, 0)
	if err != nil {
		log.Fatal(err)
	}

	params := experiment.Params{
		SampleBytes:  32 << 10, // 32 KB sample (paper: ~100 KB)
		Permutations: 20,       // paper: up to 800
		BatchSize:    5,        // permutations per grid script (paper: 100)
		Seed:         2005,
	}
	cfg := experiment.Config{
		Mode:      experiment.RecordAsync,
		StoreURLs: []string{srv.URL},
		Cluster:   cluster,
	}

	fmt.Printf("running: %d KB sample, %d permutations, batches of %d, %s recording\n",
		params.SampleBytes>>10, params.Permutations, params.BatchSize, cfg.Mode)
	res, err := experiment.Run(params, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Print(res.ResultsText)
	fmt.Println()
	for _, codec := range res.Results.Codecs() {
		cs := res.Results.PerCodec[codec]
		verdict := "no structure beyond symbol frequencies"
		if cs.StructureIndex < 0.995 {
			verdict = "structure detected: sample compresses better than its permutations"
		}
		fmt.Printf("%-6s structure index %.4f — %s\n", codec, cs.StructureIndex, verdict)
	}

	fmt.Println()
	fmt.Printf("elapsed %.2fs (workflow %.2fs, shipping %.2fs)\n",
		res.Elapsed.Seconds(), res.WorkflowElapsed.Seconds(),
		(res.Elapsed - res.WorkflowElapsed).Seconds())
	fmt.Printf("recorded %d p-assertions under session %s\n", res.RecordsCreated, res.SessionID.Short())

	client := preserv.NewClient(srv.URL, nil)
	cnt, err := client.Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store now holds %d records (%d interactions)\n", cnt.Records, cnt.Interactions)
	gs := cluster.Stats()
	fmt.Printf("grid: %d jobs, %.1f%% scheduling/transfer overhead\n",
		gs.JobsRun, 100*gs.OverheadFraction())
}
