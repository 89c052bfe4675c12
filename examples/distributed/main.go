// Distributed: the paper's §7 future-work scenario, implemented. The
// experiment records asynchronously into two provenance store instances
// (parallel submission); afterwards both stores are consolidated into a
// single persistent store, and the consolidated documentation is used to
// answer the §3 lineage question: which inputs produced the final
// results table?
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"preserv/internal/core"
	"preserv/internal/experiment"
	"preserv/internal/prep"
	"preserv/internal/preserv"
	"preserv/internal/store"
	"preserv/internal/trace"
)

func main() {
	// Two store instances accepting parallel submissions.
	var urls []string
	var clients []*preserv.Client
	for i := 0; i < 2; i++ {
		svc := preserv.NewService(store.New(store.NewMemoryBackend()))
		srv, err := preserv.Serve(svc, "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		urls = append(urls, srv.URL)
		clients = append(clients, preserv.NewClient(srv.URL, nil))
	}

	res, err := experiment.Run(experiment.Params{
		SampleBytes:  8 << 10,
		Permutations: 10,
		BatchSize:    5,
		Seed:         2005,
	}, experiment.Config{
		Mode:       experiment.RecordAsync,
		StoreURLs:  urls,
		AsyncBatch: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, c := range clients {
		cnt, err := c.Count()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("store %d received %d records\n", i+1, cnt.Records)
	}

	// Consolidate into one persistent store.
	dir := filepath.Join(os.TempDir(), "preserv-consolidated")
	os.RemoveAll(dir)
	consolidated, err := store.Open("kvdb", dir)
	if err != nil {
		log.Fatal(err)
	}
	defer consolidated.Close()
	csrv, err := preserv.Serve(preserv.NewService(consolidated), "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer csrv.Close()
	dst := preserv.NewClient(csrv.URL, nil)
	accepted, err := preserv.Consolidate(dst, clients...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consolidated %d records into %s (kvdb at %s)\n", accepted, csrv.URL, dir)

	// Lineage over the consolidated store: trace the results table back
	// to its inputs.
	g, err := trace.Build(dst, res.SessionID)
	if err != nil {
		log.Fatal(err)
	}
	records, _, err := dst.Query(&prep.Query{
		SessionID: res.SessionID,
		Kind:      core.KindInteraction.String(),
	})
	if err != nil {
		log.Fatal(err)
	}
	var resultsID core.MessagePart
	for i := range records {
		ip := records[i].Interaction
		if ip.Interaction.Receiver != experiment.SvcAverage {
			continue
		}
		for _, p := range ip.Response.Parts {
			if p.Name == "results" {
				resultsID = p
			}
		}
	}
	if !resultsID.DataID.Valid() {
		log.Fatal("results data id not found")
	}
	lineage := g.Lineage(resultsID.DataID)
	fmt.Printf("\nthe results table (%s) derives from %d data items\n",
		resultsID.DataID.Short(), len(lineage))
	byService := map[core.ActorID]int{}
	for _, n := range lineage {
		if n.ProducedBy.Valid() {
			byService[n.Producer]++
		} else {
			byService["(workflow input)"]++
		}
	}
	for svc, n := range byService {
		fmt.Printf("  %-34s %d item(s)\n", svc, n)
	}
	fmt.Printf("\nworkflow roots: %d; session: %s\n", len(g.Roots()), res.SessionID.Short())
}
