// Command provq queries provenance: it runs the two use cases of the
// paper against a live provenance store (and registry). Queries go
// through the store's secondary-index planner; compare fetches only the
// two sessions it needs.
//
//	provq -store URL count
//	provq -shards URL1,URL2,... count
//	provq -store URL stats
//	provq -shards URL1,URL2,... stats -watch 2s
//	provq -store URL sessions
//	provq -store URL categorize
//	provq -store URL compare -a SESSION -b SESSION
//	provq -store URL -registry URL validate -session SESSION
//	provq -store URL lineage -session SESSION -data DATAID
//	provq -store URL consolidate -from URL1,URL2,...
//	provq -store URL delete -session SESSION
//	provq -store URL delete -key STORAGEKEY
//	provq -store URL compact
//	provq -backend file|kvdb -dir PATH compact
//
// delete retracts provenance from a live store: one record by storage
// key, or a whole session's records. The store removes the records and
// their index postings and reclaims the bytes by (possibly automatic)
// compaction.
//
// compact with -dir is an offline maintenance command: it opens the
// store directory directly (no server may have it open) and rewrites
// the kvdb log without its dead space. Without -dir it asks the live
// server at -store to compact itself online (urn:prep:compact).
//
// -shards URL1,URL2,... targets a sharded deployment: provq starts an
// ephemeral loopback router over the listed store endpoints and runs
// the command through it, so every query spans all shards and every
// retraction fans out — the same answers a permanent sharded front-end
// (preserv -shard-endpoints) would give.
//
// stats prints the store's telemetry snapshot (urn:prep:stats): request
// counters, garbage state, query-engine counters, per-shard breakdown,
// latency-histogram quantiles and the slow-operation log. With -watch D
// it refreshes every D until interrupted.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"preserv/internal/compare"
	"preserv/internal/ids"
	"preserv/internal/ontology"
	"preserv/internal/prep"
	"preserv/internal/preserv"
	"preserv/internal/registry"
	"preserv/internal/semval"
	"preserv/internal/store"
	"preserv/internal/trace"
)

func main() {
	storeURL := flag.String("store", "http://127.0.0.1:8734", "provenance store URL")
	registryURL := flag.String("registry", "http://127.0.0.1:8735", "registry URL (validate)")
	sessionA := flag.String("a", "", "first session id (compare)")
	sessionB := flag.String("b", "", "second session id (compare)")
	session := flag.String("session", "", "session id (validate, lineage, delete)")
	dataID := flag.String("data", "", "data id (lineage)")
	from := flag.String("from", "", "comma-separated source store URLs (consolidate)")
	backend := flag.String("backend", "file", "backend flavour: file or kvdb (offline compact)")
	dir := flag.String("dir", "", "store directory (offline compact; omit to compact via the server)")
	key := flag.String("key", "", "record storage key (delete)")
	shardsFlag := flag.String("shards", "", "comma-separated shard store URLs (query them as one store through an ephemeral router)")
	watch := flag.Duration("watch", 0, "refresh interval for stats (0 = print once)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: provq [flags] count|stats|sessions|categorize|compare|validate|lineage|consolidate|delete|compact")
		os.Exit(2)
	}
	if flag.Arg(0) == "compact" && *dir != "" {
		if err := runCompact(*backend, *dir, os.Stdout); err != nil {
			log.Fatalf("provq: %v", err)
		}
		return
	}
	client, dest, stop, err := connect(*storeURL, *shardsFlag)
	if err != nil {
		log.Fatalf("provq: %v", err)
	}
	defer stop()

	switch flag.Arg(0) {
	case "count":
		cnt, err := client.Count()
		if err != nil {
			log.Fatalf("provq: %v", err)
		}
		fmt.Printf("records: %d (interactions %d, actor states %d)\n",
			cnt.Records, cnt.Interactions, cnt.ActorStates)

	case "stats":
		for {
			st, err := client.StoreStats()
			if err != nil {
				log.Fatalf("provq: %v", err)
			}
			printStats(os.Stdout, st)
			if *watch <= 0 {
				return
			}
			time.Sleep(*watch)
			fmt.Println()
		}

	case "sessions":
		sessions, err := preserv.Sessions(client)
		if err != nil {
			log.Fatalf("provq: %v", err)
		}
		fmt.Printf("%d session(s):\n", len(sessions))
		for _, s := range sessions {
			fmt.Printf("  %s\n", s)
		}

	case "categorize":
		cat, err := (&compare.Categorizer{Store: client}).Categorize()
		if err != nil {
			log.Fatalf("provq: %v", err)
		}
		fmt.Printf("categorised %d interactions into %d script categories in %.1fms\n",
			cat.InteractionsScanned, len(cat.Categories()), float64(cat.Elapsed.Microseconds())/1000)
		for _, c := range cat.Categories() {
			fmt.Printf("  %s  uses=%-4d  %.60q\n", c.Hash[:12], len(c.Uses), c.Script)
		}

	case "compare":
		a, err := ids.Parse(*sessionA)
		if err != nil {
			log.Fatalf("provq: -a: %v", err)
		}
		b, err := ids.Parse(*sessionB)
		if err != nil {
			log.Fatalf("provq: -b: %v", err)
		}
		// Only the two compared sessions are fetched (indexed), however
		// many other runs the store holds.
		cat, err := (&compare.Categorizer{Store: client}).CategorizeSessions(a, b)
		if err != nil {
			log.Fatalf("provq: %v", err)
		}
		diffs := cat.SameProcess(a, b)
		if len(diffs) == 0 {
			fmt.Println("same process: the two sessions used identical scripts for every service")
			return
		}
		fmt.Printf("process differs in %d service(s):\n", len(diffs))
		for _, d := range diffs {
			fmt.Printf("  %s\n", d.Service)
			for _, h := range d.OnlyInA {
				if c, ok := cat.Lookup(h); ok {
					fmt.Printf("    only in A: %.70q\n", c.Script)
				}
			}
			for _, h := range d.OnlyInB {
				if c, ok := cat.Lookup(h); ok {
					fmt.Printf("    only in B: %.70q\n", c.Script)
				}
			}
		}
		os.Exit(1)

	case "validate":
		s, err := ids.Parse(*session)
		if err != nil {
			log.Fatalf("provq: -session: %v", err)
		}
		validator := &semval.Validator{
			Store:    client,
			Registry: registry.NewClient(*registryURL, nil),
			Ontology: ontology.Bioinformatics(),
		}
		rep, err := validator.ValidateSession(s)
		if err != nil {
			log.Fatalf("provq: %v", err)
		}
		fmt.Printf("validated %d interactions (%d data edges, %d registry calls) in %.1fms\n",
			rep.Interactions, rep.EdgesChecked, rep.RegistryCalls,
			float64(rep.Elapsed.Microseconds())/1000)
		if rep.Valid() {
			fmt.Println("semantically valid")
			return
		}
		fmt.Printf("%d violation(s):\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Printf("  %s\n", v)
		}
		os.Exit(1)

	case "lineage":
		s, err := ids.Parse(*session)
		if err != nil {
			log.Fatalf("provq: -session: %v", err)
		}
		d, err := ids.Parse(*dataID)
		if err != nil {
			log.Fatalf("provq: -data: %v", err)
		}
		g, err := trace.Build(client, s)
		if err != nil {
			log.Fatalf("provq: %v", err)
		}
		anc := g.Lineage(d)
		fmt.Printf("data %s derives from %d item(s):\n", d.Short(), len(anc))
		for _, n := range anc {
			if n.ProducedBy.Valid() {
				fmt.Printf("  %s  produced by %s (part %q)\n", n.DataID.Short(), n.Producer, n.Part)
			} else {
				fmt.Printf("  %s  workflow input\n", n.DataID.Short())
			}
		}
		des := g.Derived(d)
		fmt.Printf("and %d item(s) derive from it\n", len(des))

	case "delete":
		var resp *prep.DeleteResponse
		var err error
		switch {
		case *key != "" && *session != "":
			log.Fatal("provq: delete takes -key or -session, not both")
		case *key != "":
			resp, err = client.DeleteRecord(*key)
		case *session != "":
			var s ids.ID
			if s, err = ids.Parse(*session); err != nil {
				log.Fatalf("provq: -session: %v", err)
			}
			resp, err = client.DeleteSession(s)
		default:
			log.Fatal("provq: delete needs -key STORAGEKEY or -session SESSION")
		}
		if err != nil {
			log.Fatalf("provq: %v", err)
		}
		fmt.Printf("deleted %d record(s); garbage ratio %.2f", resp.Deleted, resp.GarbageRatio)
		if resp.Compacted {
			fmt.Print(" (store compacted)")
		}
		fmt.Println()
		if resp.CompactError != "" {
			fmt.Fprintf(os.Stderr, "provq: warning: scheduled compaction failed: %s\n", resp.CompactError)
		}

	case "compact":
		resp, err := client.Compact()
		if err != nil {
			log.Fatalf("provq: %v", err)
		}
		printCompacted(os.Stdout, dest, resp)

	case "consolidate":
		if *from == "" {
			log.Fatal("provq: consolidate needs -from URL1,URL2,...")
		}
		var sources []*preserv.Client
		for _, u := range strings.Split(*from, ",") {
			sources = append(sources, preserv.NewClient(strings.TrimSpace(u), nil))
		}
		accepted, err := preserv.Consolidate(client, sources...)
		if err != nil {
			log.Fatalf("provq: %v", err)
		}
		printConsolidated(os.Stdout, dest, accepted, len(sources))

	default:
		fmt.Fprintf(os.Stderr, "provq: unknown command %q\n", flag.Arg(0))
		os.Exit(2)
	}
}

// connect returns a client for the store the commands run against and
// the label result lines name it by. Without shards that is storeURL
// itself. With shards, the listed endpoints are fronted by a loopback
// router for the duration of this invocation — the commands talk to it
// exactly as they would to one store — and the label is the shard list,
// never storeURL, which nothing contacted. stop shuts the router down.
func connect(storeURL, shards string) (client *preserv.Client, dest string, stop func(), err error) {
	if shards == "" {
		return preserv.NewClient(storeURL, nil), storeURL, func() {}, nil
	}
	rt, err := preserv.NewRemoteRouter(shards)
	if err != nil {
		return nil, "", nil, err
	}
	srv, err := preserv.Serve(preserv.NewShardedService(rt), "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, fmt.Errorf("starting shard router: %w", err)
	}
	return preserv.NewClient(srv.URL, nil), "shards " + shards, func() { srv.Close() }, nil
}

// printCompacted reports an online compaction of dest.
func printCompacted(out io.Writer, dest string, resp *prep.CompactResponse) {
	fmt.Fprintf(out, "compacted %s: garbage ratio %.2f -> %.2f\n", dest, resp.GarbageBefore, resp.GarbageAfter)
}

// printConsolidated reports a consolidation into dest.
func printConsolidated(out io.Writer, dest string, accepted, sources int) {
	fmt.Fprintf(out, "consolidated %d records from %d store(s) into %s\n", accepted, sources, dest)
}

// printStats renders one urn:prep:stats snapshot: the service counters
// and whole-store aggregates, then the per-shard breakdown, then the
// latency summaries and slow operations.
func printStats(out io.Writer, st *prep.StatsResponse) {
	fmt.Fprintf(out, "records: %d  shards: %d  garbage: %.2f  tombstones: %d\n",
		st.Records, st.NumShards, st.GarbageRatio, st.Tombstones)
	fmt.Fprintf(out, "requests: record=%d (accepted %d)  query=%d  delete=%d (deleted %d)  compactions=%d\n",
		st.RecordRequests, st.RecordsAccepted, st.QueryRequests,
		st.DeleteRequests, st.RecordsDeleted, st.Compactions)
	fmt.Fprintf(out, "engine: index=%d scan=%d paged=%d probes=%d postings=%d candidates=%d cache=%d/%d\n",
		st.Engine.IndexPlans, st.Engine.ScanPlans, st.Engine.PagedQueries,
		st.Engine.CostProbes, st.Engine.PostingsRead, st.Engine.CandidatesFetched,
		st.Engine.CacheHits, st.Engine.CacheHits+st.Engine.CacheMisses)
	if st.GenerationValid {
		fmt.Fprintf(out, "generation: %d\n", st.Generation)
	}
	wp := st.WritePath
	if wp != (prep.WritePathCounters{}) {
		fmt.Fprintf(out, "write path: compacting=%d  stalls=%d (p99=%.2fms, total=%.1fs)\n",
			wp.CompactionsInProgress, wp.StallCount, wp.StallP99*1000, wp.StallSeconds)
	}
	for _, sh := range st.Shards {
		loc := sh.URL
		if loc == "" {
			loc = "embedded"
		}
		fmt.Fprintf(out, "shard %d (%s): records=%d garbage=%.2f tombstones=%d index=%d scan=%d\n",
			sh.Index, loc, sh.Records, sh.GarbageRatio, sh.Tombstones,
			sh.Engine.IndexPlans, sh.Engine.ScanPlans)
		printHistograms(out, "  ", sh.Histograms)
		printSlow(out, "  ", sh.Slow)
	}
	printHistograms(out, "", st.Histograms)
	printSlow(out, "", st.Slow)
}

// printHistograms lists non-empty histogram summaries. Latency
// histograms (family *_seconds) render their quantiles in milliseconds;
// unitless ones (sizes, widths) render raw values.
func printHistograms(out io.Writer, indent string, hists []prep.HistogramStat) {
	for _, h := range hists {
		if h.Count == 0 {
			continue
		}
		fam := h.Name
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		if strings.HasSuffix(fam, "_seconds") {
			fmt.Fprintf(out, "%s%-44s n=%-7d p50=%.3fms p95=%.3fms p99=%.3fms\n",
				indent, h.Name, h.Count, h.P50*1000, h.P95*1000, h.P99*1000)
		} else {
			fmt.Fprintf(out, "%s%-44s n=%-7d p50=%.1f p95=%.1f p99=%.1f\n",
				indent, h.Name, h.Count, h.P50, h.P95, h.P99)
		}
	}
}

// printSlow lists the slow-operation log, oldest first.
func printSlow(out io.Writer, indent string, slow []prep.SlowSpan) {
	for _, s := range slow {
		attrs := ""
		for _, a := range s.Attrs {
			attrs += fmt.Sprintf(" %s=%s", a.Key, a.Value)
		}
		if s.Err != "" {
			attrs += " err=" + s.Err
		}
		fmt.Fprintf(out, "%sslow: %-20s %.1fms%s\n", indent, s.Op, s.Seconds*1000, attrs)
	}
}

// runCompact performs offline store maintenance on a local directory:
// rewriting the kvdb log without its dead bytes (the file flavour opens
// the same log). The backend constructor creates whatever it does not
// find, so the directory is checked first: a mistyped path must fail,
// not "compact" a store it has just made.
func runCompact(backend, dir string, out io.Writer) error {
	if dir == "" {
		return fmt.Errorf("compact needs -dir PATH")
	}
	if backend != "file" && backend != "kvdb" {
		return fmt.Errorf("unknown backend %q (want file or kvdb)", backend)
	}
	if _, err := os.ReadDir(dir); err != nil {
		return fmt.Errorf("compact: no store directory to open: %w", err)
	}
	kb, err := store.NewKVBackend(dir)
	if err != nil {
		return err
	}
	if err := kb.Compact(); err != nil {
		kb.Close()
		return err
	}
	fmt.Fprintf(out, "compacted kvdb log in %s\n", dir)
	return kb.Close()
}
