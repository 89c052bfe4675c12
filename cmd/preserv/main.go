// Command preserv runs a PReServ provenance store as a standalone web
// service.
//
// Usage:
//
//	preserv -addr 127.0.0.1:8734 -backend kvdb -dir ./provenance
//	preserv -addr 127.0.0.1:8734 -backend kvdb -dir ./provenance -shards 4
//	preserv -addr 127.0.0.1:8734 -shard-endpoints http://s1:8734,http://s2:8734
//
// Backends: all three run the embedded database used for all paper
// evaluations. memory keeps its log in memory (volatile); file and kvdb
// both open it in DIR. A directory in an earlier version's on-disk
// format is refused at start-up, by name.
//
// The service always runs on a shard router. With -shards N (N > 1) it
// runs in sharded mode: N embedded child stores (each with its own
// backend under DIR/shard-XXX) behind a router that places writes
// session-affine and answers every query across all shards — one
// endpoint, N stores. Without it the router has one shard, the store
// in DIR itself. With -shard-endpoints the children are remote PReServ
// instances instead, which is the paper's distributed PReServ with
// query routing in front.
//
// Telemetry: the service answers urn:prep:stats on the wire and serves
// Prometheus-format metrics at /metrics. -telemetry=false turns off the
// latency histograms and operation spans (request counters stay on);
// -pprof additionally exposes net/http/pprof under /debug/pprof.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"preserv/internal/kvdb"
	"preserv/internal/obs"
	"preserv/internal/preserv"
	"preserv/internal/shard"
	"preserv/internal/store"
)

// openLogged is store.OpenBackend plus a log line saying how long the open
// took and how much it replayed: a slow start names the store (or shard)
// and its size.
func openLogged(flavour, dir string) (*kvdb.DB, error) {
	start := time.Now()
	b, err := store.OpenBackend(flavour, dir)
	if err != nil {
		return nil, err
	}
	log.Printf("preserv: opened %s backend %s in %s: %d live keys, %d log bytes",
		flavour, dir, time.Since(start).Round(100*time.Microsecond), b.Len(), b.LogBytes())
	return b, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8734", "listen address")
	backendName := flag.String("backend", "kvdb", "storage backend: memory, file or kvdb")
	dir := flag.String("dir", "./provenance-store", "data directory for persistent backends")
	shards := flag.Int("shards", 0, "shard the store across N embedded child stores (0 or 1 = single store)")
	shardEndpoints := flag.String("shard-endpoints", "", "comma-separated remote store URLs to front as shards (overrides -shards)")
	statsEvery := flag.Duration("stats", 0, "periodically log service statistics (0 disables)")
	compactRatio := flag.Float64("compact-ratio", 0, "garbage-ratio threshold for delete-triggered compaction (0 = default, negative disables)")
	telemetry := flag.Bool("telemetry", true, "record latency histograms and operation spans (request counters are always on)")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof on the service listener")
	flag.Parse()

	obs.SetEnabled(*telemetry)

	var rt *shard.Router
	var err error
	if *shardEndpoints != "" {
		rt, err = preserv.NewRemoteRouter(*shardEndpoints)
		if err != nil {
			log.Fatalf("preserv: %v", err)
		}
		log.Printf("preserv: sharded front-end over %d remote endpoint(s)", rt.NumShards())
	} else {
		// One shard is the store in -dir itself, so a single store
		// written before -shards existed reopens unchanged.
		n := max(*shards, 1)
		children := make([]shard.Shard, n)
		for i := range children {
			d := *dir
			if n > 1 {
				d = filepath.Join(*dir, fmt.Sprintf("shard-%03d", i))
			}
			backend, err := openLogged(*backendName, d)
			if err != nil {
				log.Fatalf("preserv: opening backend %s: %v", d, err)
			}
			s := store.New(backend)
			if _, err := s.Index(); err != nil { // an old format stops start-up
				log.Fatalf("preserv: opening the index of %s: %v", d, err)
			}
			children[i] = shard.NewLocal(s)
		}
		if rt, err = shard.NewRouter(children...); err != nil {
			log.Fatalf("preserv: %v", err)
		}
		log.Printf("preserv: %d embedded %s-backed store(s)", n, *backendName)
	}
	svc := preserv.NewShardedService(rt)

	if *compactRatio != 0 {
		svc.SetCompactRatio(*compactRatio)
	}
	if *pprofFlag {
		svc.EnablePprof()
	}
	srv, err := preserv.Serve(svc, *addr)
	if err != nil {
		log.Fatalf("preserv: %v", err)
	}
	log.Printf("preserv: provenance store listening on %s (metrics at %s/metrics)", srv.URL, srv.URL)

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				s, err := svc.StatsResponse()
				if err != nil {
					log.Printf("preserv: stats: %v", err)
					continue
				}
				cnt, err := svc.Provenance().Count()
				if err != nil {
					log.Printf("preserv: count: %v", err)
					continue
				}
				log.Printf("preserv: records=%d interactions=%d recordReqs=%d queryReqs=%d shards=%d",
					cnt.Records, cnt.Interactions, s.RecordRequests, s.QueryRequests, s.NumShards)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "preserv: shutting down")
	if err := srv.Close(); err != nil {
		log.Printf("preserv: close: %v", err)
	}
	if err := rt.Close(); err != nil {
		log.Printf("preserv: backend close: %v", err)
	}
}
