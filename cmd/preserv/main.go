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
// Each store reclaims its own garbage: a delete that leaves a store at
// half its log dead (store.CompactRatio) compacts that store before the
// reply. urn:prep:compact (`provq compact`) compacts every store now.
//
// Telemetry: the service answers urn:prep:stats on the wire (`provq
// -watch D stats` follows it), whose history holds each store's open
// and compactions, failed requests and slow operations, and serves
// Prometheus-format metrics at /metrics. -telemetry=false turns off the
// latency histograms and request spans (request counters and events
// stay on); -pprof additionally exposes net/http/pprof under
// /debug/pprof. Start-up lines are log/slog's key=value lines; a store
// that cannot be opened is one error line naming its dir, then exit 1.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"preserv/internal/obs"
	"preserv/internal/preserv"
	"preserv/internal/shard"
	"preserv/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8734", "listen address")
	backendName := flag.String("backend", "kvdb", "storage backend: memory, file or kvdb")
	dir := flag.String("dir", "./provenance-store", "data directory for persistent backends")
	shards := flag.Int("shards", 0, "shard the store across N embedded child stores (0 or 1 = single store)")
	shardEndpoints := flag.String("shard-endpoints", "", "comma-separated remote store URLs to front as shards (overrides -shards)")
	telemetry := flag.Bool("telemetry", true, "record latency histograms and operation spans (request counters and events are always on)")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof on the service listener")
	flag.Parse()

	obs.SetEnabled(*telemetry)

	var rt *shard.Router
	var err error
	if *shardEndpoints != "" {
		rt, err = preserv.NewRemoteRouter(*shardEndpoints)
		if err != nil {
			slog.Error("preserv: fronting remote shards", "err", err)
			os.Exit(1)
		}
		slog.Info("preserv: sharded front-end", "remote_shards", rt.NumShards())
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
			s, err := store.Open(*backendName, d) // an old format stops start-up
			if err != nil {
				slog.Error("preserv: opening store", "dir", d, "backend", *backendName, "shard", i, "err", err)
				os.Exit(1)
			}
			ev := s.Obs().Tracer().Slow()[0] // the store.open event
			fields := []any{"dir", d, "backend", *backendName, "shard", i}
			for _, a := range ev.Attrs() {
				fields = append(fields, a.Key, a.Value)
			}
			slog.Info("preserv: opened store", fields...)
			children[i] = shard.NewLocal(s)
		}
		if rt, err = shard.NewRouter(children...); err != nil {
			slog.Error("preserv: routing", "err", err)
			os.Exit(1)
		}
	}
	svc := preserv.NewShardedService(rt)
	if *pprofFlag {
		svc.EnablePprof()
	}
	srv, err := preserv.Serve(svc, *addr)
	if err != nil {
		slog.Error("preserv: serving", "addr", *addr, "err", err)
		os.Exit(1)
	}
	slog.Info("preserv: provenance store listening", "addr", srv.URL, "metrics", srv.URL+"/metrics")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	slog.Info("preserv: shutting down")
	if err := srv.Close(); err != nil {
		slog.Error("preserv: closing the listener", "err", err)
	}
	if err := rt.Close(); err != nil {
		slog.Error("preserv: closing the stores", "err", err)
	}
}
