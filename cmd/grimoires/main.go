// Command grimoires runs the service registry (the Grimoires stand-in)
// as a standalone web service, pre-populated with the protein
// compressibility experiment's service descriptions.
//
// Usage:
//
//	grimoires -addr 127.0.0.1:8735 -codecs gzip,ppmz
package main

import (
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"preserv/internal/experiment"
	"preserv/internal/registry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8735", "listen address")
	codecs := flag.String("codecs", "gzip,ppmz", "comma-separated compressor services to describe")
	empty := flag.Bool("empty", false, "start with no published descriptions")
	flag.Parse()

	reg := registry.NewRegistry()
	if !*empty {
		for _, d := range experiment.Descriptions(strings.Split(*codecs, ",")) {
			if err := reg.Publish(d); err != nil {
				slog.Error("grimoires: publishing", "service", d.Service, "err", err)
				os.Exit(1)
			}
		}
	}

	srv, err := registry.Serve(reg, *addr)
	if err != nil {
		slog.Error("grimoires: serving", "addr", *addr, "err", err)
		os.Exit(1)
	}
	slog.Info("grimoires: registry listening", "addr", srv.URL, "services", len(reg.Services()))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	slog.Info("grimoires: shutting down")
	if err := srv.Close(); err != nil {
		slog.Error("grimoires: closing the listener", "err", err)
	}
}
