package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"preserv/internal/core"
	"preserv/internal/preserv"
	"preserv/internal/shard"
	"preserv/internal/store"
)

// topology is one running instance of a workload's stack: the stores,
// the service(s) and their loopback listeners. With a tracer it is
// built through the decorated seams; without, through exactly the
// constructors cmd/preserv uses (preserv.Serve, preserv.NewRemoteRouter).
type topology struct {
	w      workload
	tr     *tracer
	root   string
	front  *preserv.Service
	url    string
	stores []*store.Store // every embedded store, shard order
	dirs   []string       // their data directories
	scopes []*scope       // per store, the scope its backend's spans hang under
	// children are the remote topology's child services, shard order.
	children []*preserv.Service
	// frontScope is the front handler's span scope: direct router probes
	// enter their root span here so the shard seam finds it.
	frontScope *scope
	stop       []func() error // teardown, run in reverse
}

// listener is a service endpoint the topology must shut down.
type listener struct {
	srv  *http.Server
	done chan struct{}
}

func (l *listener) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), preserv.DefaultDrainTimeout)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if err != nil {
		_ = l.srv.Close()
	}
	<-l.done
	return err
}

// serve exposes svc on a loopback port. Untraced it is preserv.Serve;
// traced it is the same mux with the handler seam around svc.Handler().
func (tp *topology) serve(svc *preserv.Service, sc *scope) (string, error) {
	if tp.tr == nil {
		srv, err := preserv.Serve(svc, "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		tp.stop = append(tp.stop, srv.Close)
		return srv.URL, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/", &tracedHandler{inner: svc.Handler(), seam: &seam{t: tp.tr, name: spanHandle, own: sc}})
	mux.Handle("/metrics", svc.MetricsHandler())
	l := &listener{srv: &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // ErrServerClosed is the normal shutdown signal
	}()
	tp.stop = append(tp.stop, l.Close)
	return "http://" + ln.Addr().String(), nil
}

// openBackend opens one backend flavour rooted at dir, as cmd/preserv
// does.
func openBackend(flavour, dir string) (store.Backend, error) {
	switch flavour {
	case "kvdb":
		return store.NewKVBackend(dir)
	case "file":
		return store.NewFileBackend(dir)
	}
	return nil, fmt.Errorf("unknown backend %q", flavour)
}

// openStore opens shard i's backend under the topology root and wraps it
// in a store with the shipped defaults (block cache, mmap).
func (tp *topology) openStore(i int, parent *scope) (*store.Store, error) {
	dir := filepath.Join(tp.root, fmt.Sprintf("shard-%03d", i))
	b, err := openBackend(tp.w.Backend, dir)
	if err != nil {
		return nil, err
	}
	if tp.tr != nil {
		b = &tracedBackend{Backend: b, seam: &seam{t: tp.tr, name: spanBackend, parent: parent}}
	}
	s := store.New(b)
	tp.stores = append(tp.stores, s)
	tp.dirs = append(tp.dirs, dir)
	tp.scopes = append(tp.scopes, parent)
	return s, nil
}

// newClient returns a PReP client with a connection pool of its own, so
// "one client" is one keep-alive connection. Traced, sc is the scope
// its requests' parent spans are open in.
func (tp *topology) newClient(url string, sc *scope) *preserv.Client {
	var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if tp.tr != nil {
		rt = &tracedTransport{inner: rt, seam: &seam{t: tp.tr, name: spanTransport, parent: sc, own: newScope()}}
	}
	return preserv.NewClient(url, &http.Client{Transport: rt, Timeout: 60 * time.Second})
}

// openTopology builds the workload's stack over root (reopening
// whatever a previous instance left there).
func openTopology(w workload, root string, tr *tracer) (tp *topology, err error) {
	tp = &topology{w: w, tr: tr, root: root, frontScope: newScope()}
	defer func() {
		if err != nil {
			_ = tp.Close()
		}
	}()
	switch w.Topo {
	case topoSingle:
		s, err := tp.openStore(0, tp.frontScope)
		if err != nil {
			return nil, err
		}
		tp.stop = append(tp.stop, s.Close)
		tp.front = preserv.NewService(s)

	case topoEmbedded:
		var kids []shard.Shard
		for i := 0; i < w.Shards; i++ {
			sc := newScope()
			s, err := tp.openStore(i, sc)
			if err != nil {
				return nil, err
			}
			var kid fullShard = shard.NewLocal(s)
			if tr != nil {
				kid = &tracedShard{inner: kid, seam: &seam{t: tr, name: spanShard, parent: tp.frontScope, own: sc}}
			}
			kids = append(kids, kid)
		}
		rt, err := shard.NewRouter(kids...)
		if err != nil {
			return nil, err
		}
		tp.stop = append(tp.stop, rt.Close)
		tp.front = preserv.NewShardedService(rt)

	case topoRemote:
		var urls []string
		for i := 0; i < w.Shards; i++ {
			sc := newScope()
			s, err := tp.openStore(i, sc)
			if err != nil {
				return nil, err
			}
			tp.stop = append(tp.stop, s.Close)
			child := preserv.NewService(s)
			tp.children = append(tp.children, child)
			u, err := tp.serve(child, sc)
			if err != nil {
				return nil, err
			}
			urls = append(urls, u)
		}
		var rt *shard.Router
		if tr == nil {
			rt, err = preserv.NewRemoteRouter(strings.Join(urls, ","))
		} else {
			// NewRemoteRouter with the shard and transport seams in.
			var kids []shard.Shard
			for _, u := range urls {
				sc := newScope()
				kids = append(kids, &tracedShard{
					inner: preserv.NewRemoteShard(tp.newClient(u, sc)),
					seam:  &seam{t: tr, name: spanShard, parent: tp.frontScope, own: sc},
				})
			}
			rt, err = shard.NewRouter(kids...)
		}
		if err != nil {
			return nil, err
		}
		tp.stop = append(tp.stop, rt.Close)
		tp.front = preserv.NewShardedService(rt)

	default:
		return nil, fmt.Errorf("unknown topology %q", w.Topo)
	}
	tp.url, err = tp.serve(tp.front, tp.frontScope)
	return tp, err
}

// Close shuts the listeners down and closes the stores.
func (tp *topology) Close() error {
	var errs []error
	for i := len(tp.stop) - 1; i >= 0; i-- {
		errs = append(errs, tp.stop[i]())
	}
	tp.stop = nil
	return errors.Join(errs...)
}

// router is the front service's shard router, nil on a single store.
func (tp *topology) router() *shard.Router {
	rt, _ := tp.front.Provenance().(*shard.Router)
	return rt
}

// populate records a batch directly into the stores: through the
// front's Provenance where the stores are embedded, and straight into
// each record's home child (the router's own placement) where they are
// remote, so set-up does not pay the wire twice.
func (tp *topology) populate(records []core.Record) error {
	parts := [][]core.Record{records}
	sinks := []preserv.Provenance{tp.front.Provenance()}
	if tp.w.Topo == topoRemote {
		parts = make([][]core.Record, len(tp.children))
		sinks = sinks[:0]
		for _, c := range tp.children {
			sinks = append(sinks, c.Provenance())
		}
		for i := range records {
			home := shard.Affinity(&records[i], len(parts))
			parts[home] = append(parts[home], records[i])
		}
	}
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		accepted, rejects, err := sinks[i].Record(asserter, part)
		if err != nil {
			return err
		}
		if accepted != len(part) || len(rejects) > 0 {
			return fmt.Errorf("populate: %d of %d accepted, %d rejects", accepted, len(part), len(rejects))
		}
	}
	return nil
}

// diskBytes sums the sizes of the files under the data directories.
func (tp *topology) diskBytes() (int64, error) {
	var total int64
	for _, dir := range tp.dirs {
		err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
