// Package preserv implements PReServ — Provenance Recording for
// Services — as an HTTP web service, following the layered design of the
// paper's Figure 3: a message translator (internal/soap) strips the
// transport headers and hands the body to the plug-in registered for the
// message's action; plug-ins (Store, Query) call the Provenance Store
// Interface (internal/store), which runs over interchangeable backends.
package preserv

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/obs"
	"preserv/internal/prep"
	"preserv/internal/shard"
	"preserv/internal/soap"
	"preserv/internal/store"
)

// compile-time check: the router satisfies the plug-ins' surface.
var _ Provenance = (*shard.Router)(nil)

// DefaultCompactRatio is the garbage-ratio threshold above which a
// deletion triggers an online compaction of the backend: once half the
// stored bytes are dead, rewriting the live half costs less than
// carrying the garbage.
const DefaultCompactRatio = 0.5

// Provenance is the store-shaped surface the plug-ins serve: a
// shard.Router, over the one embedded store of a single-store service
// or over several shards. The service layer is identical either way,
// which is what makes the sharded service mode a wiring change rather
// than a reimplementation.
type Provenance interface {
	shard.Shard
	// CompactAbove compacts only the parts whose garbage ratio reached
	// threshold: for one store that is the store or nothing; for a
	// router, just the hot shards — scheduled reclamation must not
	// rewrite every clean shard because one crossed the line.
	CompactAbove(threshold float64) error
	EngineStats() shard.EngineStats
}

// StorePlugIn handles the mutating actions: record submissions
// (prep.ActionRecord), retractions (prep.ActionDelete) and online
// compaction (prep.ActionCompact).
type StorePlugIn struct {
	prov Provenance
	// compactRatio holds the garbage-ratio threshold for delete-
	// triggered compaction as float64 bits, so SetCompactRatio may be
	// called while delete traffic is in flight: maybeCompact reads it
	// on every delete, and a plain float64 field here was a data race
	// (caught by -race under concurrent deletes). Zero (the natural
	// zero value) means DefaultCompactRatio; negative disables
	// automatic compaction (explicit ActionCompact still works).
	compactRatio atomic.Uint64
	// Request accounting lives in the service registry so one
	// CounterSnapshot sees every counter at a single point in time, and
	// related counters (a request plus the records it accepted) update
	// atomically with respect to that snapshot via reg.Batch — the
	// field-by-field reads the old per-plugin atomics allowed could
	// tear (requests incremented at entry, accepted at completion).
	reg             *obs.Registry
	requests        *obs.Counter
	recordsAccepted *obs.Counter
	deleteRequests  *obs.Counter
	recordsDeleted  *obs.Counter
	compactions     *obs.Counter
	// compactMu serialises compactions: concurrent deletes must not pile
	// up rewrites of the same log.
	compactMu sync.Mutex
}

// NewStorePlugIn returns a store plug-in over p, accounting into reg
// (nil creates a private registry).
func NewStorePlugIn(p Provenance, reg *obs.Registry) *StorePlugIn {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &StorePlugIn{
		prov:            p,
		reg:             reg,
		requests:        reg.Counter("preserv_record_requests_total"),
		recordsAccepted: reg.Counter("preserv_records_accepted_total"),
		deleteRequests:  reg.Counter("preserv_delete_requests_total"),
		recordsDeleted:  reg.Counter("preserv_records_deleted_total"),
		compactions:     reg.Counter("preserv_compactions_total"),
	}
}

// SetCompactRatio atomically replaces the garbage-ratio threshold for
// delete-triggered compaction (zero restores DefaultCompactRatio,
// negative disables). Safe to call with delete requests in flight.
func (p *StorePlugIn) SetCompactRatio(r float64) {
	p.compactRatio.Store(math.Float64bits(r))
}

// compactThreshold reads the effective threshold atomically.
func (p *StorePlugIn) compactThreshold() float64 {
	threshold := math.Float64frombits(p.compactRatio.Load())
	if threshold == 0 {
		threshold = DefaultCompactRatio
	}
	return threshold
}

// Actions implements soap.Handler.
func (p *StorePlugIn) Actions() []string {
	return []string{prep.ActionRecord, prep.ActionDelete, prep.ActionCompact}
}

// Handle implements soap.Handler. Errors returned to the soap layer
// must stay errors.Is-matchable across the wire.
//
// provlint:typed-faults
func (p *StorePlugIn) Handle(action string, body *soap.Message) (interface{}, error) {
	switch action {
	case prep.ActionRecord:
		var req prep.RecordRequest
		if err := body.Decode(&req); err != nil {
			p.requests.Add(1)
			return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "bad record request: " + err.Error()}
		}
		accepted, rejects, err := p.prov.Record(req.Asserter, req.Records)
		if err != nil {
			p.requests.Add(1)
			return nil, err
		}
		// The request and its accepted count land together: a stats
		// snapshot sees both or neither, never a request whose records
		// are still unaccounted.
		p.reg.Batch(func() {
			p.requests.Add(1)
			p.recordsAccepted.Add(int64(accepted))
		})
		return &prep.RecordResponse{Accepted: accepted, Rejects: rejects}, nil
	case prep.ActionDelete:
		var req prep.DeleteRequest
		if err := body.Decode(&req); err != nil {
			p.deleteRequests.Add(1)
			return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "bad delete request: " + err.Error()}
		}
		if err := req.Validate(); err != nil {
			p.deleteRequests.Add(1)
			return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: err.Error()}
		}
		deleted := 0
		var derr error
		switch {
		case req.StorageKey != "":
			deleted, derr = p.prov.DeleteRecords([]string{req.StorageKey})
		case len(req.StorageKeys) > 0:
			deleted, derr = p.prov.DeleteRecords(req.StorageKeys)
		default:
			deleted, derr = p.prov.DeleteSession(req.SessionID)
		}
		p.reg.Batch(func() {
			p.deleteRequests.Add(1)
			p.recordsDeleted.Add(int64(deleted))
		})
		if derr != nil {
			return nil, derr
		}
		resp := &prep.DeleteResponse{Deleted: deleted}
		if deleted > 0 {
			// A failed scheduled compaction must not mask the delete,
			// which already succeeded: report it in the response instead
			// of turning the whole request into a fault.
			var err error
			if resp.Compacted, err = p.maybeCompact(); err != nil {
				resp.CompactError = err.Error()
			}
		}
		resp.GarbageRatio = p.prov.GarbageRatio()
		return resp, nil
	case prep.ActionCompact:
		var req prep.CompactRequest
		if err := body.Decode(&req); err != nil {
			return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "bad compact request: " + err.Error()}
		}
		before := p.prov.GarbageRatio()
		p.compactMu.Lock()
		err := p.prov.Compact()
		p.compactMu.Unlock()
		if err != nil {
			return nil, err
		}
		p.compactions.Add(1)
		return &prep.CompactResponse{GarbageBefore: before, GarbageAfter: p.prov.GarbageRatio()}, nil
	}
	return nil, &soap.Fault{Code: soap.FaultBadAction, Message: action}
}

// maybeCompact runs an online compaction when the backend's garbage
// ratio has crossed the plug-in's threshold — the scheduled reclamation
// that keeps deletions from growing the store without bound. It runs
// inline with the triggering delete request: deletions are rare
// administrative operations, and an inline compaction keeps the
// observable state deterministic (the response reports whether it ran).
func (p *StorePlugIn) maybeCompact() (bool, error) {
	threshold := p.compactThreshold()
	if threshold < 0 || p.prov.GarbageRatio() < threshold {
		return false, nil
	}
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	// Re-check under the compaction lock: a concurrent delete may have
	// just compacted the garbage away.
	if p.prov.GarbageRatio() < threshold {
		return false, nil
	}
	// Selective: only the store/shards at or over the threshold are
	// rewritten (explicit ActionCompact still compacts everything).
	if err := p.prov.CompactAbove(threshold); err != nil {
		return false, fmt.Errorf("preserv: scheduled compaction: %w", err)
	}
	p.compactions.Add(1)
	return true, nil
}

// QueryPlugIn handles queries (scanned and planned), session listings
// and counts.
type QueryPlugIn struct {
	prov     Provenance
	requests *obs.Counter
}

// NewQueryPlugIn returns a query plug-in over p, accounting into reg
// (nil creates a private registry). Planned-query actions run through
// the shards' query planners (secondary indexes, fanned out and merged
// behind the router's result cache); the plain query action keeps the
// scan path the paper measures.
func NewQueryPlugIn(p Provenance, reg *obs.Registry) *QueryPlugIn {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &QueryPlugIn{prov: p, requests: reg.Counter("preserv_query_requests_total")}
}

// Actions implements soap.Handler.
func (p *QueryPlugIn) Actions() []string {
	return []string{prep.ActionQuery, prep.ActionPlannedQuery, prep.ActionQueryPage, prep.ActionSessions, prep.ActionCount}
}

// Handle implements soap.Handler. Errors returned to the soap layer
// must stay errors.Is-matchable across the wire.
//
// provlint:typed-faults
func (p *QueryPlugIn) Handle(action string, body *soap.Message) (interface{}, error) {
	p.requests.Add(1)
	switch action {
	case prep.ActionQuery:
		var q prep.Query
		if err := body.Decode(&q); err != nil {
			return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "bad query: " + err.Error()}
		}
		records, total, err := p.prov.Query(&q)
		if err != nil {
			return nil, err
		}
		return &prep.QueryResponse{Total: total, Records: records}, nil
	case prep.ActionPlannedQuery:
		var q prep.Query
		if err := body.Decode(&q); err != nil {
			return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "bad query: " + err.Error()}
		}
		records, total, plan, err := p.prov.QueryPlanned(&q)
		if err != nil {
			return nil, err
		}
		return &prep.PlannedQueryResponse{Total: total, Plan: *plan, Records: records}, nil
	case prep.ActionQueryPage:
		var req prep.PageQueryRequest
		if err := body.Decode(&req); err != nil {
			return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "bad page query: " + err.Error()}
		}
		records, next, done, plan, err := p.prov.QueryPage(&req.Query, req.After, req.PageSize)
		if err != nil {
			// An undecodable composite cursor (corrupted, or minted
			// against a resized topology) is client input, not a server
			// failure — fault it like every other bad-input path. The
			// fault keeps ErrBadCursor's message, which is what lets
			// Client.QueryPage re-type it.
			if errors.Is(err, shard.ErrBadCursor) {
				return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "bad page query: " + err.Error()}
			}
			return nil, err
		}
		return &prep.PageQueryResponse{Plan: *plan, Next: next, Done: done, Records: records}, nil
	case prep.ActionSessions:
		sessions, err := p.prov.Sessions()
		if err != nil {
			return nil, err
		}
		return &prep.SessionsResponse{Sessions: sessions}, nil
	case prep.ActionCount:
		cnt, err := p.prov.Count()
		if err != nil {
			return nil, err
		}
		return &cnt, nil
	}
	return nil, &soap.Fault{Code: soap.FaultBadAction, Message: action}
}

// StatsPlugIn handles prep.ActionStats: the wire window onto the
// service's telemetry. It is what closes the remote-shard gap — a
// router fronting this endpoint as a RemoteShard polls it for the
// garbage ratio, tombstones and engine counters the base wire protocol
// never carried.
type StatsPlugIn struct {
	svc *Service
}

// Actions implements soap.Handler.
func (p *StatsPlugIn) Actions() []string { return []string{prep.ActionStats} }

// Handle implements soap.Handler. Errors returned to the soap layer
// must stay errors.Is-matchable across the wire.
//
// provlint:typed-faults
func (p *StatsPlugIn) Handle(action string, body *soap.Message) (interface{}, error) {
	var req prep.StatsRequest
	if err := body.Decode(&req); err != nil {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "bad stats request: " + err.Error()}
	}
	return p.svc.StatsResponse()
}

// timedHandler wraps a plug-in, timing every request into a per-action
// latency histogram and span. The histograms are resolved per action
// at construction, so serving a request costs no registry lookup.
type timedHandler struct {
	inner soap.Handler
	reg   *obs.Registry
	hists map[string]*obs.Histogram
}

func newTimedHandler(inner soap.Handler, reg *obs.Registry) *timedHandler {
	th := &timedHandler{inner: inner, reg: reg, hists: make(map[string]*obs.Histogram)}
	for _, a := range inner.Actions() {
		th.hists[a] = reg.Histogram(fmt.Sprintf(`preserv_request_seconds{action=%q}`, actionShort(a)), nil)
	}
	return th
}

// actionShort strips the URI prefix: "urn:prep:record" -> "record".
func actionShort(action string) string { return strings.TrimPrefix(action, "urn:prep:") }

// Actions implements soap.Handler.
func (th *timedHandler) Actions() []string { return th.inner.Actions() }

// Handle implements soap.Handler. Errors returned to the soap layer
// must stay errors.Is-matchable across the wire.
//
// provlint:typed-faults
func (th *timedHandler) Handle(action string, body *soap.Message) (interface{}, error) {
	span := th.reg.Tracer().StartSpan("preserv." + actionShort(action))
	reply, err := th.inner.Handle(action, body)
	span.Observe(th.hists[action], err)
	return reply, err
}

// Service is a PReServ instance: a shard router (over one store, or
// fronting several) plus the translator wiring.
type Service struct {
	// Store is the embedded store of a single-store service; nil when
	// the service was built over a router (use Provenance then).
	Store   *store.Store
	rt      *shard.Router
	prov    Provenance
	reg     *obs.Registry
	storeP  *StorePlugIn
	queryP  *QueryPlugIn
	handler http.Handler
	// pprofOn gates the /debug/pprof handlers Serve wires up; set it
	// via EnablePprof before Serve.
	pprofOn atomic.Bool
}

// NewService assembles a PReServ service over the given store: a
// router over one shard, so the router's result cache is the store's.
func NewService(s *store.Store) *Service {
	rt, _ := shard.NewRouter(shard.NewLocal(s)) // one shard: cannot fail
	svc := newService(rt, oneStore{rt})
	svc.Store = s
	return svc
}

// oneStore is a single-store service's Provenance: its one-shard router
// under a type of its own, so that asserting *shard.Router on
// Service.Provenance still tells a sharded front from a single store
// (benchmark/topology.go does).
type oneStore struct{ *shard.Router }

// NewShardedService assembles a PReServ service over a shard router —
// the sharded service mode: the same actions, handlers and telemetry as
// a single-store service, with every request fanned, routed and merged
// by the router. The front-end is indistinguishable from one big store
// to clients.
func NewShardedService(rt *shard.Router) *Service {
	return newService(rt, rt)
}

func newService(rt *shard.Router, p Provenance) *Service {
	reg := obs.NewRegistry()
	sp := NewStorePlugIn(p, reg)
	qp := NewQueryPlugIn(p, reg)
	svc := &Service{
		rt:     rt,
		prov:   p,
		reg:    reg,
		storeP: sp,
		queryP: qp,
	}
	svc.handler = soap.NewHTTPHandler(
		newTimedHandler(sp, reg),
		newTimedHandler(qp, reg),
		newTimedHandler(&StatsPlugIn{svc: svc}, reg),
	)
	return svc
}

// Obs returns the service's telemetry registry (request counters and
// per-action latency histograms; store/router registries live with
// their owners).
func (svc *Service) Obs() *obs.Registry { return svc.reg }

// EnablePprof makes Serve expose net/http/pprof under /debug/pprof on
// this service's listener. Off by default: profiling endpoints leak
// internals and belong behind an explicit operator decision.
func (svc *Service) EnablePprof() { svc.pprofOn.Store(true) }

// Provenance returns the store surface the service serves: the shard
// router (on a single store, under the oneStore type).
func (svc *Service) Provenance() Provenance { return svc.prov }

// Handler returns the HTTP handler (the message-translator layer).
func (svc *Service) Handler() http.Handler { return svc.handler }

// SetCompactRatio sets the garbage-ratio threshold for delete-triggered
// online compaction (negative disables it). Safe to call while serving:
// the threshold is stored atomically and picked up by the next delete.
func (svc *Service) SetCompactRatio(r float64) { svc.storeP.SetCompactRatio(r) }

// StatsResponse assembles the urn:prep:stats reply — the service's one
// telemetry snapshot: the request counters, whole-store aggregates, the
// per-shard breakdown (local shards report in full; remote shards are
// polled over the wire), and the service's and the router's histograms
// and slow logs. The request counters come from one registry snapshot, so
// they are consistent with each other: a record request and the records
// it accepted appear together or not at all.
func (svc *Service) StatsResponse() (*prep.StatsResponse, error) {
	counters := svc.reg.CounterSnapshot()
	rt := svc.rt
	count, err := rt.Count()
	if err != nil {
		return nil, err
	}
	shards, err := rt.ShardStats()
	if err != nil {
		return nil, err
	}
	resp := &prep.StatsResponse{
		RecordRequests:  counters["preserv_record_requests_total"],
		RecordsAccepted: counters["preserv_records_accepted_total"],
		QueryRequests:   counters["preserv_query_requests_total"],
		DeleteRequests:  counters["preserv_delete_requests_total"],
		RecordsDeleted:  counters["preserv_records_deleted_total"],
		Compactions:     counters["preserv_compactions_total"],
		Records:         count.Records,
		NumShards:       rt.NumShards(),
		GarbageRatio:    rt.GarbageRatio(),
		Tombstones:      rt.Tombstones(),
		Engine:          rt.EngineStats(),
		Shards:          shards,
		// The router's own instruments (fan-out latency, merge width)
		// belong to no single shard: report them at the top level next
		// to the service's request histograms.
		Histograms: append(shard.HistogramStats(svc.reg), shard.HistogramStats(rt.Obs())...),
		Slow:       append(shard.SlowSpans(svc.reg.Tracer()), shard.SlowSpans(rt.Obs().Tracer())...),
	}
	resp.Generation, resp.GenerationValid = rt.Generation()
	// The whole-store write-path aggregate sums the shard breakdowns
	// (each shard's in-flight compactions and commit stalls).
	for i := range resp.Shards {
		resp.WritePath.Add(resp.Shards[i].WritePath)
	}
	return resp, nil
}

// MetricsHandler serves the service's telemetry in the Prometheus text
// exposition format: the service registry (request counters and
// per-action latency), the router registry, and every embedded shard's
// store registry — unlabelled on a single store, labelled shard="i"
// where there are several. Remote shards export their own /metrics.
func (svc *Service) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		exports := []obs.Export{{Reg: svc.reg}, {Reg: svc.rt.Obs()}}
		n := svc.rt.NumShards()
		for i := 0; i < n; i++ {
			if l, ok := svc.rt.Shard(i).(*shard.Local); ok {
				e := obs.Export{Reg: l.Store().Obs()}
				if n > 1 {
					e.Labels = fmt.Sprintf(`shard="%d"`, i)
				}
				exports = append(exports, e)
			}
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, exports...)
	})
}

// DefaultDrainTimeout is how long Server.Close waits for in-flight
// requests to finish before forcibly closing their connections.
const DefaultDrainTimeout = 5 * time.Second

// Server is a listening PReServ endpoint.
type Server struct {
	// URL is the service endpoint, e.g. "http://127.0.0.1:8734".
	URL string
	// DrainTimeout bounds how long Close waits for in-flight requests;
	// zero means DefaultDrainTimeout.
	DrainTimeout time.Duration
	ln           net.Listener
	httpSrv      *http.Server
	done         chan struct{}

	// mu guards fresh and cut. fresh holds the connections that have
	// not yet delivered a whole request header (http.StateNew).
	// http.Server.Shutdown waits up to 5 s for such a connection, and a
	// client's connection pool leaves them behind whenever it dials one
	// it then does not use. Close gives them freshGrace to deliver a
	// request already sent, then cuts them (and sets cut).
	mu    sync.Mutex
	fresh map[net.Conn]struct{}
	cut   bool
}

// freshGrace is how long Close lets a connection that has not yet
// delivered a request keep it open: ample to read a request already in
// the socket, and well short of http.Server.Shutdown's 5 s.
const freshGrace = 100 * time.Millisecond

// Serve starts serving svc on addr (use "127.0.0.1:0" to pick a free
// port). It returns once the listener is active. Besides the PReP
// endpoint at "/", the server exposes the service's telemetry at
// "/metrics" (Prometheus text format) and — only when EnablePprof was
// called — the net/http/pprof handlers under "/debug/pprof/".
func Serve(svc *Service, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("preserv: listening on %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.Handle("/metrics", svc.MetricsHandler())
	if svc.pprofOn.Load() {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return serve(ln, mux), nil
}

// serve starts serving h on ln.
func serve(ln net.Listener, h http.Handler) *Server {
	srv := &Server{
		URL:   "http://" + ln.Addr().String(),
		ln:    ln,
		done:  make(chan struct{}),
		fresh: make(map[net.Conn]struct{}),
	}
	srv.httpSrv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, ConnState: srv.trackFresh}
	go func() {
		defer close(srv.done)
		// ErrServerClosed is the normal shutdown signal.
		_ = srv.httpSrv.Serve(ln)
	}()
	return srv
}

// trackFresh keeps fresh current as connections change state, and
// cuts a connection accepted after Close has cut the fresh ones.
func (s *Server) trackFresh(c net.Conn, state http.ConnState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case state == http.StateNew && s.cut:
		c.Close()
	case state == http.StateNew:
		s.fresh[c] = struct{}{}
	default:
		delete(s.fresh, c)
	}
}

// cutFresh closes every connection that has not delivered a request.
func (s *Server) cutFresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cut = true
	for c := range s.fresh {
		c.Close()
	}
}

// Close stops the server gracefully: the listener closes immediately
// (no new connections), connections that have not delivered a request
// within freshGrace are cut, in-flight record and query requests get up
// to DrainTimeout to complete their responses, and only then are the
// remaining connections forcibly closed. It waits for the serve loop to
// exit before returning.
func (s *Server) Close() error {
	timeout := s.DrainTimeout
	if timeout <= 0 {
		timeout = DefaultDrainTimeout
	}
	cut := time.AfterFunc(freshGrace, s.cutFresh)
	defer cut.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if err != nil {
		// Drain deadline passed (or shutdown failed) with requests still
		// running: cut the stragglers off rather than hang.
		_ = s.httpSrv.Close()
	}
	<-s.done
	return err
}

// Client talks PReP to a provenance store endpoint.
type Client struct {
	ep *soap.Endpoint
}

// NewClient returns a client for the store at url. Of httpClient (nil:
// one with a 60 s timeout) the client uses its Timeout, which bounds
// each call. Messages go through httpClient itself only where its
// transport would do more than speak plain HTTP/1.1 to url's host: url
// is not http://, the Transport is not an *http.Transport, or its Proxy
// picks a proxy for url (soap.Endpoint).
func NewClient(url string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 60 * time.Second}
	}
	return &Client{ep: soap.NewEndpoint(url, httpClient)}
}

// URL returns the endpoint this client records to.
func (c *Client) URL() string { return c.ep.URL() }

// Record submits a batch of p-assertions asserted by asserter.
func (c *Client) Record(asserter core.ActorID, records []core.Record) (*prep.RecordResponse, error) {
	req := &prep.RecordRequest{Asserter: asserter, Records: records}
	var resp prep.RecordResponse
	if err := c.ep.Post(prep.ActionRecord, req, &resp); err != nil {
		return nil, fmt.Errorf("preserv: record: %w", err)
	}
	return &resp, nil
}

// Query retrieves records matching q via the store's scan path.
func (c *Client) Query(q *prep.Query) ([]core.Record, int, error) {
	var resp prep.QueryResponse
	if err := c.ep.Post(prep.ActionQuery, q, &resp); err != nil {
		return nil, 0, fmt.Errorf("preserv: query: %w", err)
	}
	return resp.Records, resp.Total, nil
}

// QueryPlanned retrieves records matching q via the store's query
// planner (secondary indexes plus result cache), returning the plan the
// server chose alongside the results. Results are identical to Query.
func (c *Client) QueryPlanned(q *prep.Query) ([]core.Record, int, *prep.QueryPlan, error) {
	var resp prep.PlannedQueryResponse
	if err := c.ep.Post(prep.ActionPlannedQuery, q, &resp); err != nil {
		return nil, 0, nil, fmt.Errorf("preserv: planned query: %w", err)
	}
	plan := resp.Plan
	return resp.Records, resp.Total, &plan, nil
}

// QueryPage retrieves one cursor-delimited page of q's results via the
// store's query planner: up to pageSize records with storage keys
// strictly greater than after (empty after starts from the beginning).
// The server computes each page with early termination — candidates
// beyond it are never visited — so q.Limit is ignored and no total is
// reported. Use resp.Next as the following call's after; resp.Done
// reports exhaustion.
func (c *Client) QueryPage(q *prep.Query, after string, pageSize int) (*prep.PageQueryResponse, error) {
	req := &prep.PageQueryRequest{Query: *q, After: after, PageSize: pageSize}
	var resp prep.PageQueryResponse
	if err := c.ep.Post(prep.ActionQueryPage, req, &resp); err != nil {
		// A sharded server rejects a cursor it cannot decode
		// (shard.ErrBadCursor) with a bad-request fault carrying the
		// sentinel's message. Re-type it so callers can match it with
		// errors.Is instead of string matching.
		var fault *soap.Fault
		if errors.As(err, &fault) && fault.Code == soap.FaultBadRequest &&
			strings.Contains(fault.Message, shard.ErrBadCursor.Error()) {
			return nil, fmt.Errorf("preserv: page query: %w: %s", shard.ErrBadCursor, fault.Message)
		}
		return nil, fmt.Errorf("preserv: page query: %w", err)
	}
	return &resp, nil
}

// QueryStream retrieves every record matching q by paging through
// QueryPage, invoking fn once per record in storage-key order. The
// store never buffers more than one page per request, however large the
// result set; fn returning an error aborts the stream. pageSize <= 0
// selects the server default. It returns the last page's plan (each
// page is planned afresh; cardinalities can shift between pages as the
// store grows).
func (c *Client) QueryStream(q *prep.Query, pageSize int, fn func(r *core.Record) error) (*prep.QueryPlan, error) {
	after := ""
	var plan prep.QueryPlan
	for {
		resp, err := c.QueryPage(q, after, pageSize)
		if err != nil {
			return nil, err
		}
		plan = resp.Plan
		for i := range resp.Records {
			if err := fn(&resp.Records[i]); err != nil {
				return nil, err
			}
		}
		if resp.Done || resp.Next == "" {
			return &plan, nil
		}
		after = resp.Next
	}
}

// DeleteRecord retracts the record stored under the given storage key.
// It returns the server's acknowledgement; Deleted is 0 when the key
// was already absent (retraction is idempotent).
func (c *Client) DeleteRecord(storageKey string) (*prep.DeleteResponse, error) {
	return c.delete(&prep.DeleteRequest{StorageKey: storageKey})
}

// DeleteRecords retracts the records stored under the given keys in one
// round trip — the form a router uses to fan a key batch out to a
// remote shard.
func (c *Client) DeleteRecords(storageKeys []string) (*prep.DeleteResponse, error) {
	return c.delete(&prep.DeleteRequest{StorageKeys: storageKeys})
}

// DeleteSession retracts every record grouped under the session.
func (c *Client) DeleteSession(session ids.ID) (*prep.DeleteResponse, error) {
	return c.delete(&prep.DeleteRequest{SessionID: session})
}

func (c *Client) delete(req *prep.DeleteRequest) (*prep.DeleteResponse, error) {
	var resp prep.DeleteResponse
	if err := c.ep.Post(prep.ActionDelete, req, &resp); err != nil {
		return nil, fmt.Errorf("preserv: delete: %w", err)
	}
	return &resp, nil
}

// Compact asks the store to compact its backend online, reclaiming the
// dead bytes deletions and overwrites leave behind. The response
// reports the garbage ratio before and after.
func (c *Client) Compact() (*prep.CompactResponse, error) {
	var resp prep.CompactResponse
	if err := c.ep.Post(prep.ActionCompact, &prep.CompactRequest{}, &resp); err != nil {
		return nil, fmt.Errorf("preserv: compact: %w", err)
	}
	return &resp, nil
}

// Sessions lists the distinct session identifiers recorded in the
// store, sorted, answered from the store's session index.
func (c *Client) Sessions() ([]ids.ID, error) {
	var resp prep.SessionsResponse
	if err := c.ep.Post(prep.ActionSessions, &prep.SessionsRequest{}, &resp); err != nil {
		return nil, fmt.Errorf("preserv: sessions: %w", err)
	}
	return resp.Sessions, nil
}

// Count retrieves store statistics.
func (c *Client) Count() (prep.CountResponse, error) {
	var resp prep.CountResponse
	if err := c.ep.Post(prep.ActionCount, &prep.CountRequest{}, &resp); err != nil {
		return prep.CountResponse{}, fmt.Errorf("preserv: count: %w", err)
	}
	return resp, nil
}

// StoreStats retrieves the endpoint's full telemetry snapshot via
// urn:prep:stats: request counters, garbage state, engine counters,
// per-shard breakdown, histogram summaries and the slow-operation log.
func (c *Client) StoreStats() (*prep.StatsResponse, error) {
	var resp prep.StatsResponse
	if err := c.ep.Post(prep.ActionStats, &prep.StatsRequest{}, &resp); err != nil {
		return nil, fmt.Errorf("preserv: stats: %w", err)
	}
	return &resp, nil
}
