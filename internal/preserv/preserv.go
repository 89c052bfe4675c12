// Package preserv implements PReServ — Provenance Recording for
// Services — as an HTTP web service, following the layered design of the
// paper's Figure 3: a message translator (internal/soap) strips the
// transport headers and hands the body to the action registered for the
// message's action URI. The figure's Store and Query plug-ins are the
// Service's action methods, listed once in one table (newService); they
// call the Provenance Store Interface (internal/store), which runs over
// interchangeable backends.
package preserv

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
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

// Provenance is the store-shaped surface the actions serve: a
// shard.Router, over the one embedded store of a single-store service
// or over several shards. The service layer is identical either way,
// which is what makes the sharded service mode a wiring change rather
// than a reimplementation.
type Provenance = shard.Shard

// Service is a PReServ instance: a shard router (over one store, or
// fronting several), the PReP actions over it, and the translator that
// dispatches to them.
type Service struct {
	rt      *shard.Router
	prov    Provenance
	handler *soap.HTTPHandler
	// Request accounting lives in the service registry so one
	// CounterSnapshot sees every counter at a single point in time, and
	// related counters (a request plus the records it accepted) update
	// atomically with respect to that snapshot via reg.Batch — the
	// field-by-field reads of separate atomics could tear (requests
	// incremented at entry, accepted at completion).
	reg             *obs.Registry
	recordRequests  *obs.Counter
	recordsAccepted *obs.Counter
	deleteRequests  *obs.Counter
	recordsDeleted  *obs.Counter
	compactions     *obs.Counter
	queryRequests   *obs.Counter
	// pprofOn gates the /debug/pprof handlers Serve wires up; set it
	// via EnablePprof before Serve.
	pprofOn atomic.Bool
}

// NewService assembles a PReServ service over the given store: a
// router over one shard, so the router's result cache is the store's.
func NewService(s *store.Store) *Service {
	rt, _ := shard.NewRouter(shard.NewLocal(s)) // one shard: cannot fail
	return newService(rt, oneStore{rt})
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
	svc := &Service{
		rt:              rt,
		prov:            p,
		reg:             reg,
		recordRequests:  reg.Counter("preserv_record_requests_total"),
		recordsAccepted: reg.Counter("preserv_records_accepted_total"),
		deleteRequests:  reg.Counter("preserv_delete_requests_total"),
		recordsDeleted:  reg.Counter("preserv_records_deleted_total"),
		compactions:     reg.Counter("preserv_compactions_total"),
		queryRequests:   reg.Counter("preserv_query_requests_total"),
	}
	actions := map[string]soap.Action{
		prep.ActionRecord:       svc.record,
		prep.ActionDelete:       svc.delete,
		prep.ActionCompact:      svc.compact,
		prep.ActionQuery:        svc.query,
		prep.ActionPlannedQuery: svc.plannedQuery,
		prep.ActionQueryPage:    svc.queryPage,
		prep.ActionSessions:     svc.sessions,
		prep.ActionCount:        svc.count,
		prep.ActionStats:        svc.stats,
	}
	// Each action is timed into its own latency histogram and span,
	// both named here, so serving a request costs no registry lookup
	// and builds no name.
	tr := reg.Tracer()
	for action, do := range actions {
		short := strings.TrimPrefix(action, "urn:prep:")
		name, hist := "preserv."+short, reg.Histogram(fmt.Sprintf(`preserv_request_seconds{action=%q}`, short), nil)
		actions[action] = func(body *soap.Message) (any, error) {
			span := tr.StartSpan(name)
			reply, err := do(body)
			span.Observe(hist, err)
			return reply, err
		}
	}
	svc.handler = soap.NewHTTPHandler(actions)
	return svc
}

// record handles prep.ActionRecord: a batch of p-assertions to store.
// Errors returned to the soap layer must stay errors.Is-matchable
// across the wire; so must every action's below.
//
// provlint:typed-faults
func (svc *Service) record(body *soap.Message) (any, error) {
	var req prep.RecordRequest
	if err := body.Decode(&req); err != nil {
		svc.recordRequests.Add(1)
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "bad record request: " + err.Error()}
	}
	accepted, rejects, err := svc.prov.Record(req.Asserter, req.Records)
	if err != nil {
		svc.recordRequests.Add(1)
		return nil, err
	}
	// The request and its accepted count land together: a stats
	// snapshot sees both or neither, never a request whose records
	// are still unaccounted.
	svc.reg.Batch(func() {
		svc.recordRequests.Add(1)
		svc.recordsAccepted.Add(int64(accepted))
	})
	return &prep.RecordResponse{Accepted: accepted, Rejects: rejects}, nil
}

// delete handles prep.ActionDelete: the retraction of one record, a key
// batch or a whole session. Each store compacts itself when the delete
// leaves it at store.CompactRatio garbage; the reply reports the ratio
// that remains.
//
// provlint:typed-faults
func (svc *Service) delete(body *soap.Message) (any, error) {
	var req prep.DeleteRequest
	if err := body.Decode(&req); err != nil {
		svc.deleteRequests.Add(1)
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "bad delete request: " + err.Error()}
	}
	if err := req.Validate(); err != nil {
		svc.deleteRequests.Add(1)
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: err.Error()}
	}
	deleted := 0
	var derr error
	switch {
	case req.StorageKey != "":
		deleted, derr = svc.prov.DeleteRecords([]string{req.StorageKey})
	case len(req.StorageKeys) > 0:
		deleted, derr = svc.prov.DeleteRecords(req.StorageKeys)
	default:
		deleted, derr = svc.prov.DeleteSession(req.SessionID)
	}
	svc.reg.Batch(func() {
		svc.deleteRequests.Add(1)
		svc.recordsDeleted.Add(int64(deleted))
	})
	if derr != nil {
		return nil, derr
	}
	return &prep.DeleteResponse{Deleted: deleted, GarbageRatio: svc.prov.GarbageRatio()}, nil
}

// compact handles prep.ActionCompact: an online compaction of every
// part of the store.
//
// provlint:typed-faults
func (svc *Service) compact(body *soap.Message) (any, error) {
	var req prep.CompactRequest
	if err := body.Decode(&req); err != nil {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "bad compact request: " + err.Error()}
	}
	before := svc.prov.GarbageRatio()
	if err := svc.prov.Compact(); err != nil {
		return nil, err
	}
	svc.compactions.Add(1)
	return &prep.CompactResponse{GarbageBefore: before, GarbageAfter: svc.prov.GarbageRatio()}, nil
}

// query handles prep.ActionQuery through the store's scan path, the
// one the paper measures.
//
// provlint:typed-faults
func (svc *Service) query(body *soap.Message) (any, error) {
	svc.queryRequests.Add(1)
	var q prep.Query
	if err := body.Decode(&q); err != nil {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "bad query: " + err.Error()}
	}
	records, total, err := svc.prov.Query(&q)
	if err != nil {
		return nil, err
	}
	return &prep.QueryResponse{Total: total, Records: records}, nil
}

// plannedQuery handles prep.ActionPlannedQuery through the shards'
// query planners (secondary indexes, fanned out and merged behind the
// router's result cache).
//
// provlint:typed-faults
func (svc *Service) plannedQuery(body *soap.Message) (any, error) {
	svc.queryRequests.Add(1)
	var q prep.Query
	if err := body.Decode(&q); err != nil {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "bad query: " + err.Error()}
	}
	records, total, plan, err := svc.prov.QueryPlanned(&q)
	if err != nil {
		return nil, err
	}
	return &prep.PlannedQueryResponse{Total: total, Plan: *plan, Records: records}, nil
}

// queryPage handles prep.ActionQueryPage: one cursor-delimited page of
// a planned query.
//
// provlint:typed-faults
func (svc *Service) queryPage(body *soap.Message) (any, error) {
	svc.queryRequests.Add(1)
	var req prep.PageQueryRequest
	if err := body.Decode(&req); err != nil {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "bad page query: " + err.Error()}
	}
	records, next, done, plan, err := svc.prov.QueryPage(&req.Query, req.After, req.PageSize)
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
}

// sessions handles prep.ActionSessions from the session index. It reads
// no payload.
//
// provlint:typed-faults
func (svc *Service) sessions(*soap.Message) (any, error) {
	svc.queryRequests.Add(1)
	sessions, err := svc.prov.Sessions()
	if err != nil {
		return nil, err
	}
	return &prep.SessionsResponse{Sessions: sessions}, nil
}

// count handles prep.ActionCount. It reads no payload.
//
// provlint:typed-faults
func (svc *Service) count(*soap.Message) (any, error) {
	svc.queryRequests.Add(1)
	cnt, err := svc.prov.Count()
	if err != nil {
		return nil, err
	}
	return &cnt, nil
}

// stats handles prep.ActionStats: the wire window onto the service's
// telemetry. It is what closes the remote-shard gap — a router fronting
// this endpoint as a RemoteShard polls it for the garbage ratio,
// tombstones and engine counters the base wire protocol never carried.
//
// provlint:typed-faults
func (svc *Service) stats(body *soap.Message) (any, error) {
	var req prep.StatsRequest
	if err := body.Decode(&req); err != nil {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "bad stats request: " + err.Error()}
	}
	return svc.StatsResponse()
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

// Handler returns the HTTP handler (the message-translator layer), an
// *soap.HTTPHandler: soap.Server's loop serves POSTs to that type
// itself.
func (svc *Service) Handler() http.Handler { return svc.handler }

// StatsResponse assembles the urn:prep:stats reply — the service's one
// telemetry snapshot: the request counters and the router's stats tree
// from one fan-out (local shards report in full; remote shards are
// polled over the wire once each), whose root carries the service's
// histograms and history ahead of the router's. The request counters
// come from one registry snapshot, so they are consistent with each
// other: a record request and the records it accepted appear together
// or not at all.
func (svc *Service) StatsResponse() (*prep.StatsResponse, error) {
	counters := svc.reg.CounterSnapshot()
	root, err := svc.rt.ShardStats()
	if err != nil {
		return nil, err
	}
	root.Histograms = append(shard.HistogramStats(svc.reg), root.Histograms...)
	root.Slow = append(shard.SlowSpans(svc.reg.Tracer()), root.Slow...)
	resp := &prep.StatsResponse{
		RecordRequests:  counters["preserv_record_requests_total"],
		RecordsAccepted: counters["preserv_records_accepted_total"],
		QueryRequests:   counters["preserv_query_requests_total"],
		DeleteRequests:  counters["preserv_delete_requests_total"],
		RecordsDeleted:  counters["preserv_records_deleted_total"],
		Compactions:     counters["preserv_compactions_total"],
		ShardStats:      root,
	}
	// After the fan-out: a remote shard's stamp then comes from the
	// reply it just sent, not from a second poll.
	resp.Generation, resp.GenerationValid = svc.rt.Generation()
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
const DefaultDrainTimeout = soap.DefaultDrainTimeout

// Server is a listening PReServ endpoint. Its Close stops it
// gracefully: the listener and the connections idle between requests
// close at once, connections that have not delivered a request within
// 100 ms are cut, and in-flight record and query requests get up to
// DrainTimeout to complete their responses before the remaining
// connections are forcibly closed.
type Server = soap.Server

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
func serve(ln net.Listener, h http.Handler) *Server { return soap.Serve(ln, h) }

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
// urn:prep:stats: request counters, the content stamp and the stats
// tree, each node with its garbage state, engine counters, histogram
// summaries and history.
func (c *Client) StoreStats() (*prep.StatsResponse, error) {
	var resp prep.StatsResponse
	if err := c.ep.Post(prep.ActionStats, &prep.StatsRequest{}, &resp); err != nil {
		return nil, fmt.Errorf("preserv: stats: %w", err)
	}
	return &resp, nil
}
