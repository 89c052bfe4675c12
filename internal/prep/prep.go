// Package prep defines PReP, the Provenance Recording Protocol: the
// messages actors exchange with a provenance store to record p-assertions
// (asynchronously or synchronously) and to query them back. PReP
// deliberately specifies *how* documentation is recorded while leaving
// *when* to the implementor — the client package exploits this to offer
// both synchronous and accumulate-then-ship asynchronous recording.
package prep

import (
	"encoding/xml"
	"fmt"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
)

// Action URIs understood by a provenance store.
const (
	// ActionRecord submits a batch of p-assertions.
	ActionRecord = "urn:prep:record"
	// ActionQuery retrieves p-assertions matching a filter by scanning
	// the store (the paper's access pattern, kept for Figure 5).
	ActionQuery = "urn:prep:query"
	// ActionPlannedQuery retrieves p-assertions matching a filter via
	// the secondary-index query planner (internal/query), reporting the
	// plan it chose alongside the results.
	ActionPlannedQuery = "urn:prep:query-planned"
	// ActionQueryPage retrieves one cursor-delimited page of a planned
	// query's results, so clients stream large result sets instead of
	// the store buffering them whole per request.
	ActionQueryPage = "urn:prep:query-page"
	// ActionSessions enumerates the distinct session identifiers
	// recorded in the store, straight off the session index.
	ActionSessions = "urn:prep:sessions"
	// ActionCount reports store statistics.
	ActionCount = "urn:prep:count"
	// ActionDelete retracts recorded p-assertions: one record by storage
	// key, or a whole session. Deletion removes the records and their
	// index postings and invalidates cached query results; the on-disk
	// bytes are reclaimed by compaction.
	ActionDelete = "urn:prep:delete"
	// ActionCompact triggers online compaction of the store's backend,
	// reclaiming the dead bytes deletions and overwrites leave behind.
	// The server also schedules compaction itself when the backend's
	// garbage ratio crosses its threshold after a delete.
	ActionCompact = "urn:prep:compact"
	// ActionStats returns the store's telemetry: service counters,
	// per-shard engine statistics, garbage/tombstone state, latency
	// histogram snapshots and recent slow operations. This is what lets
	// a router aggregate real numbers from remote shards instead of
	// zeros, and what `provq stats` renders.
	ActionStats = "urn:prep:stats"
)

// RecordRequest submits p-assertions to the store. All records must be
// asserted by the named actor; the store validates this, preventing one
// actor from forging another's documentation.
type RecordRequest struct {
	XMLName  xml.Name      `xml:"RecordRequest"`
	Asserter core.ActorID  `xml:"asserter"`
	Records  []core.Record `xml:"record"`
}

// Reject describes one record the store refused.
type Reject struct {
	// Index is the record's position in the request.
	Index  int    `xml:"index"`
	Reason string `xml:"reason"`
}

// RecordResponse acknowledges a RecordRequest.
type RecordResponse struct {
	XMLName  xml.Name `xml:"RecordResponse"`
	Accepted int      `xml:"accepted"`
	Rejects  []Reject `xml:"reject,omitempty"`
}

// Query is a conjunctive filter over stored p-assertions. Zero-valued
// fields do not constrain the result.
type Query struct {
	XMLName xml.Name `xml:"Query"`
	// InteractionID restricts to one interaction.
	InteractionID ids.ID `xml:"interactionId,omitempty"`
	// SessionID restricts to records grouped under the session.
	SessionID ids.ID `xml:"sessionId,omitempty"`
	// GroupID restricts to records in the given group of any type.
	GroupID ids.ID `xml:"groupId,omitempty"`
	// Kind restricts to "interaction" or "actorState" records.
	Kind string `xml:"kind,omitempty"`
	// Asserter restricts to one asserting actor.
	Asserter core.ActorID `xml:"asserter,omitempty"`
	// Service restricts to interactions whose receiver is this actor.
	Service core.ActorID `xml:"service,omitempty"`
	// StateKind restricts actor-state records to one state kind.
	StateKind string `xml:"stateKind,omitempty"`
	// DataID restricts to interaction records whose request or response
	// parts carry the given data item.
	DataID ids.ID `xml:"dataId,omitempty"`
	// Since and Until restrict to records asserted within the inclusive
	// time range; a zero bound is unconstrained. Records without a
	// timestamp never match a time-constrained query (they are absent
	// from the time index, and the scan path agrees).
	Since time.Time `xml:"since,omitempty"`
	Until time.Time `xml:"until,omitempty"`
	// Limit caps the number of returned records; 0 means no cap.
	Limit int `xml:"limit,omitempty"`
}

// Validate rejects structurally impossible queries.
func (q *Query) Validate() error {
	switch q.Kind {
	case "", core.KindInteraction.String(), core.KindActorState.String():
	default:
		return fmt.Errorf("prep: unknown kind filter %q", q.Kind)
	}
	if q.Limit < 0 {
		return fmt.Errorf("prep: negative limit %d", q.Limit)
	}
	if q.StateKind != "" && q.Kind == core.KindInteraction.String() {
		return fmt.Errorf("prep: stateKind filter contradicts kind=interaction")
	}
	if q.DataID.Valid() && q.Kind == core.KindActorState.String() {
		return fmt.Errorf("prep: dataId filter contradicts kind=actorState")
	}
	if !q.Since.IsZero() && !q.Until.IsZero() && q.Until.Before(q.Since) {
		return fmt.Errorf("prep: empty time range (until %v before since %v)", q.Until, q.Since)
	}
	return nil
}

// Matches reports whether a record satisfies every constraint of q
// (ignoring Limit, which the store applies).
func (q *Query) Matches(r *core.Record) bool {
	if q.InteractionID.Valid() && r.InteractionID() != q.InteractionID {
		return false
	}
	if q.SessionID.Valid() {
		sid, ok := r.GroupID(core.GroupSession)
		if !ok || sid != q.SessionID {
			return false
		}
	}
	if q.GroupID.Valid() {
		found := false
		for _, g := range r.Groups() {
			if g.ID == q.GroupID {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if q.Kind != "" && r.Kind.String() != q.Kind {
		return false
	}
	if q.Asserter != "" && r.Asserter() != q.Asserter {
		return false
	}
	if q.Service != "" {
		var recv core.ActorID
		switch r.Kind {
		case core.KindInteraction:
			recv = r.Interaction.Interaction.Receiver
		case core.KindActorState:
			recv = r.ActorState.Interaction.Receiver
		}
		if recv != q.Service {
			return false
		}
	}
	if q.StateKind != "" {
		if r.Kind != core.KindActorState || r.ActorState.StateKind != q.StateKind {
			return false
		}
	}
	if q.DataID.Valid() {
		found := false
		for _, d := range r.DataIDs() {
			if d == q.DataID {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if !q.Since.IsZero() || !q.Until.IsZero() {
		ts := r.Timestamp()
		if ts.IsZero() {
			return false
		}
		if !q.Since.IsZero() && ts.Before(q.Since) {
			return false
		}
		if !q.Until.IsZero() && ts.After(q.Until) {
			return false
		}
	}
	return true
}

// QueryResponse returns matching records. Total reports the number of
// matches before Limit was applied.
type QueryResponse struct {
	XMLName xml.Name      `xml:"QueryResponse"`
	Total   int           `xml:"total"`
	Records []core.Record `xml:"record,omitempty"`
}

// Plan strategies reported by the query planner.
const (
	// PlanIndex means the planner answered from secondary-index posting
	// lists, fetching only candidate records.
	PlanIndex = "index"
	// PlanScan means the planner fell back to the linear scan path
	// because no indexed field was constrained (or no index exists).
	PlanScan = "scan"
)

// QueryPlan describes how the planner answered a planned query; it is
// returned to the caller so access patterns are observable end-to-end.
type QueryPlan struct {
	// Strategy is PlanIndex or PlanScan.
	Strategy string `xml:"strategy"`
	// Dims names the index dimensions used, in the order the planner
	// chose them — most selective (the driving posting list) first
	// (empty for scans).
	Dims []string `xml:"dim,omitempty"`
	// DimCounts aligns with Dims: the CountPostings cardinality
	// estimate that made the planner pick this order — the cost model's
	// inputs, surfaced so estimated-vs-actual drift is observable.
	DimCounts []int `xml:"dimCount,omitempty"`
	// EstCandidates is the planner's candidate estimate before
	// execution: the driving posting list's cardinality. Compare with
	// Candidates, the records actually fetched after intersection.
	EstCandidates int `xml:"estCandidates"`
	// Postings is the number of index posting entries actually read.
	// With seekable iterators this can be far below the lists' summed
	// cardinality: a leapfrog intersection skips over runs it proves
	// irrelevant without reading them.
	Postings int `xml:"postings"`
	// Candidates is the number of records fetched; for an index
	// strategy this is the planner's whole record-level cost.
	Candidates int `xml:"candidates"`
	// Cached reports that the result came from the router's result
	// cache without touching the store (Postings and Candidates then
	// describe the original computation).
	Cached bool `xml:"cached"`
}

// PlannedQueryResponse returns matching records plus the plan used.
type PlannedQueryResponse struct {
	XMLName xml.Name      `xml:"PlannedQueryResponse"`
	Total   int           `xml:"total"`
	Plan    QueryPlan     `xml:"plan"`
	Records []core.Record `xml:"record,omitempty"`
}

// PageQueryRequest asks for one page of a query's results. After is the
// cursor returned by the previous page (empty for the first page);
// PageSize caps the page's record count (zero selects the store's
// default). The query's Limit field is ignored — paging owns
// truncation — and no total match count is reported: a page is computed
// with early termination, without visiting the candidates beyond it.
type PageQueryRequest struct {
	XMLName  xml.Name `xml:"PageQueryRequest"`
	Query    Query    `xml:"Query"`
	After    string   `xml:"after,omitempty"`
	PageSize int      `xml:"pageSize,omitempty"`
}

// PageQueryResponse returns one page of matching records in stable
// storage-key order. Next is the cursor to pass as the following
// request's After; Done reports that the result set is exhausted (a
// final page may be both non-empty and Done=false when the store cannot
// cheaply prove exhaustion — the following page then comes back empty
// with Done=true).
type PageQueryResponse struct {
	XMLName xml.Name      `xml:"PageQueryResponse"`
	Plan    QueryPlan     `xml:"plan"`
	Next    string        `xml:"next,omitempty"`
	Done    bool          `xml:"done"`
	Records []core.Record `xml:"record,omitempty"`
}

// DeleteRequest retracts recorded p-assertions: exactly one of
// StorageKey (one record), StorageKeys (a batch of records in one
// round trip — what a router fans out to a remote shard) or SessionID
// (every record grouped under the session) must be set.
type DeleteRequest struct {
	XMLName     xml.Name `xml:"DeleteRequest"`
	StorageKey  string   `xml:"storageKey,omitempty"`
	StorageKeys []string `xml:"storageKeys>key,omitempty"`
	SessionID   ids.ID   `xml:"sessionId,omitempty"`
}

// Validate rejects structurally impossible delete requests.
func (r *DeleteRequest) Validate() error {
	set := 0
	if r.StorageKey != "" {
		set++
	}
	if len(r.StorageKeys) > 0 {
		set++
	}
	if r.SessionID.Valid() {
		set++
	}
	if set != 1 {
		return fmt.Errorf("prep: delete needs exactly one of storageKey, storageKeys or sessionId")
	}
	for _, k := range r.StorageKeys {
		if k == "" {
			return fmt.Errorf("prep: delete batch contains an empty storage key")
		}
	}
	return nil
}

// DeleteResponse acknowledges a DeleteRequest. Deleted counts the
// records actually removed (0 for an already-absent key — retraction is
// idempotent). GarbageRatio is the backend's dead-byte fraction after
// the deletion, and Compacted reports that the deletion pushed the
// ratio over the server's threshold and an online compaction ran.
// CompactError carries a scheduled compaction's failure without
// masking the delete itself, which already succeeded.
type DeleteResponse struct {
	XMLName      xml.Name `xml:"DeleteResponse"`
	Deleted      int      `xml:"deleted"`
	GarbageRatio float64  `xml:"garbageRatio"`
	Compacted    bool     `xml:"compacted"`
	CompactError string   `xml:"compactError,omitempty"`
}

// CompactRequest asks the server to compact its backend now.
type CompactRequest struct {
	XMLName xml.Name `xml:"CompactRequest"`
}

// CompactResponse reports a compaction's effect: the backend's
// dead-byte fraction before and after.
type CompactResponse struct {
	XMLName       xml.Name `xml:"CompactResponse"`
	GarbageBefore float64  `xml:"garbageBefore"`
	GarbageAfter  float64  `xml:"garbageAfter"`
}

// SessionsRequest asks for the distinct recorded session identifiers.
type SessionsRequest struct {
	XMLName xml.Name `xml:"SessionsRequest"`
}

// SessionsResponse lists distinct session identifiers, sorted.
type SessionsResponse struct {
	XMLName  xml.Name `xml:"SessionsResponse"`
	Sessions []ids.ID `xml:"session,omitempty"`
}

// CountRequest asks for store statistics.
type CountRequest struct {
	XMLName xml.Name `xml:"CountRequest"`
}

// CountResponse reports store statistics. Interactions counts distinct
// interaction records — the x-axis of the paper's Figure 5.
type CountResponse struct {
	XMLName      xml.Name `xml:"CountResponse"`
	Records      int      `xml:"records"`
	Interactions int      `xml:"interactions"`
	ActorStates  int      `xml:"actorStates"`
}

// StatsRequest asks for the store's full telemetry snapshot.
type StatsRequest struct {
	XMLName xml.Name `xml:"StatsRequest"`
}

// EngineCounters is a query engine's cumulative planner and cache
// telemetry — the one declaration of that counter set, filled by the
// engine and the shard router and carried unchanged to the wire.
// CacheHits/CacheMisses are the router result cache's lookup outcomes
// (a stale entry counts as a miss; an engine alone reports zero);
// IndexPlans/ScanPlans count executed queries by strategy, cache hits
// excluded; PagedQueries counts QueryPage executions (also in the
// strategy counts); CostProbes counts cardinality probes; PostingsRead
// and CandidatesFetched are the posting entries and records the read
// path pulled. For a sharded store these are sums over the shards.
type EngineCounters struct {
	CacheHits         int64 `xml:"cacheHits"`
	CacheMisses       int64 `xml:"cacheMisses"`
	IndexPlans        int64 `xml:"indexPlans"`
	ScanPlans         int64 `xml:"scanPlans"`
	PagedQueries      int64 `xml:"pagedQueries"`
	CostProbes        int64 `xml:"costProbes"`
	PostingsRead      int64 `xml:"postingsRead"`
	CandidatesFetched int64 `xml:"candidatesFetched"`
}

// Add accumulates o into c (aggregating shard breakdowns).
func (c *EngineCounters) Add(o EngineCounters) {
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.IndexPlans += o.IndexPlans
	c.ScanPlans += o.ScanPlans
	c.PagedQueries += o.PagedQueries
	c.CostProbes += o.CostProbes
	c.PostingsRead += o.PostingsRead
	c.CandidatesFetched += o.CandidatesFetched
}

// WritePathCounters is the storage write path's health telemetry — the
// one declaration of that counter set, filled by the store and carried
// unchanged to the wire: how many backend compactions are running right
// now, and the commit-stall distribution (per-call commit sections and
// index flushes) summarised as count, total seconds and p99. For a sharded
// store the counts and seconds are sums over the shards and StallP99 is
// the worst shard's p99.
type WritePathCounters struct {
	CompactionsInProgress int64   `xml:"compactionsInProgress"`
	StallCount            int64   `xml:"stallCount"`
	StallSeconds          float64 `xml:"stallSeconds"`
	StallP99              float64 `xml:"stallP99"`
}

// Add accumulates o into c (aggregating shard breakdowns).
func (c *WritePathCounters) Add(o WritePathCounters) {
	c.CompactionsInProgress += o.CompactionsInProgress
	c.StallCount += o.StallCount
	c.StallSeconds += o.StallSeconds
	if o.StallP99 > c.StallP99 {
		c.StallP99 = o.StallP99
	}
}

// HistogramStat is one latency or size distribution, summarised: total
// observations, their sum (seconds for *_seconds histograms, raw units
// otherwise) and interpolated percentiles.
type HistogramStat struct {
	Name  string  `xml:"name"`
	Count int64   `xml:"count"`
	Sum   float64 `xml:"sum"`
	P50   float64 `xml:"p50"`
	P95   float64 `xml:"p95"`
	P99   float64 `xml:"p99"`
}

// SpanAttr is one attribute of a recorded span.
type SpanAttr struct {
	Key   string `xml:"key"`
	Value string `xml:"value"`
}

// SlowSpan is one slow operation from the tracer's slow log — for a
// slow query the attributes carry the executed plan (strategy, dim
// cardinalities, estimated versus actual candidates).
type SlowSpan struct {
	Op      string     `xml:"op"`
	Start   time.Time  `xml:"start"`
	Seconds float64    `xml:"seconds"`
	Err     string     `xml:"err,omitempty"`
	Attrs   []SpanAttr `xml:"attr,omitempty"`
}

// ShardStats is one shard's telemetry: record count, garbage state,
// engine counters, histogram summaries and recent slow operations.
// URL is set for remote shards, empty for local ones.
type ShardStats struct {
	Index        int               `xml:"index"`
	URL          string            `xml:"url,omitempty"`
	Records      int               `xml:"records"`
	GarbageRatio float64           `xml:"garbageRatio"`
	Tombstones   int64             `xml:"tombstones"`
	Engine       EngineCounters    `xml:"engine"`
	WritePath    WritePathCounters `xml:"writePath"`
	Histograms   []HistogramStat   `xml:"histogram,omitempty"`
	Slow         []SlowSpan        `xml:"slow,omitempty"`
}

// StatsResponse is the urn:prep:stats reply: the service's request
// counters, whole-store aggregates (sums/weighted averages over the
// shards, directly consumable by a parent router treating this store
// as one shard), and the per-shard breakdown.
type StatsResponse struct {
	XMLName xml.Name `xml:"StatsResponse"`

	// Service-level request accounting (one consistent snapshot).
	RecordRequests  int64 `xml:"recordRequests"`
	RecordsAccepted int64 `xml:"recordsAccepted"`
	QueryRequests   int64 `xml:"queryRequests"`
	DeleteRequests  int64 `xml:"deleteRequests"`
	RecordsDeleted  int64 `xml:"recordsDeleted"`
	Compactions     int64 `xml:"compactions"`

	// Whole-store aggregates. Generation is the store's content
	// generation — it changes whenever any shard accepts or deletes a
	// record, so equal generations imply equal query answers; a parent
	// router probes it (cheaply, via its TTL-cached stats snapshot) to
	// key its generation-tuple result cache. GenerationValid is false
	// when some shard behind this service cannot report one.
	Records         int               `xml:"records"`
	NumShards       int               `xml:"numShards"`
	Generation      uint64            `xml:"generation"`
	GenerationValid bool              `xml:"generationValid"`
	GarbageRatio    float64           `xml:"garbageRatio"`
	Tombstones      int64             `xml:"tombstones"`
	Engine          EngineCounters    `xml:"engine"`
	WritePath       WritePathCounters `xml:"writePath"`

	// Per-shard breakdown plus the service's own request histograms.
	Shards     []ShardStats    `xml:"shard,omitempty"`
	Histograms []HistogramStat `xml:"histogram,omitempty"`
	Slow       []SlowSpan      `xml:"slow,omitempty"`
}
