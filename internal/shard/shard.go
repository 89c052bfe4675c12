// Package shard partitions the provenance store horizontally and routes
// the full store API across the partitions — the "distributed PReServ"
// the paper's future-work section proposes, taken from recording at
// scale (the AsyncRecorder already ships to several endpoints) to
// *using* provenance at scale: queries answered whole, however many
// stores hold the records.
//
// Writes route session-affine: a record's home shard is a stable hash
// of its session group over the shard count, so one workflow run's
// lineage stays co-located and a session-scoped query touches one
// shard's indexes. Reads fan out: planned queries execute on every
// shard concurrently and k-way-merge in storage-key order, paged
// queries resume each shard at its own cursor behind one composite
// cursor, session listings union, statistics aggregate, and deletions
// fan out. The shard list is fixed for a router's lifetime; the merge
// still collapses a record held by two shards, which a store reopened
// with a different shard count can produce.
package shard

import (
	"hash/fnv"
	"sort"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/obs"
	"preserv/internal/prep"
	"preserv/internal/query"
	"preserv/internal/store"
)

// Shard is one partition of the provenance store, local or remote. The
// surface mirrors what the preserv service layer serves: writes,
// scanned and planned queries, paged reads, session listings, the
// deletion lifecycle and compaction telemetry. Implementations must be
// safe for concurrent use.
type Shard interface {
	// Record validates and stores a batch of p-assertions, idempotently
	// for identical re-records (the property client retries lean on).
	Record(asserter core.ActorID, records []core.Record) (int, []prep.Reject, error)
	// Query evaluates q via the scan path: matching records in
	// storage-key order (up to q.Limit) plus the total match count.
	Query(q *prep.Query) ([]core.Record, int, error)
	// QueryPlanned evaluates q via the shard's query planner. Results
	// are identical to Query; the plan describes the access path.
	QueryPlanned(q *prep.Query) ([]core.Record, int, *prep.QueryPlan, error)
	// QueryPage evaluates one cursor-delimited page: up to pageSize
	// matching records with storage keys strictly greater than after.
	QueryPage(q *prep.Query, after string, pageSize int) (records []core.Record, next string, done bool, plan *prep.QueryPlan, err error)
	// Sessions lists the shard's distinct session identifiers, sorted.
	Sessions() ([]ids.ID, error)
	// Count reports the shard's record statistics.
	Count() (prep.CountResponse, error)
	// DeleteRecords removes the records under the given storage keys
	// (absent keys are no-ops) and reports how many were deleted.
	DeleteRecords(keys []string) (int, error)
	// DeleteSession removes every record grouped under the session.
	DeleteSession(session ids.ID) (int, error)
	// Compact reclaims the shard's dead bytes, if its backend can.
	Compact() error
	// GarbageRatio is the shard's dead-byte fraction (0 if unknown).
	GarbageRatio() float64
	// Tombstones counts the shard's unreclaimed deletion markers.
	Tombstones() int64
	// Close releases the shard's resources.
	Close() error
}

// EngineStats is a shard's query-engine telemetry. The counter set is
// declared once, as its wire form prep.EngineCounters; the alias keeps
// the shard-side name that benchmark/ uses.
type EngineStats = prep.EngineCounters

// EngineStatser is implemented by shards that can report query-engine
// telemetry (local shards, and remote shards via the stats wire
// action; the Router aggregates over them).
type EngineStatser interface {
	EngineStats() EngineStats
}

// ShardStatser is implemented by shards that can report full telemetry
// (record counts, garbage state, engine counters, histogram summaries,
// slow operations). It is an optional extension of Shard — remote
// endpoints running an older server simply lack it and the router
// falls back to the base surface.
type ShardStatser interface {
	ShardStats() (prep.ShardStats, error)
}

// HistogramStats summarises every histogram of a registry in wire
// form, sorted by name for stable output.
func HistogramStats(reg *obs.Registry) []prep.HistogramStat {
	snaps := reg.HistogramSnapshots()
	names := make([]string, 0, len(snaps))
	for name := range snaps {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]prep.HistogramStat, 0, len(names))
	for _, name := range names {
		s := snaps[name]
		out = append(out, prep.HistogramStat{
			Name:  name,
			Count: s.Count,
			Sum:   s.Sum,
			P50:   s.Quantile(0.50),
			P95:   s.Quantile(0.95),
			P99:   s.Quantile(0.99),
		})
	}
	return out
}

// SlowSpans converts a tracer's slow log to wire form, oldest first.
func SlowSpans(tr *obs.Tracer) []prep.SlowSpan {
	spans := tr.Slow()
	out := make([]prep.SlowSpan, 0, len(spans))
	for _, s := range spans {
		w := prep.SlowSpan{
			Op:      s.Op(),
			Start:   s.Start(),
			Seconds: s.Duration().Seconds(),
			Err:     s.Err(),
		}
		for _, a := range s.Attrs() {
			w.Attrs = append(w.Attrs, prep.SpanAttr{Key: a.Key, Value: a.Value})
		}
		out = append(out, w)
	}
	return out
}

// Local is a Shard embedded in this process: a store.Store plus its
// query engine. A single-store service is a router over one of these.
type Local struct {
	s *store.Store
	e *query.Engine
}

// NewLocal wraps a store (and a fresh query engine over it) as a Shard.
func NewLocal(s *store.Store) *Local {
	return &Local{s: s, e: query.New(s)}
}

// Store returns the underlying store.
func (l *Local) Store() *store.Store { return l.s }

// Generation implements GenerationProber: an embedded store's content
// generation is one atomic load, cheap enough to probe before every
// fanned-out read.
func (l *Local) Generation() (uint64, bool) { return l.s.Generation(), true }

// Record implements Shard.
func (l *Local) Record(asserter core.ActorID, records []core.Record) (int, []prep.Reject, error) {
	return l.s.Record(asserter, records)
}

// Query implements Shard via the store's scan path.
func (l *Local) Query(q *prep.Query) ([]core.Record, int, error) {
	return l.s.Query(q)
}

// QueryPlanned implements Shard via the cost-based planner.
func (l *Local) QueryPlanned(q *prep.Query) ([]core.Record, int, *prep.QueryPlan, error) {
	return l.e.Query(q)
}

// QueryPage implements Shard.
func (l *Local) QueryPage(q *prep.Query, after string, pageSize int) ([]core.Record, string, bool, *prep.QueryPlan, error) {
	return l.e.QueryPage(q, after, pageSize)
}

// Sessions implements Shard.
func (l *Local) Sessions() ([]ids.ID, error) { return l.e.Sessions() }

// Count implements Shard.
func (l *Local) Count() (prep.CountResponse, error) { return l.s.Count() }

// DeleteRecords implements Shard.
func (l *Local) DeleteRecords(keys []string) (int, error) { return l.s.DeleteRecords(keys) }

// DeleteSession implements Shard.
func (l *Local) DeleteSession(session ids.ID) (int, error) { return l.s.DeleteSession(session) }

// Compact implements Shard.
func (l *Local) Compact() error { return l.s.Compact() }

// GarbageRatio implements Shard.
func (l *Local) GarbageRatio() float64 { return l.s.GarbageRatio() }

// Tombstones implements Shard.
func (l *Local) Tombstones() int64 { return l.s.Tombstones() }

// Close implements Shard.
func (l *Local) Close() error { return l.s.Close() }

// ShardStats implements ShardStatser: the shard's record count,
// garbage state, engine counters, the store registry's histogram
// summaries and the slow-operation log.
func (l *Local) ShardStats() (prep.ShardStats, error) {
	count, err := l.s.Count()
	if err != nil {
		return prep.ShardStats{}, err
	}
	return prep.ShardStats{
		Records:      count.Records,
		GarbageRatio: l.s.GarbageRatio(),
		Tombstones:   l.s.Tombstones(),
		Engine:       l.e.Stats(),
		WritePath:    l.s.WritePathStats(),
		Histograms:   HistogramStats(l.s.Obs()),
		Slow:         SlowSpans(l.s.Obs().Tracer()),
	}, nil
}

// EngineStats implements EngineStatser.
func (l *Local) EngineStats() EngineStats { return l.e.Stats() }

// AffinityTerm is the string a record's home shard is hashed from: the
// record's session group when it has one (a session's whole lineage
// then shares a shard), falling back to the interaction id (both views
// of an ungrouped interaction still co-locate), and to the storage key
// as a last resort.
func AffinityTerm(r *core.Record) string {
	if sid, ok := r.GroupID(core.GroupSession); ok {
		return sid.String()
	}
	if iid := r.InteractionID(); iid.Valid() {
		return iid.String()
	}
	return r.StorageKey()
}

// AffinityIndex maps an affinity term onto one of n shards with a
// stable, process-independent hash (FNV-1a), so a router restarted with
// the same topology — or a client shipping session-affine to the same
// endpoint list — routes every record to the same home shard.
func AffinityIndex(term string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(term))
	return int(h.Sum64() % uint64(n))
}

// Affinity maps a record to its home shard among n (see AffinityTerm).
func Affinity(r *core.Record, n int) int {
	return AffinityIndex(AffinityTerm(r), n)
}
