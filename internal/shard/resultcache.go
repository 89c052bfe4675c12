package shard

import (
	"preserv/internal/core"
	"preserv/internal/prep"
)

// GenerationProber is part of Shard: a shard reports its content
// generation cheaply (without a wire round trip on the hot path), which
// lets the router cache merged query results keyed on the tuple of all
// shards' generations. A Local shard answers from its store's stamps;
// a RemoteShard answers from its TTL-cached stats snapshot. A
// generation is opaque: a hash of the store's epoch, drawn
// at every open, and its change counter, so it is compared for equality
// only, and a restarted store never repeats one. The bool is false when
// the generation cannot be determined (an endpoint running an older
// server, an unreachable endpoint) — the router then bypasses its
// result cache entirely rather than risk a stale answer.
type GenerationProber interface {
	Generation() (uint64, bool)
}

// QueryProber is the finer probe, and the one optional Shard extension:
// the stamp of one query's answer, which a shard may keep per session,
// so that a write to one session leaves cached answers about the others
// valid. The router probes a shard this way when it can, and by
// Generation otherwise.
type QueryProber interface {
	QueryGeneration(q *prep.Query) (uint64, bool)
}

// DefaultResultCacheSize is the router result cache's default entry
// capacity. Entries are whole merged result sets, so the budget is
// deliberately small; SetResultCacheSize tunes or disables it.
const DefaultResultCacheSize = 128

// MaxCachedRecords bounds what the result cache retains: an answer with
// more records is recomputed on every query rather than pinned.
const MaxCachedRecords = 1024

// routerAnswer is one cached fan-out answer. The router's kv.LRU
// stamps it with the tuple of every shard's stamp for the query
// (probeGenerations) read BEFORE the fan-out ran, and a store advances
// a stamp only AFTER the write that can change the answer was attempted
// — so a write racing the fan-out moves the current tuple off the
// stamped one, and the entry dies on its next lookup. No router lock is
// needed for this: the ordering lives in the probe-then-fan-out
// sequence and in the stores. There is no explicit invalidation hook:
// staleness is impossible, the failure mode is over-invalidation (a
// write to another session that shares the query's stamp slot, or any
// write for a query not scoped to one session).
type routerAnswer struct {
	recs  []core.Record
	total int
	plan  *prep.QueryPlan
	next  string
	done  bool
}

// clonePlan deep-copies a plan so a cached one cannot be disturbed by
// a caller (plans carry dim slices).
func clonePlan(p *prep.QueryPlan) *prep.QueryPlan {
	if p == nil {
		return nil
	}
	cp := *p
	cp.Dims = append([]string(nil), p.Dims...)
	cp.DimCounts = append([]int(nil), p.DimCounts...)
	return &cp
}

// cached returns the answer under key if it is stamped with exactly
// stamp, with fresh copies of its records slice and plan.
func (rt *Router) cached(key, stamp string) (routerAnswer, bool) {
	a, ok := rt.rc.Get(key, stamp)
	if ok {
		a.recs = append([]core.Record(nil), a.recs...)
		a.plan = clonePlan(a.plan)
	}
	return a, ok
}

// retain caches a merged answer under stamp, keeping its own copies of
// the records slice and plan. An answer of more than MaxCachedRecords
// records is served but not retained — one giant scan must not evict
// the whole working set of small repeated queries.
func (rt *Router) retain(key, stamp string, a routerAnswer) {
	if len(a.recs) > MaxCachedRecords {
		return
	}
	a.recs = append([]core.Record(nil), a.recs...)
	a.plan = clonePlan(a.plan)
	rt.rc.Put(key, stamp, a)
}
