package preserv

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/shard"
)

// RemoteShard adapts a PReP client into a shard.Shard, so a Router can
// front remote PReServ endpoints the same way it fronts embedded child
// stores — the front-end half of the paper's distributed PReServ: the
// AsyncRecorder already ships to several endpoints; a Router over
// RemoteShards is what makes those endpoints answer queries as one.
type RemoteShard struct {
	c *Client

	// statsMu guards the cached urn:prep:stats snapshot. GarbageRatio,
	// Tombstones and EngineStats are polled on hot paths the base Shard
	// surface never meant to cost a round trip (a delete reply reads the
	// router's GarbageRatio, which loops over every shard), so the
	// snapshot is cached for statsTTL and refreshed lazily. Mutations
	// through this shard invalidate it immediately — a delete must see
	// its own garbage.
	statsMu    sync.Mutex
	stats      *prep.StatsResponse
	statsAt    time.Time
	statsStale bool
}

// remoteStatsTTL bounds how stale a cached remote stats snapshot may
// be served: long enough that a burst of garbage-ratio probes costs one
// round trip, short enough that another writer's deletions surface
// within a second.
const remoteStatsTTL = time.Second

// NewRemoteShard wraps a client as a shard.
func NewRemoteShard(c *Client) *RemoteShard { return &RemoteShard{c: c, statsStale: true} }

// URL reports the remote endpoint.
func (r *RemoteShard) URL() string { return r.c.URL() }

// invalidateStats drops the cached stats snapshot; the next telemetry
// read re-polls the endpoint.
func (r *RemoteShard) invalidateStats() {
	r.statsMu.Lock()
	r.statsStale = true
	r.statsMu.Unlock()
}

// cachedStats returns the endpoint's stats snapshot, re-polling it over
// the wire when the cache is invalidated or older than remoteStatsTTL.
// An endpoint that cannot answer (older server without the stats
// action, or unreachable) yields (nil, err) — callers on the base Shard
// surface degrade to zero, matching the pre-stats behaviour.
func (r *RemoteShard) cachedStats() (*prep.StatsResponse, error) {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	if r.stats != nil && !r.statsStale && time.Since(r.statsAt) < remoteStatsTTL {
		return r.stats, nil
	}
	resp, err := r.c.StoreStats()
	if err != nil {
		return nil, err
	}
	r.stats, r.statsAt, r.statsStale = resp, time.Now(), false
	return resp, nil
}

// Record implements shard.Shard.
func (r *RemoteShard) Record(asserter core.ActorID, records []core.Record) (int, []prep.Reject, error) {
	resp, err := r.c.Record(asserter, records)
	if err != nil {
		return 0, nil, err
	}
	r.invalidateStats()
	return resp.Accepted, resp.Rejects, nil
}

// Query implements shard.Shard via the endpoint's scan path.
func (r *RemoteShard) Query(q *prep.Query) ([]core.Record, int, error) {
	return r.c.Query(q)
}

// QueryPlanned implements shard.Shard.
func (r *RemoteShard) QueryPlanned(q *prep.Query) ([]core.Record, int, *prep.QueryPlan, error) {
	return r.c.QueryPlanned(q)
}

// QueryPage implements shard.Shard.
func (r *RemoteShard) QueryPage(q *prep.Query, after string, pageSize int) ([]core.Record, string, bool, *prep.QueryPlan, error) {
	resp, err := r.c.QueryPage(q, after, pageSize)
	if err != nil {
		return nil, "", false, nil, err
	}
	plan := resp.Plan
	return resp.Records, resp.Next, resp.Done, &plan, nil
}

// Sessions implements shard.Shard.
func (r *RemoteShard) Sessions() ([]ids.ID, error) { return r.c.Sessions() }

// Count implements shard.Shard.
func (r *RemoteShard) Count() (prep.CountResponse, error) { return r.c.Count() }

// DeleteRecords implements shard.Shard: the whole batch retracts in one
// round trip, not one per key.
func (r *RemoteShard) DeleteRecords(keys []string) (int, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	resp, err := r.c.DeleteRecords(keys)
	if err != nil {
		return 0, err
	}
	r.invalidateStats()
	return resp.Deleted, nil
}

// DeleteSession implements shard.Shard.
func (r *RemoteShard) DeleteSession(session ids.ID) (int, error) {
	resp, err := r.c.DeleteSession(session)
	if err != nil {
		return 0, err
	}
	r.invalidateStats()
	return resp.Deleted, nil
}

// Compact implements shard.Shard.
func (r *RemoteShard) Compact() error {
	_, err := r.c.Compact()
	if err == nil {
		r.invalidateStats()
	}
	return err
}

// snapshot is the cached stats reply, or an empty one when the endpoint
// cannot answer: no garbage, tombstones or engine counters, and no
// valid generation.
func (r *RemoteShard) snapshot() *prep.StatsResponse {
	if st, err := r.cachedStats(); err == nil {
		return st
	}
	return &prep.StatsResponse{}
}

// GarbageRatio implements shard.Shard via the endpoint's stats action
// (TTL-cached — every delete reply reads it). An endpoint that cannot
// answer contributes zero, the pre-stats behaviour.
func (r *RemoteShard) GarbageRatio() float64 { return r.snapshot().GarbageRatio }

// Generation implements shard.Shard via the endpoint's
// stats action (TTL-cached). Mutations routed through this shard
// invalidate the cache immediately, so their generation bumps surface
// on the next probe; a writer shipping to the endpoint directly can be
// invisible for up to remoteStatsTTL — the same staleness window
// GarbageRatio already accepts, and bounded the same way. An endpoint
// that cannot answer — or one running an older server whose stats
// reply carries no generation — reports false, which makes the router
// bypass its result cache rather than trust a generation it cannot
// watch.
func (r *RemoteShard) Generation() (uint64, bool) {
	st := r.snapshot()
	return st.Generation, st.GenerationValid
}

// Tombstones implements shard.Shard via the endpoint's stats action
// (TTL-cached; zero when the endpoint cannot answer).
func (r *RemoteShard) Tombstones() int64 { return r.snapshot().Tombstones }

// EngineStats implements shard.Shard via the endpoint's stats action
// (TTL-cached), so a router's engine aggregate covers its remote
// children (zero when the endpoint cannot answer).
func (r *RemoteShard) EngineStats() shard.EngineStats { return r.snapshot().Engine }

// ShardStats implements shard.Shard: the root node of the endpoint's
// stats reply as it is, its own subtree included, with the endpoint's
// URL. The node shares the cached reply's slices, so it is read-only.
// This read is a live poll, not the TTL cache — an operator asking for
// the stats tree wants current numbers — and it refreshes the cache as
// a side effect.
func (r *RemoteShard) ShardStats() (prep.ShardStats, error) {
	r.invalidateStats()
	st, err := r.cachedStats()
	if err != nil {
		return prep.ShardStats{}, err
	}
	node := st.ShardStats
	node.URL = r.c.URL()
	return node, nil
}

// Close implements shard.Shard; the underlying HTTP client needs no
// teardown and the remote store's lifecycle is its own.
func (r *RemoteShard) Close() error { return nil }

var _ shard.Shard = (*RemoteShard)(nil)

// NewRemoteRouter builds a Router over the comma-separated remote store
// URLs — the shared front half of `preserv -shard-endpoints` and
// `provq -shards`. Blank entries (a trailing or doubled comma) are
// tolerated; a list naming no endpoint is an error.
func NewRemoteRouter(csv string) (*shard.Router, error) {
	var children []shard.Shard
	for _, u := range strings.Split(csv, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		children = append(children, NewRemoteShard(NewClient(u, nil)))
	}
	if len(children) == 0 {
		return nil, fmt.Errorf("preserv: shard endpoint list %q names no endpoint", csv)
	}
	return shard.NewRouter(children...)
}
