package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/kv"
	"preserv/internal/obs"
	"preserv/internal/prep"
	"preserv/internal/query"
)

// Router presents the full store API over N shards: writes route
// session-affine to one shard, reads fan out to all of them and merge.
// A Router is safe for concurrent use; Drain may run concurrently with
// queries and writes.
//
// Topology: the shard list is fixed at construction, but a shard can be
// deactivated by Drain — it then receives no new affine writes while
// staying in the read fan-out (its records are moving to the survivors;
// reads are fenced from the page moves, paging cursors carry the drain
// epoch so a walk can never silently straddle a move, and the merge's
// key-dedup plus overlap-aware Total counting collapse the overlap a
// crashed drain leaves behind, so query answers stay exact throughout).
type Router struct {
	shards []Shard
	// topo guards the active set. Record holds it shared across routing
	// AND dispatch, so Drain's exclusive flip of a shard's active flag
	// cannot complete while any write routed under the old topology is
	// still in flight — after the flip, no new record can land on the
	// draining shard, which is what lets Drain terminate.
	// provlint:lock-order 30
	topo   sync.RWMutex
	active []bool
	// fp fingerprints the shard list's identity AND order (computed
	// once at construction); composite cursors embed it so a cursor
	// minted against one topology is rejected — not silently mis-applied
	// — when the endpoint list is reordered between restarts.
	fp string
	// drainMu serialises drains: one rebalance at a time.
	// provlint:lock-order 10
	drainMu sync.Mutex
	// reg is the router's own telemetry: per-shard fan-out latency
	// (fanoutSec[i], resolved at construction so the hot path never
	// touches the registry map), k-way-merge width, and drain progress
	// counters. Per-shard store registries stay with their shards.
	reg        *obs.Registry
	fanoutSec  []*obs.Histogram
	mergeWidth *obs.Histogram
	drainPages *obs.Counter
	drainMoved *obs.Counter
	// moveMu fences router-level deletions AND read fan-outs against a
	// drain's page cycle. Drain holds it exclusively from reading a
	// page off the source until that page's copies and source deletions
	// land; DeleteRecords and DeleteSession hold it exclusively for
	// their fan-out; Query/QueryPlanned/QueryPage/Sessions/Count hold
	// it shared. Without the delete fence a deletion could slip between
	// the page read and the re-record and the drain would resurrect the
	// deleted record from its page buffer. Without the read fence a
	// fan-out could read the survivor before a record's copy lands and
	// the source after its deletion — seeing the record on NEITHER side
	// — so the fence is what makes "one-shot queries see exactly the
	// full set throughout a drain" true rather than merely likely.
	// Held per page, it delays readers and (rare, administrative)
	// deletions by at most one page move; it never blocks writes.
	// provlint:lock-order 20
	moveMu sync.RWMutex
	// moveEpoch counts page moves: bumped (always under moveMu held
	// exclusively) at every Drain start and finish and after every page a
	// drain relocates. Composite cursors embed the epoch they were minted
	// under; a cursor replayed after a bump is rejected as ErrStaleCursor
	// instead of silently skipping records a move carried behind it. The
	// epoch also keys the paged result cache, so a cached cursor chain
	// can never be served against a post-move topology.
	moveEpoch atomic.Uint64
	// overlaps tracks shards a failed drain may have left overlapping
	// the survivors (copies landed, source deletions unconfirmed). While
	// any shard is suspect, Limit-ed fan-outs switch from summed Totals
	// to a presence-only key union (Limit-free fetch) so the Total stays
	// exact; a drain that completes clears its shard's suspicion. All
	// writes happen on the drain path (serialised by drainMu); overlapN
	// is the fan-out paths' lock-free read.
	// provlint:lock-order 40
	overlapMu sync.Mutex
	overlaps  map[int]bool
	overlapN  atomic.Int64
	// drainPage is how many records one drain step moves (the
	// drainPageSize default; tests shrink it to force multi-page drains
	// on small data sets). Read on the drain path under drainMu.
	drainPage int
	// rc caches merged fan-out answers keyed on the query's canonical
	// form and stamped with the tuple of every shard's content
	// generation. The tuple is probed under moveMu (shared) BEFORE the
	// fan-out, so a cached answer is always one some fenced fan-out could
	// have produced; any shard that cannot report a generation disables
	// caching for that call. See resultcache.go for the invalidation
	// argument. The field is never reassigned: SetResultCacheSize resets
	// the cache in place.
	rc *kv.LRU[string, routerAnswer]
}

// NewRouter builds a router over the given shards (at least one).
func NewRouter(shards ...Shard) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	active := make([]bool, len(shards))
	for i := range active {
		active[i] = true
	}
	rt := &Router{
		shards:    shards,
		active:    active,
		fp:        fingerprint(shards),
		reg:       obs.NewRegistry(),
		overlaps:  make(map[int]bool),
		drainPage: drainPageSize,
		rc:        kv.NewLRU[string, routerAnswer](DefaultResultCacheSize, nil),
	}
	rt.fanoutSec = make([]*obs.Histogram, len(shards))
	for i := range shards {
		rt.fanoutSec[i] = rt.reg.Histogram(fmt.Sprintf(`router_shard_fanout_seconds{shard="%d"}`, i), nil)
	}
	rt.mergeWidth = rt.reg.Histogram("router_merge_width", obs.SizeBuckets)
	rt.drainPages = rt.reg.Counter("router_drain_pages_total")
	rt.drainMoved = rt.reg.Counter("router_drain_records_moved_total")
	rt.reg.GaugeFunc("router_resultcache_hits", func() float64 { return float64(rt.rc.Stats().Hits) })
	rt.reg.GaugeFunc("router_resultcache_misses", func() float64 { return float64(rt.rc.Stats().Misses) })
	rt.reg.GaugeFunc("router_resultcache_entries", func() float64 { return float64(rt.rc.Stats().Entries) })
	return rt, nil
}

// SetResultCacheSize empties the router's result cache, resets its
// counters and sets its entry capacity (0 or negative disables
// caching). Safe to call while serving.
func (rt *Router) SetResultCacheSize(capacity int) { rt.rc.Reset(int64(capacity)) }

// ResultCacheStats reports the result cache's cumulative lookup
// outcomes (a tuple-mismatched entry evicted on lookup counts as a
// miss, same convention as the per-store query cache).
func (rt *Router) ResultCacheStats() (hits, misses int64) {
	st := rt.rc.Stats()
	return st.Hits, st.Misses
}

// probeGenerations collects every shard's content generation, folded
// into the comparable stamp result-cache entries carry: 8 little-endian
// bytes per shard, in topology order. ok is false when any shard cannot
// report one; the caller then bypasses the result cache for this
// fan-out (no counters move: the cache was never consulted). Callers
// hold moveMu (shared suffices): the probe and the fan-out it guards
// must sit under the same fence acquisition, so a drain's page move
// cannot slip between them.
//
// provlint:requires moveMu
func (rt *Router) probeGenerations() (string, bool) {
	var buf [64]byte
	b := buf[:0]
	for _, s := range rt.shards {
		p, ok := s.(GenerationProber)
		if !ok {
			return "", false
		}
		g, ok := p.Generation()
		if !ok {
			return "", false
		}
		b = binary.LittleEndian.AppendUint64(b, g)
	}
	return string(b), true
}

// Generation implements GenerationProber for the router itself (a
// router can be a shard of a parent router): the tuple folds to a sum,
// which changes whenever any child's generation does — sufficient for
// the parent's equality test, since generations only grow.
func (rt *Router) Generation() (uint64, bool) {
	rt.moveMu.RLock()
	defer rt.moveMu.RUnlock()
	stamp, ok := rt.probeGenerations()
	if !ok {
		return 0, false
	}
	var sum uint64
	for i := 0; i < len(stamp); i += 8 {
		sum += binary.LittleEndian.Uint64([]byte(stamp[i : i+8]))
	}
	return sum, true
}

// Obs returns the router's telemetry registry.
func (rt *Router) Obs() *obs.Registry { return rt.reg }

// DrainEpoch reports the router's current drain epoch (see moveEpoch):
// it advances whenever a drain starts, moves a page, or finishes, and a
// composite cursor minted under an older epoch no longer resumes.
func (rt *Router) DrainEpoch() uint64 { return rt.moveEpoch.Load() }

// bumpMoveEpoch advances the drain epoch under the move fence, so the
// bump is ordered against every page fan-out: fan-outs in flight when
// the bump waits for the lock finished encoding their cursor under the
// old epoch, and every later fan-out observes the new one.
func (rt *Router) bumpMoveEpoch() {
	rt.moveMu.Lock()
	rt.moveEpoch.Add(1)
	rt.moveMu.Unlock()
}

// markOverlap flips shard i's crashed-drain overlap suspicion.
func (rt *Router) markOverlap(i int, suspect bool) {
	rt.overlapMu.Lock()
	defer rt.overlapMu.Unlock()
	if suspect == rt.overlaps[i] {
		return
	}
	if suspect {
		rt.overlaps[i] = true
		rt.overlapN.Add(1)
	} else {
		delete(rt.overlaps, i)
		rt.overlapN.Add(-1)
	}
}

// OverlapSuspected reports whether any shard may still hold records a
// failed drain already copied to the survivors. While true, Limit-ed
// queries compute their Total by key union over Limit-free per-shard
// fetches instead of the summed fast path, keeping the Total exact
// across the overlap; a drain of the shard that completes (including
// the cheap re-drain of an already-empty shard) clears it. The flag is
// in-process state: a router constructed over shards that already
// overlap (a process crash mid-drain) cannot know, and the operator
// re-drains — as crash recovery already requires — to restore both
// disjointness and the flag.
func (rt *Router) OverlapSuspected() bool { return rt.overlapN.Load() > 0 }

// fingerprint hashes the shard list's identity in order: a remote
// shard contributes its endpoint URL, an embedded one its position
// (stable across restarts of the same -shards N layout, which reopens
// the same directories in the same order). FNV-1a like the affinity
// hash, so it is process-independent.
func fingerprint(shards []Shard) string {
	h := fnv.New64a()
	for i, s := range shards {
		if u, ok := s.(interface{ URL() string }); ok {
			h.Write([]byte("url:" + u.URL()))
		} else {
			h.Write([]byte("local:" + strconv.Itoa(i)))
		}
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// NumShards reports the topology size (active or not).
func (rt *Router) NumShards() int { return len(rt.shards) }

// ActiveShards reports how many shards still receive affine writes.
func (rt *Router) ActiveShards() int {
	rt.topo.RLock()
	defer rt.topo.RUnlock()
	n := 0
	for _, a := range rt.active {
		if a {
			n++
		}
	}
	return n
}

// Shard returns the i-th shard (for tests and maintenance tooling).
func (rt *Router) Shard(i int) Shard { return rt.shards[i] }

// activeListLocked returns the indices of the active shards. Callers
// hold rt.topo (shared suffices).
func (rt *Router) activeListLocked() []int {
	out := make([]int, 0, len(rt.shards))
	for i, a := range rt.active {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// Record validates and stores a batch of p-assertions: each record
// routes to its affinity shard (hash of its session group over the
// active shard count), the per-shard sub-batches dispatch concurrently,
// and the responses recombine — accepted counts sum, reject indexes map
// back to positions in the caller's slice. A failed shard surfaces as
// the call's error; sub-batches on other shards may still have
// committed (exactly the partial-failure surface one store's batched
// Record already has), and a client retry is absorbed idempotently.
func (rt *Router) Record(asserter core.ActorID, records []core.Record) (int, []prep.Reject, error) {
	rt.topo.RLock()
	defer rt.topo.RUnlock()
	act := rt.activeListLocked()
	if len(act) == 0 {
		return 0, nil, fmt.Errorf("shard: no active shard to record onto")
	}
	if len(act) == 1 || len(records) == 0 {
		return rt.shards[act[0]].Record(asserter, records)
	}

	// Partition by home shard, remembering original positions so the
	// shards' reject indexes can be mapped back.
	byShard := make(map[int][]int) // shard index -> original record indexes
	for i := range records {
		si := act[AffinityIndex(AffinityTerm(&records[i]), len(act))]
		byShard[si] = append(byShard[si], i)
	}

	type result struct {
		accepted int
		rejects  []prep.Reject
		err      error
	}
	results := make([]result, len(rt.shards))
	var wg sync.WaitGroup
	for si, idxs := range byShard {
		sub := make([]core.Record, len(idxs))
		for j, oi := range idxs {
			sub[j] = records[oi]
		}
		wg.Add(1)
		go func(si int, idxs []int, sub []core.Record) {
			defer wg.Done()
			acc, rej, err := rt.shards[si].Record(asserter, sub)
			// Remap reject indexes to the caller's positions.
			for k := range rej {
				if rej[k].Index >= 0 && rej[k].Index < len(idxs) {
					rej[k].Index = idxs[rej[k].Index]
				}
			}
			results[si] = result{accepted: acc, rejects: rej, err: err}
		}(si, idxs, sub)
	}
	wg.Wait()

	accepted := 0
	var rejects []prep.Reject
	var firstErr error
	for _, r := range results {
		accepted += r.accepted
		rejects = append(rejects, r.rejects...)
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
	}
	sort.Slice(rejects, func(i, j int) bool { return rejects[i].Index < rejects[j].Index })
	return accepted, rejects, firstErr
}

// shardResult is one shard's contribution to a fanned-out read.
type shardResult struct {
	records []core.Record
	total   int
	plan    *prep.QueryPlan
	next    string
	done    bool
}

// fanOut runs fn against every shard concurrently and collects the
// results in shard order. The first error wins.
func (rt *Router) fanOut(fn func(s Shard) (*shardResult, error)) ([]*shardResult, error) {
	return rt.fanOut2(func(_ int, s Shard) (*shardResult, error) { return fn(s) })
}

// mergeRecords k-way-merges per-shard result slices (each already in
// ascending storage-key order) into one, deduplicating identical keys —
// after a crashed drain a record is present on two shards until a
// re-drain absorbs the overlap, and it must count once. limit > 0
// truncates the merged records (not the total). It returns the merged
// records and the number of duplicate keys met. With countAll the scan
// runs every head to exhaustion and counts dupes across the WHOLE
// input, including keys beyond the limit cut, so that when the caller
// fetched Limit-free (the exact-Total path over a crashed-drain
// overlap) the dupe count deducts every twin and the summed Total
// lands exactly on the key union. Without countAll the merge returns
// as soon as the limit is filled — the paged fan-out path discards the
// dupe count and must not pay for scanning past the page cut.
func mergeRecords(parts [][]core.Record, limit int, countAll bool) (out []core.Record, dupes int) {
	type head struct {
		part, pos int
		key       string
	}
	heads := make([]head, 0, len(parts))
	for p := range parts {
		if len(parts[p]) > 0 {
			heads = append(heads, head{part: p, key: parts[p][0].StorageKey()})
		}
	}
	prevKey := ""
	for len(heads) > 0 {
		// Smallest head wins; ties broken by part order (the records are
		// identical by construction — same storage key, idempotent store).
		min := 0
		for i := 1; i < len(heads); i++ {
			if heads[i].key < heads[min].key {
				min = i
			}
		}
		h := heads[min]
		// Key dedup: a drain-overlap twin merges (and counts) once. All
		// copies of a key sort adjacent, so comparing against the
		// previous distinct key suffices — and prevKey advances on every
		// distinct key, appended or beyond the cut, so twins of an
		// overshoot key still register as dupes.
		if prevKey != "" && h.key == prevKey {
			dupes++
		} else {
			if limit <= 0 || len(out) < limit {
				out = append(out, parts[h.part][h.pos])
			} else if !countAll {
				return out, dupes
			}
			prevKey = h.key
		}
		heads[min].pos++
		if heads[min].pos >= len(parts[h.part]) {
			heads[min] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		} else {
			heads[min].key = parts[h.part][heads[min].pos].StorageKey()
		}
	}
	return out, dupes
}

// mergePlans folds per-shard plans into one plan describing the fanned
// execution: counters sum, the strategy is "index" only when every
// shard answered from its indexes, Cached only when every shard served
// from cache, and Dims reports the first indexed shard's choice (shard
// planners run independently; their orders can differ).
func mergePlans(plans []*prep.QueryPlan) *prep.QueryPlan {
	merged := &prep.QueryPlan{Strategy: prep.PlanIndex, Cached: true}
	seen := false
	for _, p := range plans {
		if p == nil {
			continue
		}
		seen = true
		if p.Strategy != prep.PlanIndex {
			merged.Strategy = prep.PlanScan
		}
		if !p.Cached {
			merged.Cached = false
		}
		if merged.Dims == nil && len(p.Dims) > 0 {
			merged.Dims = append([]string(nil), p.Dims...)
			merged.DimCounts = append([]int(nil), p.DimCounts...)
		}
		merged.EstCandidates += p.EstCandidates
		merged.Postings += p.Postings
		merged.Candidates += p.Candidates
	}
	if !seen {
		return &prep.QueryPlan{Strategy: prep.PlanScan}
	}
	return merged
}

// Query evaluates q across every shard via the scan path and merges:
// records interleave in global storage-key order (duplicate keys
// collapse), totals sum minus the duplicates seen. The read fence
// (moveMu, shared) orders the fan-out against a drain's page moves, so
// a record mid-move is seen on exactly one side — never on neither.
//
// Totals are exact. When the shards are disjoint — the steady state,
// which the fence preserves even mid-drain — per-shard totals simply
// sum. The one state that breaks disjointness is the overlap a failed
// drain leaves until a re-drain absorbs it (copies on the survivors,
// source deletions unconfirmed); there a Limit-ed fetch would hide
// overlap twins beyond the fetched window, so while the router
// suspects such an overlap (OverlapSuspected) it fetches Limit-free,
// deducts every twin the merge meets, and truncates the returned
// records to Limit afterwards — presence-only key-union counting, at
// the cost of the Limit pushdown, only while the suspicion stands.
// provlint:typed-faults
func (rt *Router) Query(q *prep.Query) ([]core.Record, int, error) {
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	rt.moveMu.RLock()
	defer rt.moveMu.RUnlock()
	key := "q|" + query.CacheKey(q)
	stamp, probed := rt.probeGenerations()
	if probed {
		if a, ok := rt.cached(key, stamp); ok {
			return a.recs, a.total, nil
		}
	}
	fq := rt.fanOutQuery(q)
	results, err := rt.fanOut(func(s Shard) (*shardResult, error) {
		recs, total, err := s.Query(fq)
		if err != nil {
			return nil, err
		}
		return &shardResult{records: recs, total: total}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	recs, total, err := rt.mergeQueryResults(q, results)
	if err == nil && probed {
		rt.retain(key, stamp, routerAnswer{recs: recs, total: total})
	}
	return recs, total, err
}

// QueryPlanned evaluates q across every shard via each shard's planner
// and merges records, totals and plans.
// provlint:typed-faults
func (rt *Router) QueryPlanned(q *prep.Query) ([]core.Record, int, *prep.QueryPlan, error) {
	if err := q.Validate(); err != nil {
		return nil, 0, nil, err
	}
	rt.moveMu.RLock()
	defer rt.moveMu.RUnlock()
	key := "p|" + query.CacheKey(q)
	stamp, probed := rt.probeGenerations()
	if probed {
		if a, ok := rt.cached(key, stamp); ok {
			plan := a.plan
			if plan == nil {
				plan = &prep.QueryPlan{}
			}
			plan.Cached = true
			return a.recs, a.total, plan, nil
		}
	}
	fq := rt.fanOutQuery(q)
	results, err := rt.fanOut(func(s Shard) (*shardResult, error) {
		recs, total, plan, err := s.QueryPlanned(fq)
		if err != nil {
			return nil, err
		}
		return &shardResult{records: recs, total: total, plan: plan}, nil
	})
	if err != nil {
		return nil, 0, nil, err
	}
	recs, total, err := rt.mergeQueryResults(q, results)
	if err != nil {
		return nil, 0, nil, err
	}
	plans := make([]*prep.QueryPlan, len(results))
	for i, r := range results {
		plans[i] = r.plan
	}
	merged := mergePlans(plans)
	if probed {
		rt.retain(key, stamp, routerAnswer{recs: recs, total: total, plan: merged})
	}
	return recs, total, merged, nil
}

// observeMergeWidth records how many shards contributed records to a
// k-way merge — the effective fan-in, as opposed to the topology size.
func (rt *Router) observeMergeWidth(parts [][]core.Record) {
	width := 0
	for _, p := range parts {
		if len(p) > 0 {
			width++
		}
	}
	rt.mergeWidth.Observe(float64(width))
}

// fanOutQuery picks the query the per-shard legs actually run: q
// itself, or — when a crashed drain's overlap is suspected and q
// carries a Limit over more than one shard — a Limit-free copy, so
// every overlap twin is inside the fetched windows and the merge's
// dupe count makes the summed Total exactly the key union's size.
// mergeQueryResults still truncates the merged records to q's Limit.
func (rt *Router) fanOutQuery(q *prep.Query) *prep.Query {
	if q.Limit <= 0 || len(rt.shards) == 1 || !rt.OverlapSuspected() {
		return q
	}
	full := *q
	full.Limit = 0
	return &full
}

// mergeQueryResults combines per-shard Query answers under q's Limit.
// Each shard returned its first Limit matches (or all of them when
// Limit is 0), so the union's first Limit records are guaranteed to be
// among the fetched ones; duplicates (drain overlap) sort adjacent and
// collapse, each one also deducted from the summed total.
func (rt *Router) mergeQueryResults(q *prep.Query, results []*shardResult) ([]core.Record, int, error) {
	parts := make([][]core.Record, len(results))
	total := 0
	for i, r := range results {
		parts[i] = r.records
		total += r.total
	}
	rt.observeMergeWidth(parts)
	merged, dupes := mergeRecords(parts, q.Limit, true)
	total -= dupes
	if total < len(merged) {
		total = len(merged)
	}
	return merged, total, nil
}

// compositeCursorPrefix tags a Router page cursor. A cursor without the
// tag is treated as a plain storage key applied uniformly to every
// shard — the form a client carries over from an unsharded store, and
// the form the first page (empty cursor) takes.
const compositeCursorPrefix = "sc1!"

// encodeCursor packs per-shard cursors into one opaque composite
// cursor: "sc1!" + N + "!" + topology fingerprint "." drain epoch (hex)
// + "!" + N url-escaped per-shard after-keys. A shard that proved
// exhaustion carries a "*" before its escaped key (QueryEscape never
// emits "*"), so later pages skip it instead of re-planning an empty
// page against it every time. The epoch rides inside the fingerprint
// field — the field that already means "the world this cursor was
// minted against" — so the wire shape ("sc1!" and the field count)
// is unchanged.
func encodeCursor(fp string, epoch uint64, perShard []string, exhausted []bool) string {
	var b strings.Builder
	b.WriteString(compositeCursorPrefix)
	b.WriteString(strconv.Itoa(len(perShard)))
	b.WriteString("!")
	b.WriteString(fp)
	b.WriteString(".")
	b.WriteString(strconv.FormatUint(epoch, 16))
	for i, c := range perShard {
		b.WriteString("!")
		if exhausted[i] {
			b.WriteString("*")
		}
		b.WriteString(url.QueryEscape(c))
	}
	return b.String()
}

// ErrBadCursor marks a composite cursor the router cannot decode —
// malformed, corrupted, or built for a different shard count. It is
// client input, not a router failure; servers map it to a bad-request
// fault.
var ErrBadCursor = errors.New("shard: malformed composite cursor")

// ErrStaleCursor marks a composite cursor minted before a drain epoch
// bump: a page move may have carried records from in front of the
// cursor's position to behind it, so resuming the walk could silently
// skip them. Like ErrBadCursor it is client input mapped to a
// bad-request fault, but it is retryable: the walk restarts from a
// consistent position — Client.QueryStream resumes from the last
// storage key it delivered as a plain cursor, which is exact because
// storage keys are shard-independent, so per-shard seek-after
// semantics survive any move.
var ErrStaleCursor = errors.New("shard: stale page cursor")

// ErrInvalidSession marks a session-scoped request whose session id
// failed validation. Client input, mapped to a bad-request fault like
// the cursor sentinels, so callers can errors.Is it across the wire.
var ErrInvalidSession = errors.New("shard: invalid session id")

// decodeCursor unpacks a composite cursor for n shards under the
// router's topology fingerprint. A plain (untagged) cursor fans out
// as-is to every shard (composite=false, epoch meaningless); a tagged
// cursor minted against a different shard list — resized OR reordered —
// is rejected rather than silently applying one shard's position to
// another (which would seek past records with no error). The drain
// epoch the cursor was minted under returns to the caller, who
// compares it against the live epoch; a fingerprint field without an
// epoch suffix (a cursor minted by a pre-epoch build) decodes as epoch
// 0, which a router that has ever drained rejects as stale — the safe
// side.
func decodeCursor(after, fp string, n int) (perShard []string, exhausted []bool, epoch uint64, composite bool, err error) {
	perShard = make([]string, n)
	exhausted = make([]bool, n)
	if !strings.HasPrefix(after, compositeCursorPrefix) {
		for i := range perShard {
			perShard[i] = after
		}
		return perShard, exhausted, 0, false, nil
	}
	fields := strings.Split(after[len(compositeCursorPrefix):], "!")
	if len(fields) < 2 {
		return nil, nil, 0, false, ErrBadCursor
	}
	count, err := strconv.Atoi(fields[0])
	if err != nil || count != len(fields)-2 {
		return nil, nil, 0, false, ErrBadCursor
	}
	if count != n {
		return nil, nil, 0, false, fmt.Errorf("%w: built for %d shards, used against %d", ErrBadCursor, count, n)
	}
	fpField, epochField, hasEpoch := strings.Cut(fields[1], ".")
	if fpField != fp {
		return nil, nil, 0, false, fmt.Errorf("%w: built for a different shard topology", ErrBadCursor)
	}
	if hasEpoch {
		epoch, err = strconv.ParseUint(epochField, 16, 64)
		if err != nil {
			return nil, nil, 0, false, fmt.Errorf("%w: bad drain epoch: %v", ErrBadCursor, err)
		}
	}
	for i := 0; i < n; i++ {
		f := fields[i+2]
		if strings.HasPrefix(f, "*") {
			exhausted[i] = true
			f = f[1:]
		}
		c, err := url.QueryUnescape(f)
		if err != nil {
			return nil, nil, 0, false, fmt.Errorf("%w: %v", ErrBadCursor, err)
		}
		perShard[i] = c
	}
	return perShard, exhausted, epoch, true, nil
}

// QueryPage evaluates one cursor-delimited page of q across the shards:
// every shard serves a page from its own cursor concurrently, the pages
// k-way-merge in storage-key order, the first pageSize merged records
// form the page, and the per-shard consumption positions pack into the
// returned composite cursor. Records a shard fetched beyond the merge
// cut are simply re-served on the next page (the shard's cursor only
// advances past consumed keys), so the protocol stays stateless
// server-side; deletions between pages are invisible to the cursor —
// it is ordinary storage-key seek-after semantics per shard, which the
// single-store page path already honours.
//
// A multi-page walk cannot silently straddle a drain: every composite
// cursor carries the drain epoch it was minted under, the whole
// fetch+merge+encode window holds the move fence shared (so the epoch
// cannot advance between reading it and stamping it into the returned
// cursor — the cursor handed back never points into a mid-move gap),
// and a cursor whose epoch predates any drain activity is rejected as
// ErrStaleCursor rather than resumed past records a page move carried
// behind it. The stateless router cannot know which records a rejected
// walker already delivered, so the restart is the client's:
// Client.QueryStream resumes from the last storage key it delivered as
// a plain cursor, which plain seek-after semantics make exact across
// any move. One remaining documented weakness: the cursor's exhaustion
// markers make a shard that proved done stay silent for the rest of
// the walk, so a record written to it mid-walk stays invisible to that
// walk even if its key sorts after the walk's position (neither the
// sharded nor the single-store contract promises mid-walk writes
// appear; a walker that must be current re-runs).
// provlint:typed-faults
func (rt *Router) QueryPage(q *prep.Query, after string, pageSize int) ([]core.Record, string, bool, *prep.QueryPlan, error) {
	if err := q.Validate(); err != nil {
		return nil, "", false, nil, err
	}
	if pageSize <= 0 {
		pageSize = query.DefaultPageSize
	}
	if pageSize > query.MaxPageSize {
		pageSize = query.MaxPageSize
	}
	cursors, exhausted, cursorEpoch, composite, err := decodeCursor(after, rt.fp, len(rt.shards))
	if err != nil {
		return nil, "", false, nil, err
	}

	rt.moveMu.RLock()
	defer rt.moveMu.RUnlock()
	// The epoch read here is the one stamped into the returned cursor:
	// bumps take moveMu exclusively, so it cannot move while we hold the
	// fence shared across the fan-out, merge and encode below.
	epoch := rt.moveEpoch.Load()
	if composite && cursorEpoch != epoch {
		return nil, "", false, nil, fmt.Errorf(
			"%w: minted in drain epoch %d, now %d — a rebalance moved records; restart the walk",
			ErrStaleCursor, cursorEpoch, epoch)
	}
	key := "g|" + query.CacheKey(q) + "|a=" + url.QueryEscape(after) + "|n=" + strconv.Itoa(pageSize) + "|e=" + strconv.FormatUint(epoch, 10)
	stamp, probed := rt.probeGenerations()
	if probed {
		if a, ok := rt.cached(key, stamp); ok {
			plan := a.plan
			if plan == nil {
				plan = &prep.QueryPlan{}
			}
			plan.Cached = true
			return a.recs, a.next, a.done, plan, nil
		}
	}
	results, err := rt.fanOut2(func(i int, s Shard) (*shardResult, error) {
		// A shard that proved exhaustion on an earlier page answers
		// empty without being asked again.
		if exhausted[i] {
			return &shardResult{done: true}, nil
		}
		recs, next, done, plan, err := s.QueryPage(q, cursors[i], pageSize)
		if err != nil {
			return nil, err
		}
		return &shardResult{records: recs, plan: plan, next: next, done: done}, nil
	})
	if err != nil {
		return nil, "", false, nil, err
	}

	parts := make([][]core.Record, len(results))
	for i, r := range results {
		parts[i] = r.records
	}
	rt.observeMergeWidth(parts)
	merged, _ := mergeRecords(parts, pageSize, false)

	// Advance each shard's cursor past its consumed records; a shard
	// none of whose fetched records made the cut keeps its old cursor.
	consumed := make(map[string]bool, len(merged))
	for i := range merged {
		consumed[merged[i].StorageKey()] = true
	}
	nextCursors := make([]string, len(rt.shards))
	done := true
	for i, r := range results {
		nextCursors[i] = cursors[i]
		allConsumed := true
		for j := range r.records {
			if k := r.records[j].StorageKey(); consumed[k] {
				nextCursors[i] = k
			} else {
				allConsumed = false
			}
		}
		// A shard is exhausted once it proved its own exhaustion AND
		// everything it fetched was merged out; the whole result set is
		// done only when every shard is.
		exhausted[i] = r.done && allConsumed
		if !exhausted[i] {
			done = false
		}
	}

	plans := make([]*prep.QueryPlan, len(results))
	for i, r := range results {
		plans[i] = r.plan
	}
	next := ""
	if !done && len(merged) > 0 {
		next = encodeCursor(rt.fp, epoch, nextCursors, exhausted)
	}
	mergedPlan := mergePlans(plans)
	if probed {
		rt.retain(key, stamp, routerAnswer{recs: merged, plan: mergedPlan, next: next, done: done})
	}
	return merged, next, done, mergedPlan, nil
}

// fanOut2 is fanOut with the shard index in hand. Each shard's leg is
// timed into its fan-out histogram, so a slow or skewed shard is
// visible per shard rather than folded into the merged latency.
func (rt *Router) fanOut2(fn func(i int, s Shard) (*shardResult, error)) ([]*shardResult, error) {
	results := make([]*shardResult, len(rt.shards))
	errs := make([]error, len(rt.shards))
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		wg.Add(1)
		go func(i int, s Shard) {
			defer wg.Done()
			span := rt.reg.Tracer().StartSpan("router.fanout")
			results[i], errs[i] = fn(i, s)
			span.SetAttr("shard", strconv.Itoa(i)).Observe(rt.fanoutSec[i], errs[i])
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// fanOutJoin runs fn against every shard concurrently and aggregates
// every shard's error rather than surfacing only the first. Mutating
// fan-outs (compaction, deletion) want this shape: one failed shard
// must not mask what happened on the others, and the caller needs to
// know exactly which shards still hold work to redo. Each leg is timed
// into its fan-out histogram like fanOut2.
func (rt *Router) fanOutJoin(fn func(i int, s Shard) error) error {
	errs := make([]error, len(rt.shards))
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		wg.Add(1)
		go func(i int, s Shard) {
			defer wg.Done()
			span := rt.reg.Tracer().StartSpan("router.fanout")
			err := fn(i, s)
			span.SetAttr("shard", strconv.Itoa(i)).Observe(rt.fanoutSec[i], err)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Sessions unions the shards' session listings, sorted and distinct.
// provlint:typed-faults
func (rt *Router) Sessions() ([]ids.ID, error) {
	rt.moveMu.RLock()
	defer rt.moveMu.RUnlock()
	seen := make(map[string]ids.ID)
	var mu sync.Mutex
	_, err := rt.fanOut(func(s Shard) (*shardResult, error) {
		sess, err := s.Sessions()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		for _, id := range sess {
			seen[id.String()] = id
		}
		mu.Unlock()
		return &shardResult{}, nil
	})
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ids.ID, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out, nil
}

// Count sums the shards' record statistics. The read fence keeps page
// moves invisible, so a record counts once — except in the overlap a
// crashed drain leaves behind (copies landed, source deletion did not),
// where it counts on both sides until a re-drain absorbs it.
// provlint:typed-faults
func (rt *Router) Count() (prep.CountResponse, error) {
	rt.moveMu.RLock()
	defer rt.moveMu.RUnlock()
	var mu sync.Mutex
	var sum prep.CountResponse
	_, err := rt.fanOut(func(s Shard) (*shardResult, error) {
		c, err := s.Count()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		sum.Records += c.Records
		sum.Interactions += c.Interactions
		sum.ActorStates += c.ActorStates
		mu.Unlock()
		return &shardResult{}, nil
	})
	return sum, err
}

// DeleteRecord removes the record under key from whichever shard holds
// it. The key cannot name its home shard (affinity hashes the session
// group, which the key does not carry — and a rebalance may have moved
// the record anyway), so the deletion fans out; it lands on at most one
// shard outside drain overlap, and retraction is idempotent regardless.
func (rt *Router) DeleteRecord(key string) (bool, error) {
	if key == "" {
		return false, fmt.Errorf("shard: empty key")
	}
	n, err := rt.DeleteRecords([]string{key})
	return n > 0, err
}

// DeleteRecords fans a batched deletion out to every shard and sums the
// per-shard deletions. It fences against an in-flight drain's page
// cycle (moveMu), so a deletion observes every record on exactly one
// consistent side of a move.
// provlint:typed-faults
func (rt *Router) DeleteRecords(keys []string) (int, error) {
	rt.moveMu.Lock()
	defer rt.moveMu.Unlock()
	var mu sync.Mutex
	deleted := 0
	err := rt.fanOutJoin(func(_ int, s Shard) error {
		n, err := s.DeleteRecords(keys)
		mu.Lock()
		deleted += n
		mu.Unlock()
		return err
	})
	return deleted, err
}

// DeleteSession fans the session retraction out to every shard (a
// rebalance may have left a session's records on a non-home shard) and
// sums the deletions.
// provlint:typed-faults
func (rt *Router) DeleteSession(session ids.ID) (int, error) {
	if !session.Valid() {
		return 0, ErrInvalidSession
	}
	rt.moveMu.Lock()
	defer rt.moveMu.Unlock()
	var mu sync.Mutex
	deleted := 0
	err := rt.fanOutJoin(func(_ int, s Shard) error {
		n, err := s.DeleteSession(session)
		mu.Lock()
		deleted += n
		mu.Unlock()
		return err
	})
	return deleted, err
}

// Compact fans compaction out to every shard. Shards compact
// independently, so one failure does not stop the others; the joined
// error names every shard that still holds garbage.
func (rt *Router) Compact() error {
	return rt.fanOutJoin(func(_ int, s Shard) error {
		return s.Compact()
	})
}

// CompactAbove compacts only the shards whose own garbage ratio has
// reached threshold — the scheduled-reclamation form: one hot shard
// crossing the threshold must not force every clean shard through a
// full live-data rewrite. Shards that cannot report a ratio (remote
// endpoints read as zero) are skipped; they schedule their own
// compactions. A negative threshold disables.
func (rt *Router) CompactAbove(threshold float64) error {
	if threshold < 0 {
		return nil
	}
	return rt.fanOutJoin(func(_ int, s Shard) error {
		if s.GarbageRatio() >= threshold {
			return s.Compact()
		}
		return nil
	})
}

// GarbageRatio reports the worst shard's dead-byte fraction — the shard
// a scheduled compaction most needs to visit drives the signal (Compact
// fans out and relieves all of them at once).
func (rt *Router) GarbageRatio() float64 {
	max := 0.0
	for _, s := range rt.shards {
		if g := s.GarbageRatio(); g > max {
			max = g
		}
	}
	return max
}

// Tombstones sums the shards' unreclaimed deletion markers.
func (rt *Router) Tombstones() int64 {
	var sum int64
	for _, s := range rt.shards {
		sum += s.Tombstones()
	}
	return sum
}

// ShardStats reports every shard's telemetry, indexed in topology
// order. Shards implementing ShardStatser (local shards, and remote
// shards on a stats-capable server) report in full; others fall back
// to the base Shard surface. The per-shard calls fan out concurrently
// — a remote shard's stats cost a wire round trip.
func (rt *Router) ShardStats() ([]prep.ShardStats, error) {
	out := make([]prep.ShardStats, len(rt.shards))
	errs := make([]error, len(rt.shards))
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		wg.Add(1)
		go func(i int, s Shard) {
			defer wg.Done()
			var st prep.ShardStats
			var err error
			if ss, ok := s.(ShardStatser); ok {
				st, err = ss.ShardStats()
			} else {
				var count prep.CountResponse
				count, err = s.Count()
				st = prep.ShardStats{
					Records:      count.Records,
					GarbageRatio: s.GarbageRatio(),
					Tombstones:   s.Tombstones(),
				}
				if es, ok := s.(EngineStatser); ok {
					st.Engine = es.EngineStats().Wire()
				}
			}
			st.Index = i
			if u, ok := s.(interface{ URL() string }); ok {
				st.URL = u.URL()
			}
			out[i], errs[i] = st, err
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EngineStats implements EngineStatser by aggregating over the shards
// that can report (local shards, and remote shards via the stats wire
// action; shards that cannot report contribute zero).
func (rt *Router) EngineStats() EngineStats {
	var sum EngineStats
	for _, s := range rt.shards {
		if es, ok := s.(EngineStatser); ok {
			sum.add(es.EngineStats())
		}
	}
	return sum
}

// Close closes every shard, returning the first error.
func (rt *Router) Close() error {
	var firstErr error
	for _, s := range rt.shards {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// drainPageSize is how many records one drain step moves: fetched in
// one page, re-recorded in per-asserter batches, deleted in one
// DeleteRecords call.
const drainPageSize = 256

// SetDrainPageSize overrides how many records one drain step moves.
// Tests (and the race harness) shrink it so a drain over a small data
// set still takes many page moves — the window the epoch fencing
// exists for. Values < 1 restore the default. Safe to call between
// drains; a drain in flight keeps the size it started with.
func (rt *Router) SetDrainPageSize(n int) {
	rt.drainMu.Lock()
	defer rt.drainMu.Unlock()
	if n < 1 {
		n = drainPageSize
	}
	rt.drainPage = n
}

// shardDesc names a shard for error messages: the endpoint URL for a
// remote shard, its embedded position otherwise.
func shardDesc(i int, s Shard) string {
	if u, ok := s.(interface{ URL() string }); ok && u.URL() != "" {
		return u.URL()
	}
	return fmt.Sprintf("embedded shard %d", i)
}

// maxDrainPasses bounds Drain's sweep loop. The router's own writes are
// fenced by the topology flip, so pass two is normally the empty
// confirmation sweep — but a writer shipping to the shard's endpoint
// directly (a session-affine AsyncRecorder that still lists it, in a
// remote topology) keeps refilling it, and without a cap Drain would
// chase that writer forever. Hitting the cap returns an error naming
// the condition; the records moved so far stay moved (re-draining
// resumes where the sweeps left off).
const maxDrainPasses = 16

// Drain rebalances shard i's records onto the surviving active shards
// and empties it: the shard first stops receiving affine writes (the
// topology flip waits out in-flight routed writes), then its records
// stream out page by page — each page is re-recorded session-affine
// onto the survivors FIRST and deleted from the source only after every
// copy is acknowledged, so a crash at any point loses nothing; at worst
// it leaves copies on both sides, which idempotent re-recording (on a
// drain retry) and the read merge's key-dedup absorb — and which the
// router remembers (markOverlap) so Limit-ed Totals stay exact until a
// re-drain absorbs the twins. One-shot queries running concurrently
// keep seeing exactly the full record set throughout — the moveMu read
// fence orders each fan-out against the page moves; a multi-page walk
// whose cursor spans the drain is fenced by the drain epoch the cursor
// carries (see QueryPage): it is rejected as ErrStaleCursor and
// restarted by the client, never silently short.
//
// The drained shard stays in the read fan-out (it is empty, so it
// answers trivially); re-draining an already-drained shard is a cheap
// no-op, which is also the crash-recovery path. It returns how many
// records were moved.
func (rt *Router) Drain(i int) (int, error) {
	rt.drainMu.Lock()
	defer rt.drainMu.Unlock()

	if i < 0 || i >= len(rt.shards) {
		return 0, fmt.Errorf("shard: drain index %d out of range [0,%d)", i, len(rt.shards))
	}
	rt.topo.Lock()
	if rt.active[i] {
		others := 0
		for j, a := range rt.active {
			if a && j != i {
				others++
			}
		}
		if others == 0 {
			rt.topo.Unlock()
			return 0, fmt.Errorf("shard: cannot drain the last active shard")
		}
		rt.active[i] = false
	}
	rt.topo.Unlock()

	// Epoch bumps bracket the drain: the bump here retires every cursor
	// minted before it (a walk resumed mid-drain would otherwise race
	// the first page move), drainOnePage bumps after each page it
	// relocates, and the deferred bump retires cursors minted between
	// the last page move and the finish.
	rt.bumpMoveEpoch()
	defer rt.bumpMoveEpoch()

	moved := 0
	// Passes repeat until a full sweep moves nothing: the first pass
	// races only writes that were already routed before the topology
	// flip (the flip waited those out), so the second pass is normally
	// the empty confirmation sweep. The cap catches writers outside the
	// router that keep refilling the shard — draining requires them to
	// stop (or route through the router) first.
	for pass := 0; pass < maxDrainPasses; pass++ {
		n, err := rt.drainPass(i)
		moved += n
		if err != nil {
			return moved, err
		}
		if n == 0 {
			// The sweep confirmed the source is empty: any overlap a
			// previously failed drain left has been absorbed, so summed
			// Totals are exact again.
			rt.markOverlap(i, false)
			return moved, nil
		}
	}
	// Every page cycle in the capped sweeps completed (copy AND source
	// deletion), so hitting the cap leaves no overlap — only a shard
	// that keeps refilling.
	return moved, fmt.Errorf("shard: draining shard %d (%s): still receiving records after %d sweeps — an external writer is shipping to it directly; stop it (or route it through the router) and re-drain",
		i, shardDesc(i, rt.shards[i]), maxDrainPasses)
}

// drainPass streams one full sweep of shard i: page, copy, delete —
// each page's whole cycle under the delete fence (see moveMu), so a
// concurrent fan-out deletion can never slip between the page read and
// the re-record and be undone by the drain's copy.
func (rt *Router) drainPass(i int) (int, error) {
	src := rt.shards[i]
	moved := 0
	after := ""
	for {
		recs, next, done, err := rt.drainOnePage(src, i, after)
		if err != nil {
			return moved, err
		}
		moved += len(recs)
		if done || next == "" {
			return moved, nil
		}
		after = next
	}
}

// drainOnePage moves one page: read, copy to survivors, delete source.
func (rt *Router) drainOnePage(src Shard, i int, after string) (_ []core.Record, _ string, _ bool, err error) {
	span := rt.reg.Tracer().StartSpan("router.drain_page").SetAttr("shard", strconv.Itoa(i))
	defer func() { span.End(err) }()
	rt.moveMu.Lock()
	defer rt.moveMu.Unlock()
	recs, next, done, _, err := src.QueryPage(&prep.Query{}, after, rt.drainPage)
	if err != nil {
		return nil, "", false, fmt.Errorf("shard: draining shard %d: reading page: %w", i, err)
	}
	if len(recs) == 0 {
		return nil, next, done, nil
	}
	// From here on records may land on the survivors, so whatever the
	// outcome the epoch must advance before the fence drops: cursors
	// minted before this page cannot be allowed to resume past the
	// move. (Deferred after the Unlock above, so it runs first — still
	// under the fence.) A failure past this point additionally leaves
	// the source page possibly twinned on the survivors until a
	// re-drain confirms it gone.
	defer rt.moveEpoch.Add(1)
	if err := rt.relocate(i, recs); err != nil {
		rt.markOverlap(i, true)
		return nil, "", false, err
	}
	keys := make([]string, len(recs))
	for j := range recs {
		keys[j] = recs[j].StorageKey()
	}
	// Copies are acknowledged: only now may the source forget.
	if _, err := src.DeleteRecords(keys); err != nil {
		rt.markOverlap(i, true)
		return nil, "", false, fmt.Errorf("shard: draining shard %d: deleting moved page: %w", i, err)
	}
	rt.reg.Batch(func() {
		rt.drainPages.Add(1)
		rt.drainMoved.Add(int64(len(recs)))
	})
	return recs, next, done, nil
}

// relocate re-records one drained page onto the surviving shards,
// grouped by (home shard, asserter) — Record calls carry one asserter.
func (rt *Router) relocate(from int, recs []core.Record) error {
	rt.topo.RLock()
	act := make([]int, 0, len(rt.shards))
	for j, a := range rt.active {
		if a && j != from {
			act = append(act, j)
		}
	}
	rt.topo.RUnlock()
	if len(act) == 0 {
		return fmt.Errorf("shard: draining shard %d: no surviving shard to move records to", from)
	}

	type groupKey struct {
		shard    int
		asserter core.ActorID
	}
	groups := make(map[groupKey][]core.Record)
	for j := range recs {
		gk := groupKey{
			shard:    act[AffinityIndex(AffinityTerm(&recs[j]), len(act))],
			asserter: recs[j].Asserter(),
		}
		groups[gk] = append(groups[gk], recs[j])
	}
	for gk, sub := range groups {
		acc, rejects, err := rt.shards[gk.shard].Record(gk.asserter, sub)
		if err != nil {
			return fmt.Errorf("shard: draining shard %d: copying %d records to shard %d: %w", from, len(sub), gk.shard, err)
		}
		if len(rejects) > 0 {
			return fmt.Errorf("shard: draining shard %d: shard %d rejected %d of %d records, first: %s",
				from, gk.shard, len(rejects), len(sub), rejects[0].Reason)
		}
		if acc != len(sub) {
			return fmt.Errorf("shard: draining shard %d: shard %d accepted %d of %d records", from, gk.shard, acc, len(sub))
		}
	}
	return nil
}
