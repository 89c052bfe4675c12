package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/kv"
	"preserv/internal/obs"
	"preserv/internal/prep"
	"preserv/internal/query"
)

// Router presents the full store API over N shards: writes route
// session-affine to one shard, reads fan out to all of them and merge.
// A single store is a router over one shard: its result cache is the
// store's only one, and the one-shard paths below (a leg on the
// caller's goroutine, a part returned unmerged, the shard's own page
// cursor) keep what the router adds to a single store's reads small.
// A Router is safe for concurrent use. The shard list is fixed at
// construction and the router holds no lock of its own: every field is
// set once by NewRouter, and the result cache synchronises itself.
type Router struct {
	shards []Shard
	// fp fingerprints the shard list's identity AND order (computed
	// once at construction); composite cursors embed it so a cursor
	// minted against one topology is rejected — not silently mis-applied
	// — when the endpoint list is reordered between restarts.
	fp string
	// reg is the router's own telemetry: per-shard fan-out latency
	// (fanoutSec[i], resolved at construction so the hot path never
	// touches the registry map) and k-way-merge width. Per-shard store
	// registries stay with their shards.
	reg        *obs.Registry
	fanoutSec  []*obs.Histogram
	mergeWidth *obs.Histogram
	// rc caches merged fan-out answers keyed on the query's canonical
	// form and stamped with the tuple of every shard's stamp for the
	// query, probed BEFORE the fan-out; any shard that cannot report one
	// disables caching for that call. See resultcache.go for the
	// invalidation argument. The field is never reassigned:
	// SetResultCacheSize resets the cache in place.
	rc *kv.LRU[string, routerAnswer]
	// probes holds how each shard is probed for a query's stamp, worked
	// out once by NewRouter (by QueryGeneration, or by Generation), so a
	// query pays no interface assertion.
	probes []func(q *prep.Query) (uint64, bool)
}

// NewRouter builds a router over the given shards (at least one).
func NewRouter(shards ...Shard) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	rt := &Router{
		shards: shards,
		fp:     fingerprint(shards),
		reg:    obs.NewRegistry(),
		rc:     kv.NewLRU[string, routerAnswer](DefaultResultCacheSize),
	}
	rt.probes = make([]func(*prep.Query) (uint64, bool), len(shards))
	rt.fanoutSec = make([]*obs.Histogram, len(shards))
	for i, s := range shards {
		rt.probes[i] = prober(s)
		rt.fanoutSec[i] = rt.reg.Histogram(fmt.Sprintf(`router_shard_fanout_seconds{shard="%d"}`, i), nil)
	}
	rt.mergeWidth = rt.reg.Histogram("router_merge_width", obs.SizeBuckets)
	rt.reg.GaugeFunc("router_resultcache_hits", func() float64 { return float64(rt.rc.Stats().Hits) })
	rt.reg.GaugeFunc("router_resultcache_misses", func() float64 { return float64(rt.rc.Stats().Misses) })
	rt.reg.GaugeFunc("router_resultcache_entries", func() float64 { return float64(rt.rc.Stats().Entries) })
	return rt, nil
}

// SetResultCacheSize empties the router's result cache, resets its
// counters and sets its entry capacity (0 or negative disables
// caching). Safe to call while serving.
func (rt *Router) SetResultCacheSize(capacity int) { rt.rc.Reset(capacity) }

// ResultCacheStats reports the result cache's cumulative lookup
// outcomes (a tuple-mismatched entry evicted on lookup counts as a
// miss, same convention as the per-store query cache).
func (rt *Router) ResultCacheStats() (hits, misses int64) {
	st := rt.rc.Stats()
	return st.Hits, st.Misses
}

// prober is how a router probes s for a query's stamp: by
// QueryGeneration where s offers it, else by Generation.
func prober(s Shard) func(q *prep.Query) (uint64, bool) {
	if p, ok := s.(QueryProber); ok {
		return p.QueryGeneration
	}
	return func(*prep.Query) (uint64, bool) { return s.Generation() }
}

// probeGenerations collects every shard's stamp for q into the
// comparable stamp result-cache entries carry: 8 little-endian bytes
// per shard, in topology order. ok is false when any shard cannot
// report one; the caller then bypasses the result cache for this
// fan-out (no counters move: the cache was never consulted). Callers
// probe before they fan out (see resultcache.go).
func (rt *Router) probeGenerations(q *prep.Query) (string, bool) {
	var buf [64]byte
	b := buf[:0]
	for _, probe := range rt.probes {
		g, ok := probe(q)
		if !ok {
			return "", false
		}
		b = binary.LittleEndian.AppendUint64(b, g)
	}
	return string(b), true
}

// foldSeed keys the hash a router folds its shards' stamps with.
var foldSeed = maphash.MakeSeed()

// Generation implements Shard for the router itself (a router can be a
// shard of a parent router): its stamp for a query not scoped to one
// session, which moves with any shard's generation.
func (rt *Router) Generation() (uint64, bool) { return rt.QueryGeneration(&prep.Query{}) }

// QueryGeneration implements QueryProber for the router itself: a hash
// of every shard's stamp for q, compared for equality only (two
// different tuples hash alike with probability 2^-64).
func (rt *Router) QueryGeneration(q *prep.Query) (uint64, bool) {
	tuple, ok := rt.probeGenerations(q)
	if !ok {
		return 0, false
	}
	return maphash.String(foldSeed, tuple), true
}

// Obs returns the router's telemetry registry.
func (rt *Router) Obs() *obs.Registry { return rt.reg }

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

// NumShards reports the topology size.
func (rt *Router) NumShards() int { return len(rt.shards) }

// Shard returns the i-th shard (for tests and maintenance tooling).
func (rt *Router) Shard(i int) Shard { return rt.shards[i] }

// Record validates and stores a batch of p-assertions: each record
// routes to its affinity shard (AffinityIndex over the shard count, the
// placement every existing sharded store was written with), the
// per-shard sub-batches dispatch as one fan-out (a shard with no record
// in the batch is not called), and the responses recombine — accepted
// counts sum, reject indexes map back to positions in the caller's
// slice. A failed shard surfaces as the call's error; sub-batches on
// other shards may still have committed (exactly the partial-failure
// surface one store's batched Record already has), and a client retry
// is absorbed idempotently.
func (rt *Router) Record(asserter core.ActorID, records []core.Record) (int, []prep.Reject, error) {
	n := len(rt.shards)
	if n == 1 || len(records) == 0 {
		return rt.shards[0].Record(asserter, records)
	}

	// Partition by home shard, a counting sort: sum each shard's count
	// into its end, then fill back to front, moving each end to its
	// shard's start. Shard si's sub-batch is sub[start[si]:start[si+1]],
	// in the caller's order; pos maps it back to the caller's positions.
	home := make([]int, len(records))
	start := make([]int, n+1)
	for i := range records {
		home[i] = AffinityIndex(AffinityTerm(&records[i]), n)
		start[home[i]]++
	}
	for si := 1; si <= n; si++ {
		start[si] += start[si-1]
	}
	sub := make([]core.Record, len(records))
	pos := make([]int, len(records))
	for i := len(records) - 1; i >= 0; i-- {
		si := home[i]
		start[si]--
		sub[start[si]], pos[start[si]] = records[i], i
	}

	accepted := make([]int, n)
	rejected := make([][]prep.Reject, n)
	err := firstErr(rt.each(func(si int, s Shard) (err error) {
		lo, hi := start[si], start[si+1]
		if lo == hi {
			return errIdle
		}
		accepted[si], rejected[si], err = s.Record(asserter, sub[lo:hi:hi])
		for k := range rejected[si] {
			if r := &rejected[si][k]; r.Index >= 0 && r.Index < hi-lo {
				r.Index = pos[lo+r.Index]
			}
		}
		return err
	}))

	total := 0
	var rejects []prep.Reject
	for si := range accepted {
		total += accepted[si]
		rejects = append(rejects, rejected[si]...)
	}
	slices.SortFunc(rejects, func(a, b prep.Reject) int { return a.Index - b.Index })
	return total, rejects, err
}

// shardResult is one shard's contribution to a fanned-out read.
type shardResult struct {
	records []core.Record
	total   int
	plan    *prep.QueryPlan
	next    string
	done    bool
}

// each runs fn against every shard concurrently and returns every
// shard's error in shard order (nil where the leg succeeded). It is the
// router's one fan-out: each leg is timed into its shard's fan-out
// histogram, so a slow or skewed shard is visible per shard rather than
// folded into the merged latency. Reads surface the first error
// (firstErr); mutations join them all, each named by its shard
// (joinErrs). A leg that returns errIdle did not ask its shard: it is
// not timed, and its error is nil. A lone leg runs on the caller's
// goroutine: there is nothing for it to overlap with.
func (rt *Router) each(fn func(i int, s Shard) error) []error {
	errs := make([]error, len(rt.shards))
	leg := func(i int) {
		span := rt.reg.Tracer().StartSpan("router.fanout")
		if err := fn(i, rt.shards[i]); err != errIdle {
			errs[i] = err
			span.SetInt("shard", int64(i)).Observe(rt.fanoutSec[i], err)
		}
	}
	if len(rt.shards) == 1 {
		leg(0)
		return errs
	}
	var wg sync.WaitGroup
	for i := range rt.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			leg(i)
		}()
	}
	wg.Wait()
	return errs
}

// errIdle is what a leg of each returns when its shard has nothing to
// do for the call, so that the shard's fan-out histogram counts only
// the legs that asked it.
var errIdle = errors.New("shard: idle leg")

// firstErr returns the first shard's error, in shard order.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// joinErrs aggregates every shard's error rather than surfacing only the
// first. Mutating fan-outs (compaction, deletion) want this shape: one
// failed shard must not mask what happened on the others, and the
// caller needs to know exactly which shards still hold work to redo.
func joinErrs(errs []error) error {
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return errors.Join(errs...)
}

// throughCache answers key, a form of q, from the result cache when
// every shard reports a stamp for q and the cached answer is stamped
// with exactly the current tuple; a hit's plan (if any) is marked
// Cached. Otherwise it runs fill — the fan-out and merge — and retains
// its answer under the tuple probed BEFORE the fan-out (see
// resultcache.go). A shard that cannot report a stamp bypasses the
// cache for this call.
func (rt *Router) throughCache(q *prep.Query, key string, fill func() (routerAnswer, error)) (routerAnswer, error) {
	stamp, probed := rt.probeGenerations(q)
	if probed {
		if a, ok := rt.cached(key, stamp); ok {
			if a.plan != nil {
				a.plan.Cached = true
			}
			return a, nil
		}
	}
	a, err := fill()
	if err == nil && probed {
		rt.retain(key, stamp, a)
	}
	return a, err
}

// mergeRecords k-way-merges per-shard result slices (each already in
// ascending storage-key order) into one, deduplicating identical keys.
// Shards written through one router are disjoint, but twins still
// arise: reopen a -shards N store with a different N and a client
// re-ship lands a record on its new home while the old copy stays put.
// A twin must merge and count once; the check costs one string compare
// per merged record. limit > 0 truncates the merged records (not the
// total). It returns the merged records and the number of duplicate
// keys met. With countAll the scan runs every head to exhaustion and
// counts dupes across the WHOLE input, including fetched keys beyond
// the limit cut, so the summed Total deducts every twin the shards
// returned. Without countAll the merge returns as soon as the limit is
// filled — the paged fan-out path discards the dupe count and must not
// pay for scanning past the page cut. A lone non-empty part is returned
// as it is, cut to the limit: it is in order and holds no twins.
func mergeRecords(parts [][]core.Record, limit int, countAll bool) (out []core.Record, dupes int) {
	type head struct {
		part, pos int
		key       string
	}
	heads := make([]head, 0, len(parts))
	for p := range parts {
		if len(parts[p]) > 0 {
			heads = append(heads, head{part: p})
		}
	}
	if len(heads) == 1 {
		out = parts[heads[0].part]
		if limit > 0 && len(out) > limit {
			out = out[:limit]
		}
		return out, 0
	}
	for i := range heads {
		heads[i].key = parts[heads[i].part][0].StorageKey()
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
		// Key dedup: a twin merges (and counts) once. All copies of a
		// key sort adjacent, so comparing against the previous distinct
		// key suffices — and prevKey advances on every distinct key,
		// appended or beyond the cut, so twins of an overshoot key still
		// register as dupes.
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
func mergePlans(results []shardResult) *prep.QueryPlan {
	merged := &prep.QueryPlan{Strategy: prep.PlanIndex, Cached: true}
	seen := false
	for _, r := range results {
		p := r.plan
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
// collapse), totals sum minus the duplicates seen.
//
// Totals are exact when the shards are disjoint, which shards written
// through one router are. Each twin (see mergeRecords) that lies beyond
// a Limit-ed fetch window goes unseen and over-counts the Total by one;
// Limit-free answers deduct every twin.
// provlint:typed-faults
func (rt *Router) Query(q *prep.Query) ([]core.Record, int, error) {
	recs, total, _, err := rt.queryShards(q, false)
	return recs, total, err
}

// QueryPlanned evaluates q across every shard via each shard's planner
// and merges records, totals and plans.
// provlint:typed-faults
func (rt *Router) QueryPlanned(q *prep.Query) ([]core.Record, int, *prep.QueryPlan, error) {
	return rt.queryShards(q, true)
}

// queryShards is the one body of Query (planned false: each shard's
// scan path, no plan) and QueryPlanned (each shard's planner, plans
// merged).
// provlint:typed-faults
func (rt *Router) queryShards(q *prep.Query, planned bool) ([]core.Record, int, *prep.QueryPlan, error) {
	if err := q.Validate(); err != nil {
		return nil, 0, nil, err
	}
	kind := "q|"
	if planned {
		kind = "p|"
	}
	a, err := rt.throughCache(q, kind+query.CacheKey(q), func() (routerAnswer, error) {
		results := make([]shardResult, len(rt.shards))
		err := firstErr(rt.each(func(i int, s Shard) (err error) {
			r := &results[i]
			if planned {
				r.records, r.total, r.plan, err = s.QueryPlanned(q)
			} else {
				r.records, r.total, err = s.Query(q)
			}
			return err
		}))
		if err != nil {
			return routerAnswer{}, err
		}
		a := routerAnswer{}
		a.recs, a.total = rt.mergeQueryResults(q, results)
		if planned {
			a.plan = mergePlans(results)
		}
		return a, nil
	})
	return a.recs, a.total, a.plan, err
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

// mergeQueryResults combines per-shard Query answers under q's Limit.
// Each shard returned its first Limit matches (or all of them when
// Limit is 0), so the union's first Limit records are guaranteed to be
// among the fetched ones; twins sort adjacent and collapse, each one
// also deducted from the summed total.
func (rt *Router) mergeQueryResults(q *prep.Query, results []shardResult) ([]core.Record, int) {
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
	return merged, total
}

// compositeCursorPrefix tags a Router page cursor. A cursor without the
// tag is treated as a plain storage key applied uniformly to every
// shard — the form a client carries over from an unsharded store, and
// the form the first page (empty cursor) takes.
const compositeCursorPrefix = "sc1!"

// encodeCursor packs per-shard cursors into one opaque composite
// cursor: "sc1!" + N + "!" + topology fingerprint + "!" + N url-escaped
// per-shard after-keys. A shard that proved exhaustion carries a "*"
// before its escaped key (QueryEscape never emits "*"), so later pages
// skip it instead of re-planning an empty page against it every time.
func encodeCursor(fp string, perShard []string, exhausted []bool) string {
	var b strings.Builder
	b.WriteString(compositeCursorPrefix)
	b.WriteString(strconv.Itoa(len(perShard)))
	b.WriteString("!")
	b.WriteString(fp)
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

// ErrInvalidSession marks a session-scoped request whose session id
// failed validation. Client input, mapped to a bad-request fault like
// the cursor sentinel, so callers can errors.Is it across the wire.
var ErrInvalidSession = errors.New("shard: invalid session id")

// decodeCursor unpacks a composite cursor for n shards under the
// router's topology fingerprint. A plain (untagged) cursor fans out
// as-is to every shard; a tagged cursor minted against a different
// shard list — resized OR reordered — is rejected rather than silently
// applying one shard's position to another (which would seek past
// records with no error).
func decodeCursor(after, fp string, n int) (perShard []string, exhausted []bool, err error) {
	perShard = make([]string, n)
	exhausted = make([]bool, n)
	if !strings.HasPrefix(after, compositeCursorPrefix) {
		for i := range perShard {
			perShard[i] = after
		}
		return perShard, exhausted, nil
	}
	fields := strings.Split(after[len(compositeCursorPrefix):], "!")
	if len(fields) < 2 {
		return nil, nil, ErrBadCursor
	}
	count, err := strconv.Atoi(fields[0])
	if err != nil || count != len(fields)-2 {
		return nil, nil, ErrBadCursor
	}
	if count != n {
		return nil, nil, fmt.Errorf("%w: built for %d shards, used against %d", ErrBadCursor, count, n)
	}
	if fields[1] != fp {
		return nil, nil, fmt.Errorf("%w: built for a different shard topology", ErrBadCursor)
	}
	for i := 0; i < n; i++ {
		f := fields[i+2]
		if strings.HasPrefix(f, "*") {
			exhausted[i] = true
			f = f[1:]
		}
		c, err := url.QueryUnescape(f)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrBadCursor, err)
		}
		perShard[i] = c
	}
	return perShard, exhausted, nil
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
// With one shard the shard's page is the answer as it is, and its
// cursor is returned unwrapped: a single store's cursors stay plain
// storage keys. A routed child's composite cursor is still wrapped, so
// it cannot be taken for one minted against another topology.
//
// One documented weakness: the cursor's exhaustion markers make a shard
// that proved done stay silent for the rest of the walk, so a record
// written to it mid-walk stays invisible to that walk even if its key
// sorts after the walk's position (neither the sharded nor the
// single-store contract promises mid-walk writes appear; a walker that
// must be current re-runs).
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
	cursors, exhausted, err := decodeCursor(after, rt.fp, len(rt.shards))
	if err != nil {
		return nil, "", false, nil, err
	}

	key := "g|" + query.CacheKey(q) + "|a=" + url.QueryEscape(after) + "|n=" + strconv.Itoa(pageSize)
	a, err := rt.throughCache(q, key, func() (routerAnswer, error) {
		results := make([]shardResult, len(rt.shards))
		err := firstErr(rt.each(func(i int, s Shard) (err error) {
			// A shard that proved exhaustion on an earlier page answers
			// empty without being asked again.
			if exhausted[i] {
				results[i].done = true
				return errIdle
			}
			r := &results[i]
			r.records, r.next, r.done, r.plan, err = s.QueryPage(q, cursors[i], pageSize)
			return err
		}))
		if err != nil {
			return routerAnswer{}, err
		}
		if r := results[0]; len(results) == 1 && !strings.HasPrefix(r.next, compositeCursorPrefix) {
			return routerAnswer{recs: r.records, plan: mergePlans(results), next: r.next, done: r.done}, nil
		}
		return rt.mergePage(results, cursors, exhausted, pageSize), nil
	})
	return a.recs, a.next, a.done, a.plan, err
}

// mergePage merges one page's per-shard answers: the first pageSize
// records in storage-key order form the page, and each shard's cursor
// advances past its consumed records (a shard none of whose fetched
// records made the cut keeps its old cursor). exhausted is updated in
// place for the next cursor.
func (rt *Router) mergePage(results []shardResult, cursors []string, exhausted []bool, pageSize int) routerAnswer {
	parts := make([][]core.Record, len(results))
	for i, r := range results {
		parts[i] = r.records
	}
	rt.observeMergeWidth(parts)
	merged, _ := mergeRecords(parts, pageSize, false)

	consumed := make(map[string]bool, len(merged))
	for i := range merged {
		consumed[merged[i].StorageKey()] = true
	}
	nextCursors := make([]string, len(results))
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
	next := ""
	if !done && len(merged) > 0 {
		next = encodeCursor(rt.fp, nextCursors, exhausted)
	}
	return routerAnswer{recs: merged, plan: mergePlans(results), next: next, done: done}
}

// Sessions unions the shards' session listings, sorted and distinct.
// provlint:typed-faults
func (rt *Router) Sessions() ([]ids.ID, error) {
	per := make([][]ids.ID, len(rt.shards))
	if err := firstErr(rt.each(func(i int, s Shard) (err error) {
		per[i], err = s.Sessions()
		return err
	})); err != nil {
		return nil, err
	}
	seen := make(map[string]ids.ID)
	for _, sess := range per {
		for _, id := range sess {
			seen[id.String()] = id
		}
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

// Count sums the shards' record statistics: exact on disjoint shards,
// while a twin (see mergeRecords) counts once per shard holding it.
// provlint:typed-faults
func (rt *Router) Count() (prep.CountResponse, error) {
	per := make([]prep.CountResponse, len(rt.shards))
	err := firstErr(rt.each(func(i int, s Shard) (err error) {
		per[i], err = s.Count()
		return err
	}))
	var sum prep.CountResponse
	for _, c := range per {
		sum.Records += c.Records
		sum.Interactions += c.Interactions
		sum.ActorStates += c.ActorStates
	}
	return sum, err
}

// deleteEach fans a deletion out to every shard, sums the per-shard
// deletions and joins the per-shard errors.
func (rt *Router) deleteEach(del func(s Shard) (int, error)) (int, error) {
	per := make([]int, len(rt.shards))
	err := joinErrs(rt.each(func(i int, s Shard) (err error) {
		per[i], err = del(s)
		return err
	}))
	deleted := 0
	for _, n := range per {
		deleted += n
	}
	return deleted, err
}

// DeleteRecords fans a batched deletion out to every shard and sums the
// per-shard deletions. A storage key cannot name its home shard
// (affinity hashes the session group, which the key does not carry), so
// every shard is asked; retraction is idempotent, and absent keys are
// no-ops.
// provlint:typed-faults
func (rt *Router) DeleteRecords(keys []string) (int, error) {
	return rt.deleteEach(func(s Shard) (int, error) { return s.DeleteRecords(keys) })
}

// DeleteSession fans the session retraction out to every shard (a twin
// or a record shipped under a different endpoint list can sit off its
// session's home shard) and sums the deletions.
// provlint:typed-faults
func (rt *Router) DeleteSession(session ids.ID) (int, error) {
	if !session.Valid() {
		return 0, ErrInvalidSession
	}
	return rt.deleteEach(func(s Shard) (int, error) { return s.DeleteSession(session) })
}

// Compact fans compaction out to every shard. Shards compact
// independently, so one failure does not stop the others; the joined
// error names every shard that still holds garbage.
func (rt *Router) Compact() error {
	return joinErrs(rt.each(func(_ int, s Shard) error {
		return s.Compact()
	}))
}

// GarbageRatio reports the worst shard's dead-byte fraction (Compact
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

// ShardStats implements Shard: the router's node of the stats tree,
// from one fan-out (a remote shard's stats cost one wire round trip).
// Each shard reports its own node, in topology order; the router's
// figures are their Add, with its result cache standing in for their
// cache counters (a child router's own stays in its node), and its
// histograms and history are the router's own.
func (rt *Router) ShardStats() (prep.ShardStats, error) {
	node := prep.ShardStats{Shards: make([]prep.ShardStats, len(rt.shards))}
	if err := firstErr(rt.each(func(i int, s Shard) (err error) {
		node.Shards[i], err = s.ShardStats()
		return err
	})); err != nil {
		return prep.ShardStats{}, err
	}
	for _, c := range node.Shards {
		node.Add(c)
	}
	node.Engine.CacheHits, node.Engine.CacheMisses = rt.ResultCacheStats()
	node.Histograms = HistogramStats(rt.reg)
	node.Slow = SlowSpans(rt.reg.Tracer())
	return node, nil
}

// EngineStats implements Shard: the shards' planner counters summed,
// with this router's result cache as the cache counters.
func (rt *Router) EngineStats() EngineStats {
	var sum EngineStats
	for _, s := range rt.shards {
		sum.Add(s.EngineStats())
	}
	sum.CacheHits, sum.CacheMisses = rt.ResultCacheStats()
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
