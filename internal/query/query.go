// Package query plans and executes queries over the provenance store
// using the secondary indexes of internal/index. A prep.Query is a
// conjunctive predicate; the planner probes the cardinality of every
// indexed constraint, orders them by measured selectivity, intersects
// their posting lists with seekable iterators (a leapfrog merge that
// never materialises an equality list; a time window no longer than the
// driving list is materialised and drives), point-fetches only the
// candidate records in batched chunks, and applies the remaining
// constraints residually. GroupID and Asserter are always residual:
// they have no posting list, and are checked on the records another
// constraint selects.
// Queries that constrain an interaction or no indexed field take the
// store's scan path, so results are always identical to a full scan —
// only the access pattern changes.
//
// For large result sets QueryPage serves cursor-delimited pages with
// early termination, so a consumer streaming a big session never makes
// the store buffer the whole answer.
package query

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/index"
	"preserv/internal/obs"
	"preserv/internal/prep"
	"preserv/internal/store"
)

// DefaultPageSize is the page size QueryPage uses when the caller asks
// for zero; MaxPageSize caps what a caller may ask for, bounding the
// store's per-request buffering however large the client's appetite.
const (
	DefaultPageSize = 256
	MaxPageSize     = 4096
)

// Engine executes planned queries over one store.
type Engine struct {
	s     *store.Store
	stats plannerCounters
	// Latency and postings-volume distributions live in the store's
	// registry, so one registry carries a shard's complete telemetry.
	// The cumulative plannerCounters above are what Stats reports; the
	// histograms add the distribution view.
	plannedSec  *obs.Histogram
	pageSec     *obs.Histogram
	postingsPer *obs.Histogram
}

// New returns an engine over s.
func New(s *store.Store) *Engine {
	reg := s.Obs()
	return &Engine{
		s:           s,
		plannedSec:  reg.Histogram("query_planned_seconds", nil),
		pageSec:     reg.Histogram("query_page_seconds", nil),
		postingsPer: reg.Histogram("query_postings_read", obs.SizeBuckets),
	}
}

// Store returns the engine's underlying store.
func (e *Engine) Store() *store.Store { return e.s }

// plannerCounters aggregates execution telemetry across queries.
type plannerCounters struct {
	indexPlans        atomic.Int64
	scanPlans         atomic.Int64
	pagedQueries      atomic.Int64
	costProbes        atomic.Int64
	postingsRead      atomic.Int64
	candidatesFetched atomic.Int64
}

// Stats returns a snapshot of the engine's planner counters (see
// prep.EngineCounters for what each one counts; the cache counters stay
// zero here, since the one result cache is the shard router's).
func (e *Engine) Stats() prep.EngineCounters {
	return prep.EngineCounters{
		IndexPlans:        e.stats.indexPlans.Load(),
		ScanPlans:         e.stats.scanPlans.Load(),
		PagedQueries:      e.stats.pagedQueries.Load(),
		CostProbes:        e.stats.costProbes.Load(),
		PostingsRead:      e.stats.postingsRead.Load(),
		CandidatesFetched: e.stats.candidatesFetched.Load(),
	}
}

// dimRef is one indexed equality constraint of a predicate. Posting
// presence under its dimension is exactly the predicate clause it
// covers, so a candidate surviving the intersection needs no residual
// re-check of that clause.
type dimRef struct {
	dim  string
	term string
	// count is the posting list's measured cardinality (CountPostings).
	count int
}

// candidateDims lists the indexed equality constraints of q. The order
// is the legacy fixed-priority order — it survives only as the
// deterministic tiebreak when measured cardinalities are equal. GroupID
// and Asserter have no posting list: they are checked residually.
func candidateDims(q *prep.Query) []dimRef {
	var out []dimRef
	if q.DataID.Valid() {
		out = append(out, dimRef{dim: index.DimData, term: q.DataID.String()})
	}
	if q.SessionID.Valid() {
		out = append(out, dimRef{dim: index.DimSession, term: q.SessionID.String()})
	}
	if q.StateKind != "" {
		out = append(out, dimRef{dim: index.DimState, term: q.StateKind})
	}
	if q.Service != "" {
		out = append(out, dimRef{dim: index.DimService, term: string(q.Service)})
	}
	return out
}

// intersectCostRatio bounds which posting lists join the intersection:
// a dimension participates while its measured cardinality is within
// this factor of the driving (smallest) list's. Beyond that the list
// filters too little to repay its per-candidate seek — residually
// checking the driving list's few survivors after the fetch is cheaper.
const intersectCostRatio = 64

// planDims probes the cardinality of every candidate dimension and
// returns the cost-ordered subset worth intersecting: sorted ascending
// by measured count (ties broken by the legacy fixed priority), cut off
// at intersectCostRatio times the smallest list.
func (e *Engine) planDims(ix *index.Index, q *prep.Query) ([]dimRef, error) {
	dims := candidateDims(q)
	if len(dims) == 0 {
		return nil, nil
	}
	for i := range dims {
		n, err := ix.CountPostings(dims[i].dim, dims[i].term)
		if err != nil {
			return nil, fmt.Errorf("query: probing %s cardinality: %w", dims[i].dim, err)
		}
		dims[i].count = n
	}
	e.stats.costProbes.Add(int64(len(dims)))
	sort.SliceStable(dims, func(i, j int) bool { return dims[i].count < dims[j].count })
	cutoff := dims[0].count * intersectCostRatio
	chosen := dims[:1]
	for _, d := range dims[1:] {
		if d.count <= cutoff {
			chosen = append(chosen, d)
		}
	}
	return chosen, nil
}

// Query evaluates q, preferring secondary indexes over scans, and
// reports the plan it used. Results are identical to store.Query: same
// records, same storage-key order, same Total/Limit semantics.
func (e *Engine) Query(q *prep.Query) ([]core.Record, int, *prep.QueryPlan, error) {
	span := e.s.Obs().Tracer().StartSpan("query.planned")
	recs, total, plan, err := e.query(q)
	annotatePlan(span, plan)
	e.observePlan(plan)
	span.Observe(e.plannedSec, err)
	return recs, total, plan, err
}

// CacheKey renders the canonical form of a predicate, the identity the
// shard router's result cache keys on. Every field that can change the
// result participates. Free-form fields (asserter, service, state kind)
// are %q-quoted so embedded separators cannot make two different
// predicates collide on one key.
func CacheKey(q *prep.Query) string {
	var buf [512]byte
	b := q.InteractionID.AppendString(append(buf[:0], "i="...))
	b = q.SessionID.AppendString(append(b, "|s="...))
	b = q.GroupID.AppendString(append(b, "|g="...))
	b = q.DataID.AppendString(append(b, "|d="...))
	b = strconv.AppendQuote(append(b, "|k="...), q.Kind)
	b = strconv.AppendQuote(append(b, "|a="...), string(q.Asserter))
	b = strconv.AppendQuote(append(b, "|v="...), string(q.Service))
	b = strconv.AppendQuote(append(b, "|t="...), q.StateKind)
	b = appendUnixNano(append(b, "|since="...), q.Since)
	b = appendUnixNano(append(b, "|until="...), q.Until)
	return string(strconv.AppendInt(append(b, "|l="...), int64(q.Limit), 10))
}

// appendUnixNano appends t as CacheKey writes a bound: its Unix time in
// nanoseconds, or "-" when it is zero.
func appendUnixNano(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, '-')
	}
	return strconv.AppendInt(b, t.UnixNano(), 10)
}

func (e *Engine) query(q *prep.Query) ([]core.Record, int, *prep.QueryPlan, error) {
	if err := q.Validate(); err != nil {
		return nil, 0, nil, err
	}
	res, plan, err := e.execute(q, execOpts{max: q.Limit, countAll: true})
	if err != nil {
		return nil, 0, nil, err
	}
	if plan.Strategy == prep.PlanScan {
		// An interaction or nothing indexed is constrained: the scan path
		// is optimal (pruned to the kind's and interaction's key prefixes).
		recs, total, err := e.s.Query(q)
		if err != nil {
			return nil, 0, nil, err
		}
		e.stats.scanPlans.Add(1)
		return recs, total, plan, nil
	}
	e.noteIndexPlan(plan)
	return res.records, res.total, plan, nil
}

// QueryPage evaluates one cursor-delimited page of q: up to pageSize
// matching records with storage keys strictly greater than after, in
// storage-key order. It returns the page, the cursor for the next one,
// and done=true once the result set is provably exhausted. Unlike
// Query, execution terminates as soon as the page fills — candidates
// beyond it are never visited — so no total is reported and q.Limit is
// ignored.
func (e *Engine) QueryPage(q *prep.Query, after string, pageSize int) ([]core.Record, string, bool, *prep.QueryPlan, error) {
	span := e.s.Obs().Tracer().StartSpan("query.page")
	recs, next, done, plan, err := e.queryPage(q, after, pageSize)
	annotatePlan(span, plan)
	e.observePlan(plan)
	span.Observe(e.pageSec, err)
	return recs, next, done, plan, err
}

func (e *Engine) queryPage(q *prep.Query, after string, pageSize int) ([]core.Record, string, bool, *prep.QueryPlan, error) {
	if err := q.Validate(); err != nil {
		return nil, "", false, nil, err
	}
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if pageSize > MaxPageSize {
		pageSize = MaxPageSize
	}
	e.stats.pagedQueries.Add(1)

	res, plan, err := e.execute(q, execOpts{after: after, max: pageSize, paged: true})
	if err != nil {
		return nil, "", false, nil, err
	}
	if plan.Strategy == prep.PlanScan {
		res = execResult{exhausted: true}
		err := e.s.ScanQuery(q, after, func(key string, r *core.Record) (bool, error) {
			res.records = append(res.records, *r)
			res.lastKey = key
			if len(res.records) >= pageSize {
				res.exhausted = false
				return true, nil
			}
			return false, nil
		})
		if err != nil {
			return nil, "", false, nil, err
		}
		e.stats.scanPlans.Add(1)
	} else {
		e.noteIndexPlan(plan)
	}
	next := ""
	if !res.exhausted && len(res.records) > 0 {
		next = res.lastKey
	}
	return res.records, next, res.exhausted, plan, nil
}

func (e *Engine) noteIndexPlan(plan *prep.QueryPlan) {
	e.stats.indexPlans.Add(1)
	e.stats.postingsRead.Add(int64(plan.Postings))
	e.stats.candidatesFetched.Add(int64(plan.Candidates))
}

// annotatePlan copies the executed plan onto the query's span, so a
// span that lands in the ring carries the evidence needed to
// explain it: which strategy ran, the measured dimension
// cardinalities, and how far the cost estimate missed the actual
// candidate count.
func annotatePlan(span *obs.Span, plan *prep.QueryPlan) {
	if span == nil || plan == nil {
		return
	}
	span.SetAttr("strategy", plan.Strategy)
	if len(plan.Dims) > 0 {
		span.SetStrings("dims", plan.Dims).SetInts("dim_counts", plan.DimCounts)
	}
	span.SetInt("est_candidates", int64(plan.EstCandidates)).
		SetInt("candidates", int64(plan.Candidates)).
		SetInt("postings", int64(plan.Postings))
}

// observePlan records the per-query postings volume distribution.
func (e *Engine) observePlan(plan *prep.QueryPlan) {
	if plan == nil {
		return
	}
	e.postingsPer.Observe(float64(plan.Postings))
}

// execOpts shapes one streaming execution.
type execOpts struct {
	// after is the page cursor: only candidates with storage keys
	// strictly greater participate.
	after string
	// max caps collected records (0 = uncapped).
	max int
	// countAll keeps counting matches after max records are collected —
	// Query's Total contract. Off, the candidate stream terminates as
	// soon as the cap is reached (QueryPage's early termination).
	countAll bool
	// paged marks a QueryPage execution. Time-range-only queries then
	// prefer the scan fallback: the time index yields candidates in
	// time order, so serving one storage-key-ordered page off it means
	// materialising and sorting the whole range again per page, while
	// the scan path resumes at the cursor and stops at the page.
	paged bool
}

// execResult is what one streaming execution produced.
type execResult struct {
	records []core.Record
	total   int
	// lastKey is the storage key of the last collected record.
	lastKey string
	// exhausted reports that the candidate stream ended (rather than
	// execution stopping at the max cap).
	exhausted bool
}

// execute runs the indexed read path: plan dimensions by measured cost,
// stream the intersected candidates, fetch them in batched chunks,
// filter residually. A query naming an interaction, or with no indexed
// constraint and no time bound, comes back with a PlanScan plan and no
// result — the caller owns the scan (full and paged evaluation differ).
func (e *Engine) execute(q *prep.Query, opts execOpts) (execResult, *prep.QueryPlan, error) {
	dims := candidateDims(q)
	timed := !q.Since.IsZero() || !q.Until.IsZero()
	if q.InteractionID.Valid() || (len(dims) == 0 && (!timed || opts.paged)) {
		// An interaction is two key prefix runs the scan reads alone; a paged
		// time-only query scans too — resuming at the cursor beats re-sorting
		// the time index's candidates on every page.
		return execResult{}, &prep.QueryPlan{Strategy: prep.PlanScan}, nil
	}

	ix, err := e.s.Index()
	if err != nil {
		return execResult{}, nil, fmt.Errorf("query: opening index: %w", err)
	}
	plan := &prep.QueryPlan{Strategy: prep.PlanIndex}

	// Kind is free to check on the storage-key prefix, before any fetch.
	kindPrefix := ""
	switch q.Kind {
	case core.KindInteraction.String():
		kindPrefix = "i/"
	case core.KindActorState.String():
		kindPrefix = "s/"
	}

	var chosen []dimRef
	if len(dims) > 0 {
		if chosen, err = e.planDims(ix, q); err != nil {
			return execResult{}, nil, err
		}
	}
	var lists []postingList
	windowed := false
	if timed {
		// The window is a posting list of its own when it is no longer
		// than the driving list; it then drives, and every equality list
		// only seeks. Past that budget it stays a residual.
		budget := -1
		if len(chosen) > 0 {
			budget = chosen[0].count
		}
		w, read, err := timeWindow(ix, q, budget)
		if err != nil {
			return execResult{}, nil, err
		}
		plan.Postings += read
		if w != nil {
			windowed = true
			plan.Dims = append(plan.Dims, index.DimTime)
			plan.DimCounts = append(plan.DimCounts, len(w.keys))
			lists = append(lists, w)
		}
	}
	var iters []*index.PostingIter
	for _, d := range chosen {
		it := ix.Iter(d.dim, d.term)
		plan.Dims = append(plan.Dims, d.dim)
		plan.DimCounts = append(plan.DimCounts, d.count)
		iters = append(iters, it)
		lists = append(lists, it)
	}
	plan.EstCandidates = plan.DimCounts[0]
	// Residual-free: every constraint has a chosen list (each is exact,
	// and the window's terms carry the full timestamp), so a candidate
	// that survives the intersection and the kind prefix is a match
	// without decoding, and Total past the Limit counts by presence.
	// GroupID and Asserter have no list, so they are never covered.
	residualFree := (windowed || !timed) && !q.GroupID.Valid() && q.Asserter == "" && len(chosen) == len(dims)

	src := &leapfrogSource{lists: lists, kindPrefix: kindPrefix, after: opts.after}
	res, err := e.collect(q, src, opts, residualFree, kindPrefix, plan)
	if err != nil {
		return execResult{}, nil, err
	}
	for _, it := range iters {
		plan.Postings += it.Read()
	}
	return res, plan, nil
}

// errWideWindow abandons a time-window scan that outgrew its budget.
var errWideWindow = errors.New("query: time window wider than the driving list")

// timeWindow materialises the storage keys of q's time window, sorted
// into storage-key order, and reports how many it read. With budget >= 0
// it keeps at most budget keys and returns a nil list once the window
// holds more; a negative budget is unbounded.
func timeWindow(ix *index.Index, q *prep.Query, budget int) (*keyList, int, error) {
	var keys []string
	err := ix.ScanTimeRange(q.Since, q.Until, func(skey string) error {
		if len(keys) == budget {
			return errWideWindow
		}
		keys = append(keys, skey)
		return nil
	})
	if err == errWideWindow {
		return nil, len(keys), nil
	}
	if err != nil {
		return nil, len(keys), fmt.Errorf("query: scanning time range: %w", err)
	}
	// Time order is not storage-key order; restore scan-path order.
	sort.Strings(keys)
	return &keyList{keys: keys}, len(keys), nil
}

// fetchChunk is how many candidate records one GetBatch resolves; it
// bounds the read path's peak per-query memory while amortising the
// backend round trip.
const fetchChunk = 128

// collect drains the candidate stream through chunked GetBatch fetches.
func (e *Engine) collect(q *prep.Query, src *leapfrogSource, opts execOpts, residualFree bool, kindPrefix string, plan *prep.QueryPlan) (execResult, error) {
	res := execResult{}
	full := func() bool { return opts.max > 0 && len(res.records) >= opts.max }
	// beyondCap notes that candidates past the record cap exist but were
	// not (all) collected; the result set is then not provably
	// exhausted, whatever the stream did afterwards.
	beyondCap := false

	chunk := make([]string, 0, fetchChunk)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		values, present, err := e.s.GetBatch(chunk)
		if err != nil {
			return err
		}
		// One arena per fetch, sized to the records it can keep. Past the
		// cap, a value is counted by presence, not read at all, or (a
		// residual owing a Total) decoded into the room of one more and
		// given back, so that a kept page pins no record it does not hold.
		size, left := 0, len(chunk)
		if opts.max > 0 {
			left = opts.max - len(res.records)
			if opts.countAll && !residualFree {
				left++
			}
		}
		for i, v := range values {
			if present[i] && left > 0 {
				size, left = size+len(v), left-1
			}
		}
		arena := core.NewRecordArena(size)
		for i, skey := range chunk {
			if full() && !opts.countAll {
				// The page is complete and no Total is owed: the rest of
				// the chunk is never decoded (the next page re-seeks to
				// the cursor instead).
				beyondCap = true
				break
			}
			if !present[i] {
				// Dangling posting (its record was deleted after the
				// postings were read, or was deleted undecodable, which
				// leaves its postings): skip it.
				continue
			}
			if full() && residualFree {
				// The record cap is met and every constraint is covered
				// by the intersection itself: existence is a match, so
				// Total counting needs no decode.
				plan.Candidates++
				res.total++
				continue
			}
			var r core.Record
			if err := arena.Decode(values[i], &r); err != nil {
				return fmt.Errorf("store: corrupt record at %s: %w", skey, err)
			}
			plan.Candidates++
			if !q.Matches(&r) {
				arena.Unread()
				continue
			}
			res.total++
			if !full() {
				res.records = append(res.records, r)
				res.lastKey = skey
			} else {
				arena.Unread()
				beyondCap = true
			}
		}
		chunk = chunk[:0]
		return nil
	}

	for {
		skey, ok, err := src.next()
		if err != nil {
			return execResult{}, err
		}
		if !ok {
			if err := flush(); err != nil {
				return execResult{}, err
			}
			res.exhausted = !beyondCap
			return res, nil
		}
		if kindPrefix != "" && !strings.HasPrefix(skey, kindPrefix) {
			continue
		}
		chunk = append(chunk, skey)
		if len(chunk) >= fetchChunk {
			if err := flush(); err != nil {
				return execResult{}, err
			}
			if full() && !opts.countAll {
				return res, nil // early termination: the page is complete
			}
		}
	}
}

// postingList is a sorted, seekable list of candidate storage keys: an
// index.PostingIter over one term's postings, or a materialised time
// window. Both consume the key they return.
type postingList interface {
	Next() (skey string, ok bool, err error)
	Seek(target string) (skey string, ok bool, err error)
}

// keyList is a materialised, sorted posting list (the time window).
type keyList struct {
	keys []string
	pos  int // next unread key
}

// Next implements postingList.
func (l *keyList) Next() (string, bool, error) {
	if l.pos >= len(l.keys) {
		return "", false, nil
	}
	l.pos++
	return l.keys[l.pos-1], true, nil
}

// Seek implements postingList: the first unread key >= target.
func (l *keyList) Seek(target string) (string, bool, error) {
	l.pos += sort.SearchStrings(l.keys[l.pos:], target)
	return l.Next()
}

// leapfrogSource intersects the chosen posting lists: the driving
// (smallest) list supplies a frontier key, every other list seeks to
// it, and any overshoot becomes the new frontier. Runs of keys present
// in one list but absent from another are skipped with one seek — never
// read, never materialised. A single list is streamed as is.
//
// The underlying lists consume the key they return, so the source
// caches each list's head: an overshot frontier key must stay
// comparable until every other list has caught up to it (or pushed the
// frontier further), otherwise agreement on it would be impossible.
type leapfrogSource struct {
	lists      []postingList
	kindPrefix string
	after      string
	started    bool
	heads      []string // cached current key per list
	valid      []bool   // heads[i] holds a live key
}

// headSeek positions list i at the first key >= target, serving from
// the cached head when it already satisfies the bound.
func (s *leapfrogSource) headSeek(i int, target string) (string, bool, error) {
	if s.valid[i] && s.heads[i] >= target {
		return s.heads[i], true, nil
	}
	x, ok, err := s.lists[i].Seek(target)
	s.heads[i], s.valid[i] = x, ok
	return x, ok, err
}

// headNext advances list i past its cached head.
func (s *leapfrogSource) headNext(i int) (string, bool, error) {
	x, ok, err := s.lists[i].Next()
	s.heads[i], s.valid[i] = x, ok
	return x, ok, err
}

func (s *leapfrogSource) next() (string, bool, error) {
	var cur string
	var ok bool
	var err error
	if !s.started {
		s.started = true
		s.heads = make([]string, len(s.lists))
		s.valid = make([]bool, len(s.lists))
		lo := s.kindPrefix
		if s.after != "" && s.after >= lo {
			lo = s.after + "\x00"
		}
		if lo != "" {
			cur, ok, err = s.headSeek(0, lo)
		} else {
			cur, ok, err = s.headNext(0)
		}
	} else {
		cur, ok, err = s.headNext(0)
	}
	for {
		if err != nil {
			return "", false, err
		}
		if !ok {
			return "", false, nil
		}
		if s.kindPrefix != "" && !strings.HasPrefix(cur, s.kindPrefix) {
			// Sorted order: past the kind range means past every
			// remaining candidate of interest.
			return "", false, nil
		}
		agreed := true
		for i := 1; i < len(s.lists); i++ {
			x, xok, xerr := s.headSeek(i, cur)
			if xerr != nil {
				return "", false, xerr
			}
			if !xok {
				return "", false, nil
			}
			if x != cur {
				// Overshoot: x is the new frontier every list must meet.
				cur = x
				agreed = false
				break
			}
		}
		if agreed {
			return cur, true, nil
		}
		cur, ok, err = s.headSeek(0, cur)
	}
}

// Sessions enumerates the distinct session identifiers in the store,
// sorted, straight off the session index — no record is fetched.
func (e *Engine) Sessions() ([]ids.ID, error) {
	ix, err := e.s.Index()
	if err != nil {
		return nil, fmt.Errorf("query: opening index: %w", err)
	}
	return ix.Sessions()
}
