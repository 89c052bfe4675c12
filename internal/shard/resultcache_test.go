package shard

import (
	"io"
	"reflect"
	"sync"
	"testing"

	"preserv/internal/core"
	"preserv/internal/obs"
	"preserv/internal/prep"
)

// TestRouterResultCacheRepeatHit: a repeated fanned-out query answers
// from the router's result cache, and the cached answer is identical
// to the live one.
func TestRouterResultCacheRepeatHit(t *testing.T) {
	rt := memRouter(t, 3)
	recordSessions(t, rt, 4, 6)

	q := &prep.Query{Kind: core.KindInteraction.String()}
	r1, tot1, plan1, err := rt.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	hits0, _ := rt.ResultCacheStats()
	r2, tot2, plan2, err := rt.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	hits1, _ := rt.ResultCacheStats()
	if hits1 != hits0+1 {
		t.Fatalf("repeat query: hits %d -> %d, want one new hit", hits0, hits1)
	}
	if !reflect.DeepEqual(r1, r2) || tot1 != tot2 {
		t.Fatalf("cached answer differs: %d/%d records, total %d/%d", len(r1), len(r2), tot1, tot2)
	}
	if plan1.Cached || !plan2.Cached {
		t.Fatalf("plan Cached flags = %v then %v, want false then true", plan1.Cached, plan2.Cached)
	}

	// The scan path caches under its own key: its first run is a miss
	// even though the planned form of the same predicate is cached.
	s1, stot1, err := rt.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	s2, stot2, err := rt.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) || stot1 != stot2 {
		t.Fatal("scan-path cached answer differs")
	}
	if !reflect.DeepEqual(s1, r1) {
		t.Fatal("scan path and planned path disagree")
	}
}

// TestRouterResultCacheInvalidatesOnWrite: any accepted record moves
// some shard's generation, so the next lookup misses and re-fans —
// the cache can never hide a committed write.
func TestRouterResultCacheInvalidatesOnWrite(t *testing.T) {
	rt := memRouter(t, 2)
	sessions := recordSessions(t, rt, 2, 4)

	q := &prep.Query{Kind: core.KindInteraction.String()}
	_, tot1, _, err := rt.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache, then write one more record.
	if _, _, _, err := rt.QueryPlanned(q); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Record("svc:enactor", []core.Record{mkRec(sessions[0], "svc:late", 99)}); err != nil {
		t.Fatal(err)
	}
	_, tot2, _, err := rt.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if tot2 != tot1+1 {
		t.Fatalf("after write: total %d, want %d (stale cached answer served?)", tot2, tot1+1)
	}

	// Deletions invalidate the same way.
	if _, err := rt.DeleteSession(sessions[1]); err != nil {
		t.Fatal(err)
	}
	_, tot3, _, err := rt.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if tot3 != tot2-4 {
		t.Fatalf("after session delete: total %d, want %d", tot3, tot2-4)
	}
}

// TestRouterResultCachePagedWalk: a repeated paged walk serves every
// page from cache and yields the identical page sequence.
func TestRouterResultCachePagedWalk(t *testing.T) {
	rt := memRouter(t, 3)
	recordSessions(t, rt, 3, 5)

	q := &prep.Query{Kind: core.KindInteraction.String()}
	walk := func() []core.Record {
		var all []core.Record
		after := ""
		for {
			recs, next, done, _, err := rt.QueryPage(q, after, 4)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, recs...)
			if done || next == "" {
				return all
			}
			after = next
		}
	}
	w1 := walk()
	hits0, _ := rt.ResultCacheStats()
	w2 := walk()
	hits1, _ := rt.ResultCacheStats()
	if !reflect.DeepEqual(w1, w2) {
		t.Fatalf("cached walk differs: %d vs %d records", len(w1), len(w2))
	}
	if hits1 == hits0 {
		t.Fatal("repeat walk produced no cache hits")
	}
}

// TestRouterResultCacheDisabled: capacity 0 turns the cache off; every
// lookup is a miss and answers stay live.
func TestRouterResultCacheDisabled(t *testing.T) {
	rt := memRouter(t, 2)
	rt.SetResultCacheSize(0)
	recordSessions(t, rt, 2, 3)

	q := &prep.Query{Kind: core.KindInteraction.String()}
	for i := 0; i < 3; i++ {
		if _, _, _, err := rt.QueryPlanned(q); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _ := rt.ResultCacheStats(); hits != 0 {
		t.Fatalf("disabled cache reported %d hits", hits)
	}
}

// unprobeableShard wraps a Shard that cannot report a generation, and
// hides any QueryProber the wrapped value implements.
type unprobeableShard struct{ Shard }

func (unprobeableShard) Generation() (uint64, bool) { return 0, false }

// TestRouterResultCacheBypassWithoutProber: one shard that cannot
// report a generation disables caching (no hits, no stale risk) while
// queries keep answering.
func TestRouterResultCacheBypassWithoutProber(t *testing.T) {
	inner := memRouter(t, 1)
	rt, err := NewRouter(unprobeableShard{inner.Shard(0)})
	if err != nil {
		t.Fatal(err)
	}
	recordSessions(t, rt, 2, 3)

	q := &prep.Query{Kind: core.KindInteraction.String()}
	for i := 0; i < 2; i++ {
		if _, _, _, err := rt.QueryPlanned(q); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := rt.ResultCacheStats()
	if hits != 0 || misses != 0 {
		t.Fatalf("unprobeable topology consulted the cache: hits=%d misses=%d", hits, misses)
	}
	if _, ok := rt.Generation(); ok {
		t.Fatal("router over an unprobeable shard claimed a generation")
	}
}

// TestRouterResultCacheLiveMutationRace is the staleness property under
// concurrency (run it with -race): writers append records while readers
// query repeatedly through the cache. Record counts observed by each
// reader must never decrease — a decrease means a stale cached answer
// was served after a newer one. Deliberately not Short-gated: the CI
// race step runs -short and must include this.
func TestRouterResultCacheLiveMutationRace(t *testing.T) {
	rt := memRouter(t, 2)
	sessions := recordSessions(t, rt, 2, 2)

	const writes = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			if _, _, err := rt.Record("svc:enactor", []core.Record{mkRec(sessions[i%2], "svc:w", i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			q := &prep.Query{Kind: core.KindInteraction.String()}
			last := 0
			for i := 0; i < 60; i++ {
				_, total, _, err := rt.QueryPlanned(q)
				if err != nil {
					t.Error(err)
					return
				}
				if total < last {
					t.Errorf("reader %d: total decreased %d -> %d (stale cache hit)", r, last, total)
					return
				}
				last = total
			}
		}(r)
	}
	wg.Wait()

	_, total, _, err := rt.QueryPlanned(&prep.Query{Kind: core.KindInteraction.String()})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 + writes; total != want {
		t.Fatalf("final total %d, want %d", total, want)
	}
}

// TestRouterResultCacheSessionReaders is the per-session stamps under
// concurrency (run it with -race): one writer records new sessions and,
// every fourth call, one more record into a session the readers watch,
// while each reader queries its own session through the cache. A
// reader's count must never decrease, and once the writer is done every
// watched session must answer its exact count: a stamp advanced before
// its write applied would leave a stale answer cached under the new
// stamp. Not Short-gated, like the race above.
func TestRouterResultCacheSessionReaders(t *testing.T) {
	rt := memRouter(t, 2)
	watched := recordSessions(t, rt, 3, 2)

	const writes = 60
	var added [3]int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			sid := seq.NewID()
			if i%4 == 0 {
				sid = watched[i/4%3]
				added[i/4%3]++
			}
			if _, _, err := rt.Record("svc:enactor", []core.Record{mkRec(sid, "svc:w", i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := range watched {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := &prep.Query{SessionID: watched[r]}
			last := 0
			for i := 0; i < 2*writes; i++ {
				_, total, _, err := rt.QueryPlanned(q)
				if err != nil {
					t.Error(err)
					return
				}
				if total < last {
					t.Errorf("reader %d: total decreased %d -> %d (stale cache hit)", r, last, total)
					return
				}
				last = total
			}
		}()
	}
	wg.Wait()

	for r, sid := range watched {
		_, total, _, err := rt.QueryPlanned(&prep.Query{SessionID: sid})
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 + added[r]; total != want {
			t.Errorf("session %d: total %d once the writer was done, want %d", r, total, want)
		}
	}
}

// TestRouterResultCacheResizeVsScrape: SetResultCacheSize resets the
// cache while queries fill it and a Prometheus scrape reads its gauges
// and ResultCacheStats — all race-free (run it with -race). Deliberately
// not Short-gated, like the mutation race above.
func TestRouterResultCacheResizeVsScrape(t *testing.T) {
	rt := memRouter(t, 2)
	recordSessions(t, rt, 2, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, work := range []func() error{
		func() error {
			_, _, _, err := rt.QueryPlanned(&prep.Query{Kind: core.KindInteraction.String()})
			return err
		},
		func() error {
			rt.ResultCacheStats()
			return obs.WritePrometheus(io.Discard, obs.Export{Reg: rt.Obs()})
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := work(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		rt.SetResultCacheSize(16)
	}
	close(stop)
	wg.Wait()
	rt.SetResultCacheSize(16)
	if h, m := rt.ResultCacheStats(); h != 0 || m != 0 || rt.rc.Stats().Entries != 0 {
		t.Fatalf("a quiescent reset left hits=%d misses=%d %+v", h, m, rt.rc.Stats())
	}
}

// TestRouterGenerationAdvances: the router's own Generation (the probe
// a parent router uses) moves with any child's, and its QueryGeneration
// for a session moves with that session's writes only. Both are opaque
// hashes, compared for equality.
func TestRouterGenerationAdvances(t *testing.T) {
	rt := memRouter(t, 3)
	g0, ok := rt.Generation()
	if !ok {
		t.Fatal("all-local router must report a generation")
	}
	sessions := recordSessions(t, rt, 1, 1)
	g1, ok := rt.Generation()
	if !ok || g1 == g0 {
		t.Fatalf("generation %d -> %d (ok=%v), want a change", g0, g1, ok)
	}
	q := &prep.Query{SessionID: sessions[0]}
	s0, ok := rt.QueryGeneration(q)
	if !ok {
		t.Fatal("all-local router must report a query stamp")
	}
	// Two sessions share a stamp slot once in 4,096, and a write to one
	// then moves the other's stamp too: of three other sessions, one
	// must leave it as it was.
	moved := 0
	for i := 0; i < 3; i++ {
		if _, _, err := rt.Record("svc:enactor", []core.Record{mkRec(seq.NewID(), "svc:w", 1)}); err != nil {
			t.Fatal(err)
		}
		if s1, _ := rt.QueryGeneration(q); s1 != s0 {
			moved++
			s0 = s1
		}
	}
	if moved == 3 {
		t.Fatal("every write to another session moved the stamp")
	}
	if _, _, err := rt.Record("svc:enactor", []core.Record{mkRec(sessions[0], "svc:w", 2)}); err != nil {
		t.Fatal(err)
	}
	if s2, _ := rt.QueryGeneration(q); s2 == s0 {
		t.Fatal("a write to the queried session left its stamp as it was")
	}
}
