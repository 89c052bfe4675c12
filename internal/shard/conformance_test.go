package shard

// Cross-backend conformance for the sharded topology: whatever backend
// flavour the children run on, the Router's answers must be exactly a
// single store's answers over the union of the shards — planner, scan
// and paged paths alike.

import (
	"fmt"
	"testing"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/store"
)

// shardFlavour opens one child backend of the given flavour.
type shardFlavour struct {
	name string
	open func(t *testing.T) store.Backend
}

func shardFlavours() []shardFlavour {
	return []shardFlavour{
		{"memory", func(t *testing.T) store.Backend { return store.NewMemoryBackend() }},
		{"file", func(t *testing.T) store.Backend {
			b, err := store.NewFileBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"kvdb", func(t *testing.T) store.Backend {
			b, err := store.NewKVBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			return b
		}},
	}
}

// flavourRouter builds a router over n children of one backend flavour,
// returning the router and the child stores.
func flavourRouter(t *testing.T, fl shardFlavour, n int) (*Router, []*store.Store) {
	t.Helper()
	children := make([]Shard, n)
	stores := make([]*store.Store, n)
	for i := range children {
		stores[i] = store.New(fl.open(t))
		children[i] = NewLocal(stores[i])
	}
	rt, err := NewRouter(children...)
	if err != nil {
		t.Fatal(err)
	}
	return rt, stores
}

// unionReference replays every record the router holds into one fresh
// memory store — the oracle a sharded answer must match byte for byte.
func unionReference(t *testing.T, rt *Router) *store.Store {
	t.Helper()
	ref := store.New(store.NewMemoryBackend())
	for i := 0; i < rt.NumShards(); i++ {
		recs, _, err := rt.Shard(i).Query(&prep.Query{})
		if err != nil {
			t.Fatal(err)
		}
		byAsserter := make(map[core.ActorID][]core.Record)
		for _, r := range recs {
			byAsserter[r.Asserter()] = append(byAsserter[r.Asserter()], r)
		}
		for asserter, rs := range byAsserter {
			if acc, rejects, err := ref.Record(asserter, rs); err != nil || len(rejects) > 0 || acc != len(rs) {
				t.Fatalf("reference ingest: accepted %d/%d, rejects %v, err %v", acc, len(rs), rejects, err)
			}
		}
	}
	return ref
}

// conformanceQueries sweeps the predicate space: everything, sessions,
// kinds, asserter, limits.
func conformanceQueries(sessions []ids.ID) []*prep.Query {
	qs := []*prep.Query{
		{},
		{Asserter: "svc:enactor"},
		{Kind: core.KindInteraction.String()},
		{Kind: core.KindActorState.String()},
		{Limit: 3},
		{Service: "svc:stage-1"},
	}
	for _, s := range sessions {
		qs = append(qs, &prep.Query{SessionID: s}, &prep.Query{SessionID: s, Limit: 2})
	}
	return qs
}

// assertRouterEqualsUnion requires the router's planned, scanned and
// paged answers to equal the union store's scan answers.
func assertRouterEqualsUnion(t *testing.T, rt *Router, ref *store.Store, sessions []ids.ID, label string) {
	t.Helper()
	for qi, q := range conformanceQueries(sessions) {
		want, wantTotal, err := ref.Query(q)
		if err != nil {
			t.Fatalf("%s: union scan %d: %v", label, qi, err)
		}
		got, gotTotal, err := rt.Query(q)
		if err != nil {
			t.Fatalf("%s: sharded scan %d: %v", label, qi, err)
		}
		pgot, ptotal, _, err := rt.QueryPlanned(q)
		if err != nil {
			t.Fatalf("%s: sharded planner %d: %v", label, qi, err)
		}
		assertSameRecords(t, want, wantTotal, got, gotTotal, label, qi, "sharded-scan")
		assertSameRecords(t, want, wantTotal, pgot, ptotal, label, qi, "sharded-planner")

		// Paged walk (Limit-free queries only: pages ignore Limit).
		if q.Limit != 0 {
			continue
		}
		var paged []core.Record
		after := ""
		for steps := 0; ; steps++ {
			if steps > 100 {
				t.Fatalf("%s: query %d: paging did not terminate", label, qi)
			}
			recs, next, done, _, err := rt.QueryPage(q, after, 5)
			if err != nil {
				t.Fatalf("%s: sharded page %d: %v", label, qi, err)
			}
			paged = append(paged, recs...)
			if done || next == "" {
				break
			}
			after = next
		}
		assertSameRecords(t, want, len(want), paged, len(paged), label, qi, "sharded-paged")
	}
}

func assertSameRecords(t *testing.T, want []core.Record, wantTotal int, got []core.Record, gotTotal int, label string, qi int, path string) {
	t.Helper()
	if gotTotal != wantTotal || len(got) != len(want) {
		t.Fatalf("%s: query %d: %s %d/%d vs union %d/%d", label, qi, path, len(got), gotTotal, len(want), wantTotal)
	}
	for i := range want {
		wb, err := core.EncodeRecord(&want[i])
		if err != nil {
			t.Fatal(err)
		}
		gb, err := core.EncodeRecord(&got[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(wb) != string(gb) {
			t.Fatalf("%s: query %d: %s record %d (%s) differs from union (%s)",
				label, qi, path, i, got[i].StorageKey(), want[i].StorageKey())
		}
	}
}

func TestRouterConformanceAllBackends(t *testing.T) {
	for _, fl := range shardFlavours() {
		t.Run(fl.name, func(t *testing.T) {
			rt, _ := flavourRouter(t, fl, 3)
			sessions := recordSessions(t, rt, 8, 6)
			ref := unionReference(t, rt)
			assertRouterEqualsUnion(t, rt, ref, sessions, fl.name)
		})
	}
}

func TestRouterPageCursorSurvivesDeletionAllBackends(t *testing.T) {
	for _, fl := range shardFlavours() {
		t.Run(fl.name, func(t *testing.T) {
			rt, _ := flavourRouter(t, fl, 3)
			recordSessions(t, rt, 6, 6)
			want, _, err := rt.Query(&prep.Query{})
			if err != nil {
				t.Fatal(err)
			}

			// First page.
			page1, next, done, _, err := rt.QueryPage(&prep.Query{}, "", 7)
			if err != nil {
				t.Fatal(err)
			}
			if done || next == "" || len(page1) != 7 {
				t.Fatalf("first page: %d records done=%v next=%q", len(page1), done, next)
			}

			// Between pages, delete one already-delivered record and one
			// not-yet-delivered record (the very last by key order).
			delivered := page1[2].StorageKey()
			pending := want[len(want)-1].StorageKey()
			for _, k := range []string{delivered, pending} {
				if n, err := rt.DeleteRecords([]string{k}); err != nil || n != 1 {
					t.Fatalf("delete %s: deleted=%d err=%v", k, n, err)
				}
			}

			// Resume paging on the old composite cursor.
			got := append([]core.Record(nil), page1...)
			for steps := 0; ; steps++ {
				if steps > 50 {
					t.Fatal("paging did not terminate")
				}
				recs, n2, d2, _, err := rt.QueryPage(&prep.Query{}, next, 7)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, recs...)
				if d2 || n2 == "" {
					break
				}
				next = n2
			}

			// Expect: every original record except the pending deletion
			// (the delivered one was already served — deletion cannot
			// unserve it), each exactly once, in key order.
			var expect []string
			for i := range want {
				if k := want[i].StorageKey(); k != pending {
					expect = append(expect, k)
				}
			}
			if len(got) != len(expect) {
				t.Fatalf("paged %d records, want %d", len(got), len(expect))
			}
			seen := make(map[string]bool)
			for i, r := range got {
				k := r.StorageKey()
				if seen[k] {
					t.Fatalf("record %s delivered twice", k)
				}
				seen[k] = true
				if k != expect[i] {
					t.Fatalf("page walk record %d is %s, want %s", i, k, expect[i])
				}
			}
		})
	}
}

// TestRouterSingleShardDegenerate pins that a 1-shard router behaves
// exactly like the store it wraps (the migration path: front a store
// with a router first, add shards later).
func TestRouterSingleShardDegenerate(t *testing.T) {
	rt := memRouter(t, 1)
	sessions := recordSessions(t, rt, 4, 5)
	ref := unionReference(t, rt)
	assertRouterEqualsUnion(t, rt, ref, sessions, "single")
}

// TestRouterRecordConcurrent exercises concurrent affine writes.
func TestRouterRecordConcurrent(t *testing.T) {
	rt := memRouter(t, 4)
	const writers = 8
	errs := make(chan error, writers)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 10; i++ {
				sid := seq.NewID()
				recs := []core.Record{mkRec(sid, "svc:gzip", 0), mkRec(sid, "svc:ppmz", 1)}
				if acc, rejects, err := rt.Record("svc:enactor", recs); err != nil || acc != 2 || len(rejects) != 0 {
					errs <- fmt.Errorf("writer %d: acc=%d rejects=%v err=%v", w, acc, rejects, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cnt, err := rt.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Records != writers*10*2 {
		t.Fatalf("count %d, want %d", cnt.Records, writers*10*2)
	}
}
