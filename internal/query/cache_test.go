package query_test

// The engine plans and executes; the one result cache in front of it is
// the shard router's, and a single-store service is a router over one
// shard. These tests pin that cache's contract as a single store serves
// it: a repeat is a hit, and any write or delete that can change the
// answer orphans the entry, so a cached answer is always the one a
// fresh read would give.

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/preserv"
	"preserv/internal/query"
	"preserv/internal/store"
)

func TestResultCacheHitsAndInvalidation(t *testing.T) {
	b, err := store.NewKVBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := store.New(b)
	defer s.Close()
	sessions := query.PopulateSessions(t, s, 3, 4)
	p := preserv.NewService(s).Provenance()

	q := &prep.Query{SessionID: sessions[0]}
	first, total1, plan1, err := p.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan1.Cached {
		t.Error("first query reported a cache hit")
	}
	second, total2, plan2, err := p.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if !plan2.Cached {
		t.Error("repeat query missed the cache")
	}
	if total1 != total2 || !reflect.DeepEqual(first, second) {
		t.Error("cached result differs from computed result")
	}

	// Appending to a returned slice must not corrupt the cache.
	_ = append(second, second[0])
	third, _, _, err := p.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, third) {
		t.Error("caller mutation leaked into the cache")
	}

	// Recording a new session leaves the answer about this one as it
	// was, and the entry stays served. Two sessions share a stamp slot
	// (and the write then over-invalidates) once in 4,096: a new session
	// that moved the queried one's stamp is followed by another.
	for try := 0; try < 3; try++ {
		before := s.QueryGeneration(q)
		query.PopulateSessions(t, s, 1, 1)
		if s.QueryGeneration(q) == before {
			break
		}
	}
	other, _, plan3, err := p.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if !plan3.Cached || !reflect.DeepEqual(first, other) {
		t.Errorf("after a record into another session: cached=%v, same answer=%v; want a hit", plan3.Cached, reflect.DeepEqual(first, other))
	}

	// Recording into the queried session invalidates the entry.
	added := core.NewInteractionRecord(&core.InteractionPAssertion{
		LocalID:     "late",
		Asserter:    "svc:enactor",
		Interaction: core.Interaction{ID: ids.New(), Sender: "svc:enactor", Receiver: "svc:late", Operation: "run"},
		View:        core.SenderView,
		Groups:      []core.GroupRef{{Type: core.GroupSession, ID: sessions[0], Seq: 99}},
		Timestamp:   time.Now().UTC(),
	})
	if _, rejects, err := s.Record("svc:enactor", []core.Record{*added}); err != nil || len(rejects) > 0 {
		t.Fatalf("record into the queried session: err=%v rejects=%v", err, rejects)
	}
	grown, total3, plan3, err := p.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan3.Cached || total3 != total1+1 || len(grown) != len(first)+1 {
		t.Errorf("after a record into the queried session: cached=%v total=%d (was %d); want a miss that counts it", plan3.Cached, total3, total1)
	}

	// An idempotent re-record (an AsyncRecorder retry of a batch already
	// stored) writes nothing: the generation and the log stay as they
	// were, and the cached result stays served.
	gen, logBytes := s.Generation(), b.LogBytes()
	recs, _, err := s.Query(&prep.Query{SessionID: sessions[0]})
	if err != nil {
		t.Fatal(err)
	}
	if acc, rejects, err := s.Record("svc:enactor", recs); err != nil || len(rejects) > 0 || acc != len(recs) {
		t.Fatalf("re-record: accepted %d of %d, err=%v rejects=%v", acc, len(recs), err, rejects)
	}
	if s.Generation() != gen {
		t.Error("an idempotent re-record advanced the generation")
	}
	if n := b.LogBytes(); n != logBytes {
		t.Errorf("an idempotent re-record grew the log from %d to %d bytes", logBytes, n)
	}
	if _, _, plan4, err := p.QueryPlanned(q); err != nil || !plan4.Cached {
		t.Errorf("the query after an idempotent re-record: cached=%v err=%v, want a hit", plan4.Cached, err)
	}
}

func TestResultCacheEvicts(t *testing.T) {
	s := store.New(store.NewMemoryBackend())
	sessions := query.PopulateSessions(t, s, 5, 2)
	svc := preserv.NewService(s)
	svc.Provenance().(interface{ SetResultCacheSize(int) }).SetResultCacheSize(2)
	for _, id := range sessions {
		if _, _, _, err := svc.Provenance().QueryPlanned(&prep.Query{SessionID: id}); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	svc.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "\nrouter_resultcache_entries 2\n") {
		t.Errorf("cache does not hold its capacity of 2 entries:\n%s", rec.Body.String())
	}
}

func TestCachedResultInvalidatedByDeleteRecord(t *testing.T) {
	s := store.New(store.NewMemoryBackend())
	p := preserv.NewService(s).Provenance()
	sessions := query.PopulateSessions(t, s, 2, 4)
	q := &prep.Query{SessionID: sessions[0]}

	recs, total, _, err := p.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if total != 8 {
		t.Fatalf("pre-delete total = %d", total)
	}
	// Second run must come from the cache — the precondition for the
	// regression this test pins.
	_, _, plan, err := p.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Cached {
		t.Fatal("second query not served from cache; test precondition broken")
	}

	victim := recs[0].StorageKey()
	if n, err := s.DeleteRecords([]string{victim}); err != nil || n != 1 {
		t.Fatalf("DeleteRecords = %d, %v, want 1", n, err)
	}

	recs, total, plan, err = p.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cached {
		t.Fatal("post-delete query served from the stale cache")
	}
	if total != 7 {
		t.Fatalf("post-delete total = %d", total)
	}
	for _, r := range recs {
		if r.StorageKey() == victim {
			t.Fatalf("cached result resurrected deleted record %s", victim)
		}
	}
}

func TestCachedResultInvalidatedByDeleteSession(t *testing.T) {
	s := store.New(store.NewMemoryBackend())
	p := preserv.NewService(s).Provenance()
	sessions := query.PopulateSessions(t, s, 2, 3)
	q := &prep.Query{Asserter: "svc:enactor"}

	_, total, _, err := p.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if total != 12 {
		t.Fatalf("pre-delete total = %d", total)
	}
	if _, _, plan, err := p.QueryPlanned(q); err != nil || !plan.Cached {
		t.Fatalf("warm-up not cached: %v", err)
	}

	if n, err := s.DeleteSession(sessions[1]); err != nil || n != 6 {
		t.Fatalf("DeleteSession = %d, %v", n, err)
	}

	recs, total, plan, err := p.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cached {
		t.Fatal("post-delete query served from the stale cache")
	}
	if total != 6 || len(recs) != 6 {
		t.Fatalf("post-delete results = %d (total %d)", len(recs), total)
	}
	for _, r := range recs {
		if sid, ok := r.GroupID(core.GroupSession); ok && sid == sessions[1] {
			t.Fatalf("deleted session resurrected: %s", r.StorageKey())
		}
	}
}
