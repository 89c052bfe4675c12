package query

// Regression tests: the result cache is keyed by the store's content
// generation, and deletion advances the generation — so a cached result
// (or a page served over one) can never resurrect a deleted record.

import (
	"testing"

	"preserv/internal/prep"
	"preserv/internal/store"
)

func TestCachedResultInvalidatedByDeleteRecord(t *testing.T) {
	s := store.New(store.NewMemoryBackend())
	e := New(s)
	sessions := populateSessions(t, s, 2, 4)
	q := &prep.Query{SessionID: sessions[0].id}

	recs, total, _, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if total != 8 {
		t.Fatalf("pre-delete total = %d", total)
	}
	// Second run must come from the cache — the precondition for the
	// regression this test pins.
	_, _, plan, err := e.Query(q)
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

	recs, total, plan, err = e.Query(q)
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
	e := New(s)
	sessions := populateSessions(t, s, 2, 3)
	q := &prep.Query{Asserter: "svc:enactor"}

	_, total, _, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if total != 12 {
		t.Fatalf("pre-delete total = %d", total)
	}
	if _, _, plan, err := e.Query(q); err != nil || !plan.Cached {
		t.Fatalf("warm-up not cached: %v", err)
	}

	if n, err := s.DeleteSession(sessions[1].id); err != nil || n != 6 {
		t.Fatalf("DeleteSession = %d, %v", n, err)
	}

	recs, total, plan, err := e.Query(q)
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
		if sid, ok := r.GroupID("session"); ok && sid == sessions[1].id {
			t.Fatalf("deleted session resurrected: %s", r.StorageKey())
		}
	}
}

// TestPageNeverResurrectsDeletedRecord drives the cursor-paged path: a
// page boundary computed before a deletion must not let the following
// page (or a re-read of the first) serve the deleted record.
func TestPageNeverResurrectsDeletedRecord(t *testing.T) {
	s := store.New(store.NewMemoryBackend())
	e := New(s)
	sessions := populateSessions(t, s, 1, 6) // 12 records
	q := &prep.Query{SessionID: sessions[0].id}

	page1, next, done, _, err := e.QueryPage(q, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(page1) != 4 || done || next == "" {
		t.Fatalf("page1: %d records, done=%v next=%q", len(page1), done, next)
	}

	// Delete a record that would land on the SECOND page.
	all, _, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	victim := all[5].StorageKey()
	if n, err := s.DeleteRecords([]string{victim}); err != nil || n != 1 {
		t.Fatalf("DeleteRecords = %d, %v, want 1", n, err)
	}

	var rest []string
	for cursor := next; ; {
		page, n, d, _, err := e.QueryPage(q, cursor, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range page {
			rest = append(rest, page[i].StorageKey())
		}
		if d || n == "" {
			break
		}
		cursor = n
	}
	for _, k := range rest {
		if k == victim {
			t.Fatalf("page resumed after deletion served deleted record %s", k)
		}
	}
	if got := len(page1) + len(rest); got != 11 {
		t.Fatalf("paged total after deletion = %d, want 11", got)
	}
}
