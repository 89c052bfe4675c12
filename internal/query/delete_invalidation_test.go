package query

// Regression test: a page cursor is a storage key, and resuming after a
// deletion seeks past it — so a page can never resurrect a deleted
// record. The result cache's half of this contract is in cache_test.go.

import (
	"testing"

	"preserv/internal/prep"
	"preserv/internal/store"
)

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
