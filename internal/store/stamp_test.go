package store

import (
	"testing"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
)

// TestQueryGenerationPerSession pins which writes move which stamps: a
// session's stamp moves with the writes and deletes of its own records
// and of records whose sessions are unknown, and with nothing else; the
// stamp of a query not scoped to a session moves with every write; a
// reopen moves every stamp.
func TestQueryGenerationPerSession(t *testing.T) {
	b := NewMemoryBackend()
	s := New(b)
	a := seq.NewID()
	other := seq.NewID()
	for s.slot(other) == s.slot(a) {
		other = seq.NewID()
	}
	qa, qo, all := &prep.Query{SessionID: a}, &prep.Query{SessionID: other}, &prep.Query{}
	stamps := func() [3]uint64 {
		return [3]uint64{s.QueryGeneration(qa), s.QueryGeneration(qo), s.QueryGeneration(all)}
	}
	step := func(what string, moved [3]bool, write func()) {
		t.Helper()
		before := stamps()
		write()
		after := stamps()
		for i, name := range []string{"session a", "the other session", "an unscoped query"} {
			if got := after[i] != before[i]; got != moved[i] {
				t.Errorf("%s: the stamp of %s moved=%v, want %v", what, name, got, moved[i])
			}
		}
	}
	record := func(recs ...core.Record) {
		t.Helper()
		if _, rejects, err := s.Record("svc:enactor", recs); err != nil || len(rejects) > 0 {
			t.Fatalf("record: err=%v rejects=%v", err, rejects)
		}
	}

	r := mkInteraction(a, "svc:gzip", "one")
	step("a record into session a", [3]bool{true, false, true}, func() { record(r) })
	step("the same record again", [3]bool{false, false, false}, func() { record(r) })
	step("a record into a new session", [3]bool{false, false, true}, func() { record(mkInteraction(seq.NewID(), "svc:gzip", "two")) })
	both := mkInteraction(a, "svc:gzip", "three")
	both.Interaction.Groups = append(both.Interaction.Groups, core.GroupRef{Type: core.GroupSession, ID: other, Seq: 2})
	step("a record in both sessions", [3]bool{true, true, true}, func() { record(both) })
	step("deleting session a's record", [3]bool{true, false, true}, func() {
		if n, err := s.DeleteRecords([]string{r.StorageKey()}); err != nil || n != 1 {
			t.Fatalf("DeleteRecords = %d, %v", n, err)
		}
	})
	step("deleting an absent key", [3]bool{false, false, false}, func() {
		if _, err := s.DeleteRecords([]string{r.StorageKey()}); err != nil {
			t.Fatal(err)
		}
	})
	step("retracting session a", [3]bool{true, true, true}, func() {
		if n, err := s.DeleteSession(a); err != nil || n != 1 {
			t.Fatalf("DeleteSession = %d, %v", n, err)
		}
	})
	torn := "i/" + ids.New().String() + "/sender/svc:x/torn"
	if err := b.Put(torn, []byte("\x01garbage")); err != nil {
		t.Fatal(err)
	}
	step("deleting a record that does not decode", [3]bool{true, true, true}, func() {
		if n, err := s.DeleteRecords([]string{torn}); err != nil || n != 1 {
			t.Fatalf("DeleteRecords = %d, %v", n, err)
		}
	})

	// Two opens of the same content, their counters alike at zero, draw
	// different epochs: no stamp repeats across a reopen.
	if New(b).Generation() == New(b).Generation() {
		t.Error("two opens of one backend handed out the same stamp")
	}
}
