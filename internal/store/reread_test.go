package store

// Tests that a key reads as what was last committed under it: a delete
// makes it absent, and a re-record after the delete, with the same or
// different bytes, is what every later read returns. Every read goes
// through Store.GetBatch, the path every query takes.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"preserv/internal/core"
)

// TestDeleteStampInvalidates: a deleted key reads absent, and reads
// present again once re-recorded.
func TestDeleteStampInvalidates(t *testing.T) {
	s := New(NewMemoryBackend())
	sid := seq.NewID()
	rec := mkInteraction(sid, "svc:bc", "run")
	if _, _, err := s.Record("svc:enactor", []core.Record{rec}); err != nil {
		t.Fatal(err)
	}
	key := rec.StorageKey()

	for i := 0; i < 2; i++ {
		if !present(t, s, key) {
			t.Fatalf("read #%d: recorded key absent", i)
		}
	}

	if n, err := s.DeleteRecords([]string{key}); err != nil || n != 1 {
		t.Fatalf("DeleteRecords = %d %v, want 1", n, err)
	}
	if present(t, s, key) {
		t.Fatal("deleted record still served")
	}

	// Re-record: the key reads as present again.
	if _, _, err := s.Record("svc:enactor", []core.Record{rec}); err != nil {
		t.Fatal(err)
	}
	if !present(t, s, key) {
		t.Fatal("re-recorded record not served")
	}
}

// recordVersion is rec with its request renamed: the same storage key,
// different bytes.
func recordVersion(rec core.Record, name string) core.Record {
	p := *rec.Interaction
	p.Request.Name = name
	return *core.NewInteractionRecord(&p)
}

// present reports whether key reads as a stored record.
func present(t *testing.T, s *Store, key string) bool {
	t.Helper()
	_, ok, err := s.GetBatch([]string{key})
	if err != nil {
		t.Fatalf("GetBatch(%s): %v", key, err)
	}
	return ok[0]
}

// requestName reads key and returns its record's request name, or "" if
// the key is absent.
func requestName(s *Store, key string) (string, error) {
	values, ok, err := s.GetBatch([]string{key})
	if err != nil || !ok[0] {
		return "", err
	}
	r, err := core.DecodeRecord(values[0])
	if err != nil {
		return "", fmt.Errorf("decoding %s: %w", key, err)
	}
	return r.Interaction.Request.Name, nil
}

// readsAs fails t unless the record under key has the given request
// name on two reads in a row.
func readsAs(t *testing.T, s *Store, key, name string) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if got, err := requestName(s, key); err != nil || got != name {
			t.Fatalf("read #%d of %s = %q %v, want request %q", i, key, got, err, name)
		}
	}
}

// TestDeleteThenDifferentBytes: a delete frees the key, and a re-record
// under it with different bytes must be what every later read returns.
func TestDeleteThenDifferentBytes(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := New(b)
			v1 := recordVersion(mkInteraction(seq.NewID(), "svc:bc", "run"), "v1")
			v2 := recordVersion(v1, "v2")
			key := v1.StorageKey()
			if v2.StorageKey() != key {
				t.Fatal("versions must share a storage key")
			}
			if _, rejects, err := s.Record("svc:enactor", []core.Record{v1}); err != nil || len(rejects) > 0 {
				t.Fatalf("Record v1: %v %v", rejects, err)
			}
			readsAs(t, s, key, "v1")

			// Different bytes under a live key stay refused.
			if _, rejects, err := s.Record("svc:enactor", []core.Record{v2}); err != nil || len(rejects) != 1 {
				t.Fatalf("Record v2 over live v1: %v %v, want one duplicate reject", rejects, err)
			}
			readsAs(t, s, key, "v1")

			if n, err := s.DeleteRecords([]string{key}); err != nil || n != 1 {
				t.Fatalf("DeleteRecords = %d %v, want 1", n, err)
			}
			if _, rejects, err := s.Record("svc:enactor", []core.Record{v2}); err != nil || len(rejects) > 0 {
				t.Fatalf("Record v2 after delete: %v %v", rejects, err)
			}
			readsAs(t, s, key, "v2")
		})
	}
}

// TestReaderRacesDeleteAndRerecord: readers race a writer that deletes
// and re-records the key with alternating bytes. Every read sees some
// committed version (or absence), and once the writer's re-record
// returns, its own reads see exactly that version. Run under -race.
func TestReaderRacesDeleteAndRerecord(t *testing.T) {
	s := New(NewMemoryBackend())
	base := mkInteraction(seq.NewID(), "svc:bc", "run")
	versions := []core.Record{recordVersion(base, "v0"), recordVersion(base, "v1")}
	key := base.StorageKey()
	if _, _, err := s.Record("svc:enactor", versions[:1]); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				name, err := requestName(s, key)
				if err != nil {
					errs <- err.Error()
					return
				}
				if name != "" && name != "v0" && name != "v1" {
					errs <- "GetBatch read a version never recorded"
					return
				}
			}
		}()
	}
	for i := 1; i <= 300; i++ {
		if _, err := s.DeleteRecords([]string{key}); err != nil {
			t.Fatal(err)
		}
		v := versions[i%2]
		if _, rejects, err := s.Record("svc:enactor", []core.Record{v}); err != nil || len(rejects) > 0 {
			t.Fatalf("re-record %d: %v %v", i, rejects, err)
		}
		readsAs(t, s, key, v.Interaction.Request.Name)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
