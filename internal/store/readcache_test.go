package store

// Tests for the store-level record block cache: entries are stamped
// with the count of attempted deletes, so records of other keys leave
// them warm, a delete kills them, and a zero budget retains nothing.
// Every read goes through Store.GetBatch, the path every query takes.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"preserv/internal/core"
)

// TestBlockCacheDeleteStampInvalidates is the block cache's staleness
// regression: a cached record value must die with a delete of its key,
// so the cache can never mask one.
func TestBlockCacheDeleteStampInvalidates(t *testing.T) {
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
	st := s.ReadCacheStats()
	if st.BlockCacheHits == 0 {
		t.Fatalf("repeat point read did not hit the block cache: %+v", st)
	}

	if n, err := s.DeleteRecords([]string{key}); err != nil || n != 1 {
		t.Fatalf("DeleteRecords = %d %v, want 1", n, err)
	}
	if present(t, s, key) {
		t.Fatal("deleted record still served (stale block cache)")
	}

	// Re-record: the key reads as present again.
	if _, _, err := s.Record("svc:enactor", []core.Record{rec}); err != nil {
		t.Fatal(err)
	}
	if !present(t, s, key) {
		t.Fatal("re-recorded record not served")
	}
}

// TestBlockCacheSurvivesOtherRecords: accepting records of other keys
// changes nothing a cached key reads as, so its entry stays a hit.
func TestBlockCacheSurvivesOtherRecords(t *testing.T) {
	s := New(NewMemoryBackend())
	sid := seq.NewID()
	rec := mkInteraction(sid, "svc:bc", "run")
	if _, _, err := s.Record("svc:enactor", []core.Record{rec}); err != nil {
		t.Fatal(err)
	}
	key := rec.StorageKey()
	if !present(t, s, key) {
		t.Fatal("recorded key absent")
	}
	gen := s.Generation()
	for i := 0; i < 3; i++ {
		other := mkInteraction(sid, "svc:other", "run")
		if _, rejects, err := s.Record("svc:enactor", []core.Record{other}); err != nil || len(rejects) > 0 {
			t.Fatalf("Record: %v %v", rejects, err)
		}
	}
	if s.Generation() == gen {
		t.Fatal("records did not advance the generation; the test proves nothing")
	}
	before := s.ReadCacheStats()
	for i := 0; i < 2; i++ {
		if !present(t, s, key) {
			t.Fatalf("read #%d: recorded key absent", i)
		}
	}
	after := s.ReadCacheStats()
	if hits := after.BlockCacheHits - before.BlockCacheHits; hits != 2 {
		t.Fatalf("reads after other keys' records: %d hits, want 2 (%+v)", hits, after)
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
// name on both reads: the first may come from the backend, the second
// from the block cache it filled.
func readsAs(t *testing.T, s *Store, key, name string) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if got, err := requestName(s, key); err != nil || got != name {
			t.Fatalf("read #%d of %s = %q %v, want request %q", i, key, got, err, name)
		}
	}
}

// TestBlockCacheDeleteThenDifferentBytes: a delete frees the key, and a
// re-record under it with different bytes must be what both read paths
// return — a cache that only died on accepted records would serve the
// old bytes here, since the stamp before and after is a delete's.
func TestBlockCacheDeleteThenDifferentBytes(t *testing.T) {
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
			readsAs(t, s, key, "v1") // warms the cache

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

// TestBlockCacheReaderRacesDeleteAndRerecord: readers filling the cache
// while a writer deletes and re-records the key with alternating bytes.
// Every read sees some committed version (or absence), and once the
// writer's re-record returns, its own reads see exactly that version —
// whatever the racing readers cached meanwhile. Run under -race.
func TestBlockCacheReaderRacesDeleteAndRerecord(t *testing.T) {
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

// TestBlockCacheDisabled: a zero budget retains nothing, and every
// lookup — point or batched — counts as a miss.
func TestBlockCacheDisabled(t *testing.T) {
	s := New(NewMemoryBackend())
	s.SetBlockCacheBytes(0)
	sid := seq.NewID()
	rec := mkInteraction(sid, "svc:nobc", "run")
	if _, _, err := s.Record("svc:enactor", []core.Record{rec}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !present(t, s, rec.StorageKey()) {
			t.Fatalf("read #%d: recorded key absent", i)
		}
	}
	st := s.ReadCacheStats()
	if st.BlockCacheHits != 0 || st.BlockCacheBytes != 0 || st.BlockCacheMisses != 3 {
		t.Fatalf("disabled cache after 3 point reads: %+v", st)
	}
	_, present, err := s.GetBatch([]string{rec.StorageKey(), rec.StorageKey(), "absent"})
	if err != nil || !present[0] || !present[1] || present[2] {
		t.Fatalf("GetBatch = %v, %v", present, err)
	}
	st = s.ReadCacheStats()
	if st.BlockCacheHits != 0 || st.BlockCacheBytes != 0 || st.BlockCacheEntries != 0 || st.BlockCacheMisses != 6 {
		t.Fatalf("disabled cache after a 3-key GetBatch: %+v", st)
	}
}
