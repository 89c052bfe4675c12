package store

// Tests for the store-level record block cache: entries are stamped
// with the count of attempted deletes, so records of other keys leave
// them warm, a delete kills them, and a zero budget retains nothing.

import (
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
		if _, ok, err := s.GetRecord(key); err != nil || !ok {
			t.Fatalf("GetRecord #%d = %v %v", i, ok, err)
		}
	}
	st := s.ReadCacheStats()
	if st.BlockCacheHits == 0 {
		t.Fatalf("repeat point read did not hit the block cache: %+v", st)
	}

	if n, err := s.DeleteRecords([]string{key}); err != nil || n != 1 {
		t.Fatalf("DeleteRecords = %d %v, want 1", n, err)
	}
	if _, ok, err := s.GetRecord(key); err != nil || ok {
		t.Fatalf("deleted record still served (stale block cache): ok=%v err=%v", ok, err)
	}

	// Re-record: the key reads as present again.
	if _, _, err := s.Record("svc:enactor", []core.Record{rec}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetRecord(key); err != nil || !ok {
		t.Fatalf("re-recorded record not served: ok=%v err=%v", ok, err)
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
	if _, ok, err := s.GetRecord(key); err != nil || !ok {
		t.Fatalf("GetRecord = %v %v", ok, err)
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
	if _, ok, err := s.GetRecord(key); err != nil || !ok {
		t.Fatalf("GetRecord = %v %v", ok, err)
	}
	if _, present, err := s.GetBatch([]string{key}); err != nil || !present[0] {
		t.Fatalf("GetBatch = %v %v", present, err)
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

// readsAs fails t unless both read paths return the record under key
// with the given request name.
func readsAs(t *testing.T, s *Store, key, name string) {
	t.Helper()
	r, ok, err := s.GetRecord(key)
	if err != nil || !ok || r.Interaction.Request.Name != name {
		t.Fatalf("GetRecord(%s) = %v %v %v, want request %q", key, r, ok, err, name)
	}
	values, present, err := s.GetBatch([]string{key})
	if err != nil || !present[0] {
		t.Fatalf("GetBatch(%s) = %v %v", key, present, err)
	}
	r, err = core.DecodeRecord(values[0])
	if err != nil || r.Interaction.Request.Name != name {
		t.Fatalf("GetBatch(%s) decoded %v %v, want request %q", key, r, err, name)
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
				r, ok, err := s.GetRecord(key)
				if err != nil || (ok && r.Interaction.Request.Name != "v0" && r.Interaction.Request.Name != "v1") {
					errs <- "GetRecord read a version never recorded"
					return
				}
				if _, _, err := s.GetBatch([]string{key}); err != nil {
					errs <- err.Error()
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
		if _, ok, err := s.GetRecord(rec.StorageKey()); err != nil || !ok {
			t.Fatal(ok, err)
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
