package store

// Tests for the store-level record block cache: entries die with the
// store generation, and a zero budget retains nothing.

import (
	"testing"

	"preserv/internal/core"
)

// TestBlockCacheGenerationBumpInvalidates is the block cache's
// staleness regression: a cached record value must die with the store
// generation, so a delete (or any accepted record) can never be masked
// by the cache.
func TestBlockCacheGenerationBumpInvalidates(t *testing.T) {
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

	if ok, err := s.DeleteRecord(key); err != nil || !ok {
		t.Fatalf("DeleteRecord = %v %v", ok, err)
	}
	if _, ok, err := s.GetRecord(key); err != nil || ok {
		t.Fatalf("deleted record still served (stale block cache): ok=%v err=%v", ok, err)
	}

	// Re-record: the generation moved again, the fresh value is served.
	if _, _, err := s.Record("svc:enactor", []core.Record{rec}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetRecord(key); err != nil || !ok {
		t.Fatalf("re-recorded record not served: ok=%v err=%v", ok, err)
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
