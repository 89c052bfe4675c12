package store

// Tests for the store-level record block cache: entries die with the
// store generation, and a zero budget bypasses the cache.

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

// TestBlockCacheDisabled: a zero budget bypasses the cache entirely.
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
	if st := s.ReadCacheStats(); st.BlockCacheHits != 0 || st.BlockCacheBytes != 0 {
		t.Fatalf("disabled cache retained state: %+v", st)
	}
}
