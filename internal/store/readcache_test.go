package store

// Tests for the memory-speed read path: bloom filter behaviour (no
// false negatives, bounded false-positive rate, sidecar durability),
// and the generation-invalidated block cache.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"preserv/internal/core"
)

// TestBloomFilterNoFalseNegativesAndLowFPR is the filter's core
// property: every inserted key answers mayContain, and absent keys
// answer true rarely (10 bits/key targets ~1%; the bound leaves slack
// for power-of-two rounding on the unlucky side).
func TestBloomFilterNoFalseNegativesAndLowFPR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	b := newBloomFilter(n)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("i/key/%d-%d", i, rng.Int63())
		b.add(keys[i])
	}
	for _, k := range keys {
		if !b.mayContain(k) {
			t.Fatalf("false negative for inserted key %q", k)
		}
	}
	const probes = 20000
	fp := 0
	for i := 0; i < probes; i++ {
		if b.mayContain(fmt.Sprintf("absent/%d-%d", i, rng.Int63())) {
			fp++
		}
	}
	if fpr := float64(fp) / probes; fpr > 0.05 {
		t.Fatalf("false-positive rate %.4f over %d probes, want <= 0.05", fpr, probes)
	}
}

// TestBloomSidecarRoundTripAndCorruption: the PBLM1 sidecar round-trips
// exactly, and any single corrupted byte is rejected (magic or CRC), so
// a torn or bit-rotted sidecar can never poison lookups — load falls
// back to rebuilding from the replayed keys.
func TestBloomSidecarRoundTripAndCorruption(t *testing.T) {
	b := newBloomFilter(600)
	for i := 0; i < 600; i++ {
		b.add(fmt.Sprintf("i/sc/%d", i))
	}
	enc := encodeBloomSidecar(b, 600)
	dec, nkeys, ok := decodeBloomSidecar(enc)
	if !ok || nkeys != 600 || dec.k != b.k || len(dec.words) != len(b.words) {
		t.Fatalf("round trip: ok=%v nkeys=%d k=%d/%d words=%d/%d", ok, nkeys, dec.k, b.k, len(dec.words), len(b.words))
	}
	for i := range b.words {
		if dec.words[i] != b.words[i] {
			t.Fatalf("word %d differs after round trip", i)
		}
	}
	step := len(enc)/64 + 1
	for pos := 0; pos < len(enc); pos += step {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 0x5a
		if _, _, ok := decodeBloomSidecar(bad); ok {
			t.Fatalf("corrupted byte %d accepted", pos)
		}
	}
	if _, _, ok := decodeBloomSidecar(enc[:len(enc)-3]); ok {
		t.Fatal("truncated sidecar accepted")
	}
}

// TestBloomSidecarCorruptionRebuildsOnLoad: a file backend whose
// persisted sidecar is corrupted reopens with full fidelity — the
// filter rebuilds from the segment's replayed keys, negative lookups
// still skip the backend, and a fresh valid sidecar is written back.
func TestBloomSidecarCorruptionRebuildsOnLoad(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	nkeys := bloomSidecarMinKeys + 10
	kvs := make([]KV, nkeys)
	for i := range kvs {
		kvs[i] = KV{Key: fmt.Sprintf("i/blm/%04d", i), Value: []byte(fmt.Sprintf("v-%d", i))}
	}
	if err := fb.PutBatch(kvs); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	sidecars, err := filepath.Glob(filepath.Join(dir, "*.seg"+bloomExt))
	if err != nil || len(sidecars) != 1 {
		t.Fatalf("want exactly one bloom sidecar, got %v (%v)", sidecars, err)
	}
	if err := os.WriteFile(sidecars[0], []byte("garbage, not PBLM1"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, kv := range kvs {
		v, ok, err := re.Get(kv.Key)
		if err != nil || !ok || string(v) != string(kv.Value) {
			t.Fatalf("Get(%s) after sidecar corruption = %q %v %v", kv.Key, v, ok, err)
		}
	}
	skips0, _, _ := re.BloomStats()
	if _, ok, _ := re.Get("i/blm/absent"); ok {
		t.Fatal("absent key reported present")
	}
	skips1, _, _ := re.BloomStats()
	if skips1 <= skips0 {
		t.Fatalf("negative lookup did not skip via bloom (skips %d -> %d)", skips0, skips1)
	}
	// The rebuilt filter was persisted back.
	data, err := os.ReadFile(sidecars[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, n, ok := decodeBloomSidecar(data); !ok || n != nkeys {
		t.Fatalf("rewritten sidecar invalid: ok=%v nkeys=%d want %d", ok, n, nkeys)
	}
}

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
