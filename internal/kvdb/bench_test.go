package kvdb

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"preserv/internal/kv"
)

func benchDB(b *testing.B) *DB {
	b.Helper()
	db, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func BenchmarkPut(b *testing.B) {
	db := benchDB(b)
	val := make([]byte, 512)
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(fmt.Sprintf("key-%09d", i), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	db := benchDB(b)
	val := make([]byte, 512)
	const n = 10000
	for i := 0; i < n; i++ {
		db.Put(fmt.Sprintf("key-%09d", i), val)
	}
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := db.Get(fmt.Sprintf("key-%09d", i%n)); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkScanPrefix(b *testing.B) {
	db := benchDB(b)
	for i := 0; i < 1000; i++ {
		db.Put(fmt.Sprintf("i/%04d/rec", i), []byte("v"))
		db.Put(fmt.Sprintf("s/%04d/rec", i), []byte("v"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		db.ScanFrom("i/", "", func(string, []byte) error { count++; return nil })
		if count != 1000 {
			b.Fatalf("scanned %d", count)
		}
	}
}

// seqID renders identifier number n the way the repository benchmark
// mints identifiers: in sequence.
func seqID(n int) string { return fmt.Sprintf("urn:pasoa:%032x", n) }

// randID renders identifier number n at random, the way ids.New mints
// identifiers in production; the same n renders the same identifier.
func randID(n int) string {
	r := rand.New(rand.NewPCG(uint64(n), 0x9e3779b97f4a7c15))
	return fmt.Sprintf("urn:pasoa:%016x%016x", r.Uint64(), r.Uint64())
}

// storeShaped fills a database in dir the way the provenance store does
// and returns how many keys it wrote: per record one 243-byte value
// under an ≈ 80-byte storage key and 8 or 9 (8.67 on average)
// empty-valued ≈ 130-byte posting keys ending in that storage key, its
// identifiers rendered by id. As Store.Record does, 100 records go in
// one PutBatch and then their postings in another.
func storeShaped(b *testing.B, dir string, records int, id func(int) string) (keys int) {
	b.Helper()
	db, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 243)
	var recs, postings []kv.Pair
	for r := 0; r < records; r++ {
		skey := fmt.Sprintf("i/%s/sender/urn:actor:collate-sample/%08d", id(r/2), r)
		recs = append(recs, kv.Pair{Key: skey, Value: val})
		for d := 0; d < 8+(r%3+1)/2; d++ {
			postings = append(postings, kv.Pair{Key: fmt.Sprintf("x/dim%d/%s/%s", d, id(r/(d+1)), skey)})
		}
		if r%100 == 99 || r == records-1 {
			for _, pairs := range [][]kv.Pair{recs, postings} {
				if err := db.PutBatch(pairs); err != nil {
					b.Fatal(err)
				}
				keys += len(pairs)
			}
			recs, postings = recs[:0], postings[:0]
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	return keys
}

// storeShapedRecords × 9.67 ≈ 200k keys, ≈ 15 MB of log with the
// postings in key batches: several replay windows, and a key directory
// that rehashes often if it grows from empty.
const storeShapedRecords = 20_700

func BenchmarkOpenRecovery(b *testing.B) {
	dir := b.TempDir()
	keys := storeShaped(b, dir, storeShapedRecords, seqID)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if db.Len() != keys {
			b.Fatalf("Len = %d, want %d", db.Len(), keys)
		}
		db.Close()
	}
	b.ReportMetric(float64(keys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// restartRecords × 9.67 ≈ 1.06 M keys, as many as the repository
// benchmark's sync-small store holds when it reopens: enough that the
// keys' bytes are far from fitting in cache, which is what the order a
// sort reaches them in decides.
const restartRecords = 110_000

// BenchmarkOpenFirstCount is a restart as a reader meets it: Open plus
// the first Count over a storeShaped log, with identifiers minted in
// sequence and at random. Open builds the sorted key view before it
// returns, from the keys in the order replay met them, so the Count
// itself is two binary searches.
func BenchmarkOpenFirstCount(b *testing.B) {
	for _, ids := range []struct {
		name string
		id   func(int) string
	}{{"sequential", seqID}, {"random", randID}} {
		b.Run(ids.name, func(b *testing.B) {
			dir := b.TempDir()
			keys := storeShaped(b, dir, restartRecords, ids.id)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				if n, err := db.Count(""); err != nil || n != keys {
					b.Fatalf("first Count = %d, %v; want %d", n, err, keys)
				}
				db.Close()
			}
			b.ReportMetric(float64(keys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
		})
	}
}

// BenchmarkCompact rewrites the same store: every key is live, so the
// whole log goes through the rewrite loop (one read per key, one write
// per MiB of output).
func BenchmarkCompact(b *testing.B) {
	dir := b.TempDir()
	keys := storeShaped(b, dir, storeShapedRecords, seqID)
	db, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(keys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkPutBatchPostings is the posting half of one 100-record Record
// call: ≈ 867 empty-valued, index-shaped keys (8 or 9 postings for each
// of 100 new storage keys, in the order the index emits them) in one
// PutBatch, which sorts and front-codes them into one key-batch entry
// before it takes the lock. ns/op and B/op are that cost per batch.
func BenchmarkPutBatchPostings(b *testing.B) {
	db := benchDB(b)
	dims := []string{"interaction", "actor", "service", "session", "data", "data", "time", "operation", "kind"}
	var pairs []kv.Pair
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		b.StopTimer()
		pairs = pairs[:0]
		for r := 0; r < 100; r++ {
			skey := fmt.Sprintf("i/urn:pasoa:%032x/sender/urn:actor:collate-sample/%08d", i, r)
			for d, dim := range dims[:8+(r%3+1)/2] {
				pairs = append(pairs, kv.Pair{Key: fmt.Sprintf("x/%s/urn:pasoa:%032x/%s", dim, (i*100+r)/(d+1), skey)})
			}
		}
		b.StartTimer()
		if err := db.PutBatch(pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountAfterPutBatch is one read-after-write step on a large
// store: 200k keys with the sorted snapshot built, a 100-key batch of
// new keys spread across the key space, one Count. The count folds
// the batch into the snapshot by rebuilding the chunks it lands in and
// re-listing the rest: O(batch log batch + touched chunks × chunkMax +
// n/chunkMax). Sorting every key again would be O(n log n), and merging
// into a fresh copy of the whole snapshot O(n).
func BenchmarkCountAfterPutBatch(b *testing.B) {
	db := benchDB(b)
	const base, batch = 200_000, 100
	pairs := make([]kv.Pair, 0, 1000)
	for i := 0; i < base; i++ {
		pairs = append(pairs, kv.Pair{Key: fmt.Sprintf("k/%06d", i)})
		if len(pairs) == cap(pairs) {
			if err := db.PutBatch(pairs); err != nil {
				b.Fatal(err)
			}
			pairs = pairs[:0]
		}
	}
	if n, err := db.Count("k/"); err != nil || n != base {
		b.Fatalf("base holds %d keys (%v)", n, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs = pairs[:0]
		for j := 0; j < batch; j++ {
			pairs = append(pairs, kv.Pair{Key: fmt.Sprintf("k/%06d/%d", j*(base/batch), i)})
		}
		if err := db.PutBatch(pairs); err != nil {
			b.Fatal(err)
		}
		if n, err := db.Count("k/"); err != nil || n != base+(i+1)*batch {
			b.Fatalf("iteration %d counted %d keys (%v)", i, n, err)
		}
	}
}

// BenchmarkGetBatch reads 100 record-sized values in one GetBatch from
// a log of 100 batches, each 100 values of 243 bytes followed by their
// postings' key-batch entry, the shape Store.Record writes. "batch"
// asks for one batch's values, which lie side by side and coalesce into
// one read; "scattered" asks for one value from each batch, each a read
// of its own.
func BenchmarkGetBatch(b *testing.B) {
	db := benchDB(b)
	const batches, per = 100, 100
	val := make([]byte, 243)
	pairs := make([]kv.Pair, 0, per*9)
	for i := 0; i < batches; i++ {
		pairs = pairs[:0]
		for r := 0; r < per; r++ {
			pairs = append(pairs, kv.Pair{Key: fmt.Sprintf("r/%03d/%03d", i, r), Value: val})
		}
		for r := 0; r < per*8; r++ {
			pairs = append(pairs, kv.Pair{Key: fmt.Sprintf("x/%d/r/%03d/%03d", r%8, i, r/8)})
		}
		if err := db.PutBatch(pairs); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		key  func(j int) string
	}{
		{"batch", func(j int) string { return fmt.Sprintf("r/%03d/%03d", batches/2, j) }},
		{"scattered", func(j int) string { return fmt.Sprintf("r/%03d/%03d", j, j) }},
	} {
		keys := make([]string, per)
		for j := range keys {
			keys[j] = bc.key(j)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				_, present, err := db.GetBatch(keys)
				if err != nil || !present[0] || !present[per-1] {
					b.Fatal(present[0], present[per-1], err)
				}
			}
		})
	}
}
