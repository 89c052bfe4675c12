package kvdb

import (
	"fmt"
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

// storeShaped fills a database in dir the way the provenance store does
// and returns how many keys it wrote: per record one 243-byte value
// under an ≈ 80-byte storage key and 8 or 9 (8.67 on average)
// empty-valued ≈ 130-byte posting keys ending in that storage key. As
// Store.Record does, 100 records go in one PutBatch and then their
// postings in another.
func storeShaped(b *testing.B, dir string, records int) (keys int) {
	b.Helper()
	db, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 243)
	var recs, postings []kv.Pair
	for r := 0; r < records; r++ {
		skey := fmt.Sprintf("i/urn:pasoa:%032x/sender/urn:actor:collate-sample/%08d", r/2, r)
		recs = append(recs, kv.Pair{Key: skey, Value: val})
		for d := 0; d < 8+(r%3+1)/2; d++ {
			postings = append(postings, kv.Pair{Key: fmt.Sprintf("x/dim%d/urn:pasoa:%032x/%s", d, r/(d+1), skey)})
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
	keys := storeShaped(b, dir, storeShapedRecords)
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

// BenchmarkCompact rewrites the same store: every key is live, so the
// whole log goes through the rewrite loop (one read per key, one write
// per MiB of output).
func BenchmarkCompact(b *testing.B) {
	dir := b.TempDir()
	keys := storeShaped(b, dir, storeShapedRecords)
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
