package kvdb

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"testing"
	"time"

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
// and returns how many keys it wrote: storeShapedBatches' batches of 100
// records.
func storeShaped(b *testing.B, dir string, records int, id func(int) string) (keys int) {
	b.Helper()
	db, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, pairs := range storeShapedBatches(records, 100, id) {
		if err := db.PutBatch(pairs); err != nil {
			b.Fatal(err)
		}
		keys += len(pairs)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	return keys
}

// storeShapedBatches lists the PutBatch calls that record records the
// way the provenance store does: per record one 243-byte value under an
// ≈ 80-byte storage key and 4 or 5 (4.67 on average) empty-valued ≈
// 130-byte posting keys ending in that storage key, its identifiers
// rendered by id. As Store.Record does, each batch of per records goes
// in one PutBatch and then their postings in another.
func storeShapedBatches(records, per int, id func(int) string) [][]kv.Pair {
	val := make([]byte, 243)
	var batches [][]kv.Pair
	var recs, postings []kv.Pair
	for r := 0; r < records; r++ {
		skey := fmt.Sprintf("i/%s/sender/urn:actor:collate-sample/%08d", id(r/2), r)
		recs = append(recs, kv.Pair{Key: skey, Value: val})
		for d := 0; d < 4+(r%3+1)/2; d++ {
			postings = append(postings, kv.Pair{Key: fmt.Sprintf("x/dim%d/%s/%s", d, id(r/(d+1)), skey)})
		}
		if r%per == per-1 || r == records-1 {
			batches = append(batches, recs, postings)
			recs, postings = nil, nil
		}
	}
	return batches
}

// storeShapedRecords × 5.67 ≈ 117k keys, ≈ 12 MB of log with the
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

// restartRecords × 5.67 ≈ 623k keys, as many as the repository
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
// call: ≈ 467 empty-valued, index-shaped keys (4 or 5 postings for each
// of 100 new storage keys, in the order the index emits them) in one
// PutBatch, which sorts and front-codes them into one key-batch entry
// before it takes the lock. ns/op and B/op are that cost per batch. The
// store starts afresh every postingsPerDB calls, off the clock, so each
// call meets a store of at most ≈ 47k keys and the benchmark's memory
// does not grow with -benchtime.
func BenchmarkPutBatchPostings(b *testing.B) {
	const postingsPerDB = 100
	dims := []string{"svc", "sess", "data", "data", "time"}
	var db *DB
	var dir string
	b.Cleanup(func() {
		if db != nil {
			db.Close()
			os.RemoveAll(dir)
		}
	})
	var pairs []kv.Pair
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		b.StopTimer()
		if i%postingsPerDB == 0 {
			if db != nil {
				db.Close()
				os.RemoveAll(dir)
			}
			var err error
			if dir, err = os.MkdirTemp(b.TempDir(), "db"); err != nil {
				b.Fatal(err)
			}
			if db, err = Open(dir); err != nil {
				b.Fatal(err)
			}
		}
		pairs = pairs[:0]
		for r := 0; r < 100; r++ {
			skey := fmt.Sprintf("i/urn:pasoa:%032x/sender/urn:actor:collate-sample/%08d", i, r)
			for d, dim := range dims[:4+(r%3+1)/2] {
				pairs = append(pairs, kv.Pair{Key: fmt.Sprintf("x/%s/urn:pasoa:%032x/%s", dim, (i*100+r)/(d+1), skey)})
			}
		}
		b.StartTimer()
		if err := db.PutBatch(pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkLoad is a store's set-up as the key directory meets it:
// restartRecords store-shaped records written in batches of 1,000 —
// records, then their postings, as Store.Record writes them — into an
// empty database, and then the first Count, which must bring the sorted
// view up to date with every key. ns/op covers both, so work a write
// phase leaves to the first read is counted.
func BenchmarkBulkLoad(b *testing.B) {
	batches := storeShapedBatches(restartRecords, 1000, seqID)
	keys := 0
	for _, pairs := range batches {
		keys += len(pairs)
	}
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		dir, err := os.MkdirTemp(b.TempDir(), "db")
		if err != nil {
			b.Fatal(err)
		}
		db, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, pairs := range batches {
			if err := db.PutBatch(pairs); err != nil {
				b.Fatal(err)
			}
		}
		if n, err := db.Count(""); err != nil || n != keys {
			b.Fatalf("first Count = %d, %v; want %d", n, err, keys)
		}
		b.StopTimer()
		db.Close()
		os.RemoveAll(dir)
		b.StartTimer()
	}
	b.ReportMetric(float64(keys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkOpenHeap opens the restartRecords store-shaped log and
// reports what the open DB keeps on the heap — live bytes per key and
// per record, measured after a forced collection — and how long one
// more forced collection takes with it open: the collector marks the
// key directory on every cycle. ns/op is the Open.
func BenchmarkOpenHeap(b *testing.B) {
	dir := b.TempDir()
	keys := storeShaped(b, dir, restartRecords, seqID)
	var before, after runtime.MemStats
	var heap uint64
	var gc time.Duration
	for b.Loop() {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		db, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		heap += after.HeapAlloc - before.HeapAlloc
		start := time.Now()
		runtime.GC()
		gc += time.Since(start)
		db.Close()
		b.StartTimer()
	}
	n := float64(b.N)
	b.ReportMetric(float64(heap)/n/float64(keys), "heapB/key")
	b.ReportMetric(float64(heap)/n/restartRecords, "heapB/rec")
	b.ReportMetric(float64(gc.Microseconds())/1000/n, "gc-ms")
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
