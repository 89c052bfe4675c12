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
		if _, err := db.Get(fmt.Sprintf("key-%09d", i%n)); err != nil {
			b.Fatal(err)
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
		db.Scan("i/", func(string, []byte) error { count++; return nil })
		if count != 1000 {
			b.Fatalf("scanned %d", count)
		}
	}
}

func BenchmarkOpenRecovery(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		db.Put(fmt.Sprintf("key-%06d", i), []byte("some value content"))
	}
	db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if db.Len() != 5000 {
			b.Fatalf("Len = %d", db.Len())
		}
		db.Close()
	}
}

// BenchmarkCountAfterPutBatch is one read-after-write step on a large
// store: 200k keys with the sorted snapshot built, a 100-key batch of
// new keys spread across the key space, one CountPrefix. The count folds
// the batch into the snapshot in O(batch + n); sorting every key again
// would be O(n log n).
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
	if n := db.CountPrefix("k/"); n != base {
		b.Fatalf("base holds %d keys", n)
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
		if n := db.CountPrefix("k/"); n != base+(i+1)*batch {
			b.Fatalf("iteration %d counted %d keys", i, n)
		}
	}
}
