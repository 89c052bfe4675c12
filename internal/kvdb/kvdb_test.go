package kvdb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"preserv/internal/kv"
)

func openTemp(t *testing.T) *DB {
	t.Helper()
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// has reports whether key reads as present.
func has(t testing.TB, db *DB, key string) bool {
	t.Helper()
	_, ok, err := db.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	return ok
}

// keysOf lists the live keys with the prefix, in scan order.
func keysOf(t testing.TB, db *DB, prefix string) []string {
	t.Helper()
	var keys []string
	if err := db.ScanFrom(prefix, "", func(k string, _ []byte) error {
		keys = append(keys, k)
		return nil
	}); err != nil {
		t.Fatalf("ScanFrom(%q): %v", prefix, err)
	}
	return keys
}

func TestPutGet(t *testing.T) {
	db := openTemp(t)
	if err := db.Put("alpha", []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get("alpha")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if string(v) != "one" {
		t.Fatalf("Get = %q, want one", v)
	}
}

func TestGetMissing(t *testing.T) {
	db := openTemp(t)
	if v, ok, err := db.Get("nope"); v != nil || ok || err != nil {
		t.Fatalf("Get(absent) = %q, %v, %v; want nil, false, nil", v, ok, err)
	}
}

func TestOverwrite(t *testing.T) {
	db := openTemp(t)
	db.Put("k", []byte("v1"))
	db.Put("k", []byte("v2"))
	v, ok, err := db.Get("k")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if string(v) != "v2" {
		t.Fatalf("Get = %q, want v2", v)
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d, want 1", db.Len())
	}
	if db.garbage == 0 {
		t.Error("overwrite should create garbage")
	}
}

func TestDelete(t *testing.T) {
	db := openTemp(t)
	db.Put("k", []byte("v"))
	if err := db.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := db.Get("k"); v != nil || ok || err != nil {
		t.Fatalf("key should be gone: Get = %q, %v, %v", v, ok, err)
	}
	if err := db.Delete("absent"); err != nil {
		t.Errorf("deleting absent key should be a no-op, got %v", err)
	}
}

func TestEmptyAndHugeKeys(t *testing.T) {
	db := openTemp(t)
	if err := db.Put("", []byte("v")); err == nil {
		t.Error("empty key should be rejected")
	}
	if err := db.Put(strings.Repeat("k", MaxKeyLen+1), []byte("v")); err == nil {
		t.Error("oversized key should be rejected")
	}
}

func TestEmptyValue(t *testing.T) {
	db := openTemp(t)
	if err := db.Put("k", nil); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get("k")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if len(v) != 0 {
		t.Fatalf("empty value read back as %q", v)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		db.Put(fmt.Sprintf("key%03d", i), []byte(fmt.Sprintf("val%d", i)))
	}
	db.Delete("key050")
	db.Put("key051", []byte("updated"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 99 {
		t.Fatalf("Len after reopen = %d, want 99", db2.Len())
	}
	if has(t, db2, "key050") {
		t.Error("deleted key resurrected after reopen")
	}
	v, ok, err := db2.Get("key051")
	if err != nil || !ok {
		t.Fatalf("Get(key051) = %v, %v", ok, err)
	}
	if string(v) != "updated" {
		t.Fatalf("key051 = %q after reopen", v)
	}
}

func TestCrashRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.Put("good1", []byte("v1"))
	db.Put("good2", []byte("v2"))
	db.Close()

	// Simulate a crash mid-append: add a few garbage bytes.
	path := filepath.Join(dir, "data.log")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xDE, 0xAD, 0xBE})
	f.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer db2.Close()
	if db2.Len() != 2 {
		t.Fatalf("Len after recovery = %d, want 2", db2.Len())
	}
	// The torn tail must be gone so new writes are clean.
	db2.Put("good3", []byte("v3"))
	db2.Close()
	db3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.Len() != 3 {
		t.Fatalf("Len after write-past-recovery = %d, want 3", db3.Len())
	}
}

func TestCrashRecoveryCorruptMiddleStops(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.Put("a", []byte("1"))
	off := db.offset
	db.Put("b", []byte("2"))
	db.Close()

	// Corrupt the CRC of the second record.
	path := filepath.Join(dir, "data.log")
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, off)
	f.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !has(t, db2, "a") {
		t.Error("record before corruption must survive")
	}
	if has(t, db2, "b") {
		t.Error("record with bad CRC must be dropped")
	}
}

func TestLeftoverCompactionTempIgnored(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.Put("k", []byte("v"))
	db.Close()
	// Simulate crash mid-compaction.
	os.WriteFile(filepath.Join(dir, "compact.tmp"), []byte("partial"), 0o644)
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !has(t, db2, "k") {
		t.Error("main log must survive a leftover temp file")
	}
	if _, err := os.Stat(filepath.Join(dir, "compact.tmp")); !os.IsNotExist(err) {
		t.Error("leftover temp file should be removed")
	}
}

func TestKeysPrefixSorted(t *testing.T) {
	db := openTemp(t)
	for _, k := range []string{"b/2", "a/1", "b/1", "c", "b/10"} {
		db.Put(k, []byte("x"))
	}
	keys := keysOf(t, db, "b/")
	want := []string{"b/1", "b/10", "b/2"}
	if len(keys) != len(want) {
		t.Fatalf("Keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
	}
	if got := len(keysOf(t, db, "")); got != 5 {
		t.Fatalf("all keys = %d, want 5", got)
	}
}

// TestCountAfterPutBatchCopiesTouchedChunks holds a read after a write to
// the part of the key snapshot the write reached: with 200k keys folded
// in, a 100-key batch spread across the key space must not make the next
// Count allocate an eighth of a whole-snapshot copy (200k × 16 B).
func TestCountAfterPutBatchCopiesTouchedChunks(t *testing.T) {
	db := openTemp(t)
	const base, batch = 200_000, 100
	pairs := make([]kv.Pair, 0, 1000)
	for i := 0; i < base; i++ {
		pairs = append(pairs, kv.Pair{Key: fmt.Sprintf("k/%06d", i)})
		if len(pairs) == cap(pairs) {
			if err := db.PutBatch(pairs); err != nil {
				t.Fatal(err)
			}
			pairs = pairs[:0]
		}
	}
	if n, err := db.Count("k/"); err != nil || n != base {
		t.Fatalf("base: Count = %d, %v", n, err)
	}
	for j := 0; j < batch; j++ {
		pairs = append(pairs, kv.Pair{Key: fmt.Sprintf("k/%06d/new", j*(base/batch))})
	}
	if err := db.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := db.Count("k/")
	runtime.ReadMemStats(&after)
	if err != nil || n != base+batch {
		t.Fatalf("after the batch: Count = %d, %v", n, err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(base*16/8); got >= limit {
		t.Fatalf("the count after a %d-key batch allocated %d bytes, want under %d", batch, got, limit)
	}
}

func TestScan(t *testing.T) {
	db := openTemp(t)
	for i := 0; i < 10; i++ {
		db.Put(fmt.Sprintf("rec/%02d", i), []byte{byte(i)})
	}
	var seen []string
	err := db.ScanFrom("rec/", "", func(k string, v []byte) error {
		seen = append(seen, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 {
		t.Fatalf("scanned %d records, want 10", len(seen))
	}
	// Early stop.
	count := 0
	stop := errors.New("stop")
	err = db.ScanFrom("rec/", "", func(k string, v []byte) error {
		count++
		if count == 3 {
			return stop
		}
		return nil
	})
	if err != stop || count != 3 {
		t.Fatalf("early stop: err=%v count=%d", err, count)
	}
}

func TestCompactReclaimsSpace(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("x"), 1000)
	for i := 0; i < 100; i++ {
		db.Put("same-key", val)
	}
	db.Put("other", []byte("keep"))
	db.Delete("same-key")
	before := db.offset
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.offset >= before {
		t.Errorf("log did not shrink: %d -> %d", before, db.offset)
	}
	if db.garbage != 0 {
		t.Errorf("garbage after compaction = %d", db.garbage)
	}
	v, ok, err := db.Get("other")
	if err != nil || !ok || string(v) != "keep" {
		t.Fatalf("data lost in compaction: %q %v %v", v, ok, err)
	}
	// And the DB keeps working after compaction.
	db.Put("post", []byte("compaction"))
	v, ok, err = db.Get("post")
	if err != nil || !ok || string(v) != "compaction" {
		t.Fatalf("write after compaction: %q %v %v", v, ok, err)
	}
}

func TestCompactSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	for i := 0; i < 50; i++ {
		db.Put(fmt.Sprintf("k%d", i), []byte(strings.Repeat("v", i)))
	}
	for i := 0; i < 25; i++ {
		db.Delete(fmt.Sprintf("k%d", i))
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 25 {
		t.Fatalf("Len = %d, want 25", db2.Len())
	}
	for i := 25; i < 50; i++ {
		v, ok, err := db2.Get(fmt.Sprintf("k%d", i))
		if err != nil || !ok || len(v) != i {
			t.Fatalf("k%d: %v %v len=%d", i, ok, err, len(v))
		}
	}
}

func TestClosedOperationsFail(t *testing.T) {
	db := openTemp(t)
	db.Close()
	if err := db.Put("k", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after close: %v", err)
	}
	if _, _, err := db.Get("k"); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after close: %v", err)
	}
	if err := db.Delete("k"); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after close: %v", err)
	}
	if err := db.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after close: %v", err)
	}
	if err := db.Compact(); !errors.Is(err, ErrClosed) {
		t.Errorf("Compact after close: %v", err)
	}
	if n, err := db.Count(""); !errors.Is(err, ErrClosed) {
		t.Errorf("Count after close: %d, %v", n, err)
	}
	if err := db.ScanFrom("", "", func(string, []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("ScanFrom after close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	db := openTemp(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := db.Put(key, []byte(key)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				v, ok, err := db.Get(key)
				if err != nil || !ok || string(v) != key {
					t.Errorf("Get(%s) = %q, %v, %v", key, v, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if db.Len() != 800 {
		t.Fatalf("Len = %d, want 800", db.Len())
	}
}

// Property: a random sequence of puts and deletes leaves the DB with
// exactly the contents of a reference map, both live and after reopen.
func TestQuickMatchesReferenceMap(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		dir, err := os.MkdirTemp("", "kvdbq")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		db, err := Open(dir)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		ref := make(map[string]string)
		n := int(n8) + 20
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(20))
			if rng.Intn(4) == 0 {
				if db.Delete(key) != nil {
					db.Close()
					return false
				}
				delete(ref, key)
			} else {
				val := fmt.Sprintf("v%d", rng.Int63())
				if db.Put(key, []byte(val)) != nil {
					db.Close()
					return false
				}
				ref[key] = val
			}
		}
		check := func(d *DB) bool {
			if d.Len() != len(ref) {
				return false
			}
			for k, want := range ref {
				v, ok, err := d.Get(k)
				if err != nil || !ok || string(v) != want {
					return false
				}
			}
			return true
		}
		if !check(db) {
			db.Close()
			return false
		}
		if db.Close() != nil {
			return false
		}
		db2, err := Open(dir)
		if err != nil {
			return false
		}
		defer db2.Close()
		return check(db2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPutBatchRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []kv.Pair{
		{Key: "b", Value: []byte("beta")},
		{Key: "a", Value: []byte("alpha")},
		{Key: "c", Value: nil},
	}
	if err := db.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	check := func(d *DB) {
		t.Helper()
		for _, p := range pairs {
			v, ok, err := d.Get(p.Key)
			if err != nil || !ok || !bytes.Equal(v, p.Value) {
				t.Fatalf("Get(%s) = %q ok=%v err=%v, want %q", p.Key, v, ok, err, p.Value)
			}
		}
		if d.Len() != len(pairs) {
			t.Fatalf("Len = %d, want %d", d.Len(), len(pairs))
		}
	}
	check(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2)
}

func TestPutBatchTornTailKeepsPrefix(t *testing.T) {
	// A batch is one contiguous append of individually CRC-framed
	// records, so a torn tail must recover a strict prefix of the batch
	// — the property the index layer's commit-marker ordering needs.
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutBatch([]kv.Pair{
		{Key: "k1", Value: []byte("v1")},
		{Key: "k2", Value: []byte("v2")},
		{Key: "k3", Value: []byte("v3")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, dataFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, want := range []struct{ k, v string }{{"k1", "v1"}, {"k2", "v2"}} {
		v, ok, err := db2.Get(want.k)
		if err != nil || !ok || string(v) != want.v {
			t.Fatalf("Get(%s) after torn batch tail = %q ok=%v err=%v", want.k, v, ok, err)
		}
	}
	if _, ok, err := db2.Get("k3"); ok || err != nil {
		t.Fatalf("torn final batch record should be gone, got ok=%v err=%v", ok, err)
	}
}

func TestPutBatchOverwriteAccountsGarbage(t *testing.T) {
	db := openTemp(t)
	if err := db.Put("k", []byte("old-value")); err != nil {
		t.Fatal(err)
	}
	if err := db.PutBatch([]kv.Pair{{Key: "k", Value: []byte("new")}}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get("k")
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("Get = %q ok=%v err=%v, want new", v, ok, err)
	}
	if db.garbage == 0 {
		t.Error("superseded record not counted as garbage")
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d, want 1", db.Len())
	}
}

func TestPutBatchValidation(t *testing.T) {
	db := openTemp(t)
	if err := db.PutBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := db.PutBatch([]kv.Pair{{Key: "", Value: nil}}); err == nil {
		t.Error("empty key accepted")
	}
	if err := db.PutBatch([]kv.Pair{{Key: "ok"}, {Key: strings.Repeat("k", MaxKeyLen+1)}}); err == nil {
		t.Error("oversized key accepted")
	}
	if db.Len() != 0 {
		t.Errorf("failed batches left %d keys", db.Len())
	}
	db.Close()
	if err := db.PutBatch([]kv.Pair{{Key: "k"}}); !errors.Is(err, ErrClosed) {
		t.Errorf("PutBatch on closed db = %v, want ErrClosed", err)
	}
}
