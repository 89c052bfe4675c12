package kvdb

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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

// A scan yields postings off its snapshot, yet what fn changes while it
// runs must show: a posting deleted mid-scan is not yielded, and one put
// again with a value is yielded with that value.
func TestScanSeesWritesMadeMidScan(t *testing.T) {
	db := openTemp(t)
	var pairs []kv.Pair
	for i := 0; i < 6; i++ {
		pairs = append(pairs, kv.Pair{Key: fmt.Sprintf("x/%d", i)})
	}
	if err := db.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	var seen []string
	err := db.ScanFrom("x/", "", func(k string, v []byte) error {
		seen = append(seen, k+"="+string(v))
		if k == "x/1" {
			if err := db.Delete("x/3"); err != nil {
				return err
			}
			return db.Put("x/4", []byte("valued"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"x/0=", "x/1=", "x/2=", "x/4=valued", "x/5="}; !slices.Equal(seen, want) {
		t.Fatalf("scanned %q, want %q", seen, want)
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
	// More than redoFoldMax written with no read since: Compact folds it
	// into the view before it walks, rather than replay it as redo.
	big := func(i int) int { return redoFoldMax/4 + i }
	for i := 0; i < 5; i++ {
		db.Put(fmt.Sprintf("big%d", i), []byte(strings.Repeat("b", big(i))))
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
	if db2.Len() != 30 {
		t.Fatalf("Len = %d, want 30", db2.Len())
	}
	for i := 25; i < 50; i++ {
		v, ok, err := db2.Get(fmt.Sprintf("k%d", i))
		if err != nil || !ok || len(v) != i {
			t.Fatalf("k%d: %v %v len=%d", i, ok, err, len(v))
		}
	}
	for i := 0; i < 5; i++ {
		v, ok, err := db2.Get(fmt.Sprintf("big%d", i))
		if err != nil || !ok || len(v) != big(i) {
			t.Fatalf("big%d: %v %v len=%d", i, ok, err, len(v))
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

// Writers put records and postings, read them back and delete half the
// postings, while a reader scans the postings and compacts: every read
// sees its own writes, scans come out sorted, and the end state holds
// exactly what survived.
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
				posting := fmt.Sprintf("x/g%d/%03d", g, i)
				if err := db.PutBatch([]kv.Pair{{Key: posting}}); err != nil {
					t.Errorf("PutBatch: %v", err)
					return
				}
				if _, ok, err := db.Get(posting); err != nil || !ok {
					t.Errorf("Get(%s) = %v, %v", posting, ok, err)
					return
				}
				if i%2 == 1 {
					if err := db.Delete(posting); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
		}(g)
	}
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var keys []string
			if err := db.ScanFrom("x/", "", func(k string, _ []byte) error {
				keys = append(keys, k)
				return nil
			}); err != nil {
				t.Errorf("ScanFrom: %v", err)
				return
			}
			if !slices.IsSorted(keys) {
				t.Error("a scan came out unsorted")
				return
			}
			if err := db.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	reader.Wait()
	if db.Len() != 1200 {
		t.Fatalf("Len = %d, want 800 records and 400 postings", db.Len())
	}
	if n, err := db.Count("x/"); err != nil || n != 400 {
		t.Fatalf("Count(x/) = %d, %v; want 400", n, err)
	}
}

// Property: a random sequence of puts and deletes leaves the DB with
// exactly the contents of a reference map, both live and after reopen.
// TestQuickMatchesReferenceMap drives a DB and a map through the same
// random puts and deletes and holds every read to the map, before and
// after a reopen, a Compact, and a reopen of the compacted log. Each mix
// is a further set of inputs: with emptyValues, some puts write an empty
// value, which kvdb logs in key-batch entries and keeps in its sorted
// view only, so a key switches between that side and the directory map
// both ways; with batches, some puts and deletes go through PutBatch and
// DeleteBatch, duplicate and absent keys included.
func TestQuickMatchesReferenceMap(t *testing.T) {
	for _, mix := range []struct{ emptyValues, batches bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		f := func(seed int64, n8 uint8) bool {
			return matchesReferenceMap(t, seed, int(n8)+20, mix.emptyValues, mix.batches)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("empty values %v, batches %v: %v", mix.emptyValues, mix.batches, err)
		}
	}
}

func matchesReferenceMap(t *testing.T, seed int64, n int, emptyValues, batches bool) bool {
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
	const space = 20
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(space)) }
	val := func() string {
		if emptyValues && rng.Intn(3) == 0 {
			return ""
		}
		return fmt.Sprintf("v%d", rng.Int63())
	}
	for i := 0; i < n; i++ {
		switch {
		case batches && rng.Intn(3) == 0:
			if rng.Intn(3) == 0 {
				keys := make([]string, 1+rng.Intn(5))
				for j := range keys {
					keys[j] = key()
				}
				if db.DeleteBatch(keys) != nil {
					db.Close()
					return false
				}
				for _, k := range keys {
					delete(ref, k)
				}
				continue
			}
			pairs := make([]kv.Pair, 1+rng.Intn(6))
			for j := range pairs {
				pairs[j] = kv.Pair{Key: key(), Value: []byte(val())}
			}
			if db.PutBatch(pairs) != nil {
				db.Close()
				return false
			}
			for _, p := range pairs {
				ref[p.Key] = string(p.Value)
			}
		case rng.Intn(4) == 0:
			key := key()
			if db.Delete(key) != nil {
				db.Close()
				return false
			}
			delete(ref, key)
		default:
			key, val := key(), val()
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
		for i := 0; i < space; i++ {
			k := fmt.Sprintf("k%d", i)
			if _, in := ref[k]; !in && has(t, d, k) {
				return false
			}
		}
		for _, prefix := range []string{"", "k", "k1", "k2", "k9", "x"} {
			want := 0
			for k := range ref {
				if strings.HasPrefix(k, prefix) {
					want++
				}
			}
			if n, err := d.Count(prefix); err != nil || n != want {
				return false
			}
		}
		for _, from := range []string{"", "k1", "k15", "k3"} {
			var want []string
			for _, k := range slices.Sorted(maps.Keys(ref)) {
				if k >= from {
					want = append(want, k+"="+ref[k])
				}
			}
			var got []string
			if err := d.ScanFrom("k", from, func(k string, v []byte) error {
				got = append(got, k+"="+string(v))
				return nil
			}); err != nil || !slices.Equal(got, want) {
				return false
			}
		}
		return true
	}
	reopen := func() bool {
		if db.Close() != nil {
			return false
		}
		db, err = Open(dir)
		return err == nil
	}
	defer func() { db.Close() }()
	return check(db) && reopen() && check(db) &&
		db.Compact() == nil && check(db) && reopen() && check(db)
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

// A batch is one commit. Cut at any byte of its tail, or with any byte of
// it damaged, the log reopens to the base before it and is truncated at
// the batch's first byte; whole, it reopens to all of it. The cases cover
// records around a run of postings, that run split past kv.KeyBatchMax,
// and a replay window smaller than the batch.
func TestPutBatchTornTailKeepsAllOrNone(t *testing.T) {
	base := []kv.Pair{{Key: "i/base", Value: []byte("b")}}
	small := []kv.Pair{{Key: "i/k1", Value: []byte("v1")}, {Key: "x/p/2"}, {Key: "x/p/1"}, {Key: "s/k2", Value: []byte("v2")}}
	split := []kv.Pair{{Key: "i/r1", Value: []byte("r1")}, {Key: "s/r2", Value: []byte("r2")}}
	for i := 0; i < 20; i++ {
		split = append(split, kv.Pair{Key: fmt.Sprintf("x/%02d/%s", 19-i, strings.Repeat("k", 60<<10))})
	}
	for _, c := range []struct {
		name    string
		batch   []kv.Pair
		entries int
		window  int
	}{
		{"records around postings", small, 3, replayWindow},
		{"window smaller than the batch", small, 3, tinyWindow},
		{"postings split past KeyBatchMax", split, 4, replayWindow},
		{"split postings, window smaller than the batch", split, 4, tinyWindow},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := openTemp(t)
			if err := db.PutBatch(base); err != nil {
				t.Fatal(err)
			}
			baseSize := db.LogBytes()
			before := viewOf(t, db)
			if err := db.PutBatch(c.batch); err != nil {
				t.Fatal(err)
			}
			after := viewOf(t, db)
			log, err := os.ReadFile(filepath.Join(db.dir, dataFileName))
			if err != nil {
				t.Fatal(err)
			}
			// One entry is a batch with no flagMore; in a longer one every
			// entry but the last carries it.
			if e := walkLog(t, log[:baseSize]); len(e) != 1 || e[0].flags&flagMore != 0 {
				t.Fatalf("a one-entry batch logs as %+v", e)
			}
			entries := walkLog(t, log[baseSize:])
			if len(entries) != c.entries {
				t.Fatalf("the batch logs %d entries, want %d", len(entries), c.entries)
			}
			cuts := []int64{int64(len(log))}
			for i, e := range entries {
				if (e.flags&flagMore != 0) != (i < len(entries)-1) {
					t.Fatalf("entry %d of %d has flags %#x", i, len(entries), e.flags)
				}
			}
			step := max(1, (int64(len(log))-baseSize)/200)
			for cut := baseSize; cut < int64(len(log)); cut += step {
				cuts = append(cuts, cut)
			}
			for off, i := baseSize, 0; i < len(entries)-1; i++ {
				off += int64(headerSize + entries[i].keyLen + entries[i].valLen)
				cuts = append(cuts, off-1, off, off+1)
			}
			setWindow(t, c.window)
			for _, cut := range cuts {
				want := before
				if cut == int64(len(log)) {
					want = after
				}
				if got, size := openView(t, log[:cut]); !reflect.DeepEqual(got, want) || size != want.LogBytes {
					t.Fatalf("cut at %d of %d: reopened to %d keys, file %d bytes; want %d keys, %d bytes", cut, len(log), got.Len, size, want.Len, want.LogBytes)
				}
			}
			if len(c.batch) > 4 {
				return // the small batch stands for the damage sweep
			}
			for off := baseSize; off < int64(len(log)); off++ {
				damaged := slices.Clone(log)
				damaged[off] ^= 0xFF
				if got, size := openView(t, damaged); !reflect.DeepEqual(got, before) || size != baseSize {
					t.Fatalf("byte %d damaged: reopened to %d keys, file %d bytes; want the base's %d keys, %d bytes", off, got.Len, size, before.Len, baseSize)
				}
			}
		})
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

// A key-batch key's share of its entry is garbage once a later write
// takes the key: put again in a key batch, put with a value, or
// deleted. The bytes are worked out from the log's growth alone.
func TestKeyBatchKeysAccountGarbage(t *testing.T) {
	db := openTemp(t)
	keys := []string{"x/a", "x/b", "x/c", "x/d", "x/e"}
	putEmpty := func(keys ...string) int64 {
		t.Helper()
		before := db.LogBytes()
		pairs := make([]kv.Pair, len(keys))
		for i, k := range keys {
			pairs[i].Key = k
		}
		if err := db.PutBatch(pairs); err != nil {
			t.Fatal(err)
		}
		return db.LogBytes() - before
	}
	garbage := func() int64 {
		t.Helper()
		if _, err := db.Count(""); err != nil { // folds pending writes in
			t.Fatal(err)
		}
		return db.garbage
	}
	first := putEmpty(keys...)
	second := putEmpty(keys...)
	if g := garbage(); g != first {
		t.Fatalf("garbage %d after every key was put again, want the first entry's %d bytes", g, first)
	}
	before := db.LogBytes()
	if err := db.Put("x/c", []byte("v")); err != nil {
		t.Fatal(err)
	}
	valued := db.LogBytes() - before
	want := first + kv.KeyShare(second, len(keys), 2)
	if g := garbage(); g != want {
		t.Fatalf("garbage %d after x/c took a value, want %d", g, want)
	}
	putEmpty("x/c")
	if g := garbage(); g != want+valued {
		t.Fatalf("garbage %d after x/c went back to a key batch, want %d", g, want+valued)
	}
	if err := db.DeleteBatch(keys); err != nil {
		t.Fatal(err)
	}
	if g := db.GarbageRatio(); g != 1 {
		t.Fatalf("GarbageRatio = %v with every key deleted, want 1", g)
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
