package store

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"preserv/internal/kvdb"
)

// contentsOf renders b's contents, one strconv-quoted key and value a
// line.
func contentsOf(t testing.TB, b Backend) string {
	t.Helper()
	var out strings.Builder
	if err := b.ScanFrom("", "", func(k string, v []byte) error {
		fmt.Fprintf(&out, "%s %s\n", strconv.Quote(k), strconv.Quote(string(v)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// openFile opens dir through NewFileBackend and checks that its sorted
// key view counts exactly the keys a scan visits and the log holds.
func openFile(t testing.TB, dir string) *kvdb.DB {
	t.Helper()
	db, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	scanned := 0
	if err := db.ScanFrom("", "", func(string, []byte) error { scanned++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n, err := db.Count(""); err != nil || n != scanned || n != db.Len() {
		t.Fatalf("Count(\"\") = %d, %v; a scan visits %d, Len %d", n, err, scanned, db.Len())
	}
	return db
}

// Deleting every key of a store written in key batches makes all of its
// bytes garbage, live and after a reopen: the shares of a batch's keys
// add up to the whole entry.
func TestDeletingEveryKeyLeavesOnlyGarbage(t *testing.T) {
	for _, pb := range persistentBackends() {
		t.Run(pb.name, func(t *testing.T) {
			dir := t.TempDir()
			b := pb.open(t, dir)
			var records, postings []string
			for call := 0; call < 3; call++ {
				var batch, index []KV
				for r := 0; r < 10; r++ {
					skey := fmt.Sprintf("i/urn:pasoa:%032x/sender/%02d", call, r)
					batch = append(batch, KV{Key: skey, Value: []byte("record " + skey)})
					records = append(records, skey)
					for _, dim := range []string{"actor", "session", "kind"} {
						pk := fmt.Sprintf("x/%s/t/%s", dim, skey)
						index = append(index, KV{Key: pk})
						postings = append(postings, pk)
					}
				}
				if err := b.PutBatch(batch); err != nil {
					t.Fatal(err)
				}
				if err := b.PutBatch(index); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.DeleteBatch(records); err != nil {
				t.Fatal(err)
			}
			if err := b.DeleteBatch(postings[:45]); err != nil {
				t.Fatal(err)
			}
			for _, k := range postings[45:] {
				if err := b.Delete(k); err != nil {
					t.Fatal(err)
				}
			}
			// Every entry byte is dead.
			check := func(b Backend, when string) {
				t.Helper()
				if g := b.GarbageRatio(); g != 1 {
					t.Errorf("GarbageRatio = %v %s, want 1", g, when)
				}
			}
			check(b, "with every key deleted")
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			re := pb.open(t, dir)
			defer re.Close()
			check(re, "after a reopen")
		})
	}
}

// A run of keys longer than kv.KeyBatchMax goes into several key-batch
// entries, and a key that two of them name is accounted as replay
// accounts it: live state and reopened state agree.
func TestFileKeyBatchesSplitPastMax(t *testing.T) {
	dir := t.TempDir()
	fb := openFile(t, dir)
	var pairs []KV
	var keys []string
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("%02d/%s", 19-i, strings.Repeat("k", 60<<10))
		pairs = append(pairs, KV{Key: k})
		keys = append(keys, k)
	}
	pairs = append(pairs, pairs[0]) // in the second entry as well as the first
	if err := fb.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if err := fb.Put("kept", []byte("value")); err != nil {
		t.Fatal(err)
	}
	if err := fb.DeleteBatch(append(keys[1:], keys[1])); err != nil {
		t.Fatal(err)
	}
	type view struct {
		Contents string
		Count    int
		Garbage  float64
		Tombs    int64
	}
	viewOf := func(db *kvdb.DB) view {
		n, err := db.Count("")
		if err != nil {
			t.Fatal(err)
		}
		return view{contentsOf(t, db), n, db.GarbageRatio(), db.Tombstones()}
	}
	live := viewOf(fb)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	re := openFile(t, dir)
	defer re.Close()
	if got := viewOf(re); got != live || live.Count != 2 {
		t.Fatalf("reopened: %d keys, garbage %v, %d tombstones, same contents %v; live: %d keys, garbage %v, %d tombstones",
			got.Count, got.Garbage, got.Tombs, got.Contents == live.Contents, live.Count, live.Garbage, live.Tombs)
	}
}
