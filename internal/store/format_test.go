package store

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"preserv/internal/core"
	"preserv/internal/kv"
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

// TestOpenNamesFlavourAndRefusesSchemaTwo opens each -backend flavour
// through Open: the open is the store's first history event, a kvdb
// directory keeps its records across a reopen, an unknown flavour is an
// error, and a directory whose index is of schema "2" is refused by name
// and left as it was.
func TestOpenNamesFlavourAndRefusesSchemaTwo(t *testing.T) {
	if _, err := Open("bdb", t.TempDir()); err == nil || !strings.Contains(err.Error(), `unknown backend "bdb"`) {
		t.Fatalf("Open(bdb): %v, want an unknown-backend error", err)
	}
	dir := t.TempDir()
	for _, flavour := range []string{"memory", "kvdb", "file"} {
		s, err := Open(flavour, dir)
		if err != nil {
			t.Fatalf("Open(%s): %v", flavour, err)
		}
		events := s.Obs().Tracer().Slow()
		if len(events) != 1 || events[0].Op() != "store.open" {
			t.Fatalf("Open(%s): history %v, want one store.open event", flavour, events)
		}
		if flavour != "file" {
			if _, _, err := s.Record("svc:enactor", []core.Record{mkInteraction(seq.NewID(), "svc:gzip", "compress")}); err != nil {
				t.Fatal(err)
			}
		}
		// file opens the log kvdb recorded into.
		if n, err := s.Count(); err != nil || n.Records != 1 {
			t.Fatalf("Open(%s): %+v (%v), want 1 record", flavour, n, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	b, err := NewKVBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("xm/schema", []byte("2")); err != nil {
		t.Fatal(err)
	}
	want := contentsOf(t, b)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open("kvdb", dir); !errors.Is(err, core.ErrOldFormat) || !strings.Contains(err.Error(), "index schema 2") {
		t.Fatalf("Open of a schema-2 directory: %v, want core.ErrOldFormat naming index schema 2", err)
	}
	b = openFile(t, dir)
	defer b.Close()
	if got := contentsOf(t, b); got != want {
		t.Fatalf("the refused directory changed:\n%s\nwant\n%s", got, want)
	}
}

// TestOpenRefusesSchemaThree turns a kvdb directory into one schema "3"
// wrote — its marker, and a group and an actor posting beside the
// record's others. Each flavour that reads a directory refuses it by
// name, naming the commit whose binary serves it and how its records
// move, and leaves it as it was.
func TestOpenRefusesSchemaThree(t *testing.T) {
	dir := t.TempDir()
	s, err := Open("kvdb", dir)
	if err != nil {
		t.Fatal(err)
	}
	session := seq.NewID()
	rec := mkInteraction(session, "svc:gzip", "compress")
	if _, _, err := s.Record("svc:enactor", []core.Record{rec}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := NewKVBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PutBatch([]kv.Pair{
		{Key: "xm/schema", Value: []byte("3")},
		{Key: "x/grp/" + session.String() + "/" + rec.StorageKey()},
		{Key: "x/actor/svc:enactor/" + rec.StorageKey()},
	}); err != nil {
		t.Fatal(err)
	}
	want := contentsOf(t, b)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for _, flavour := range []string{"kvdb", "file"} {
		_, err := Open(flavour, dir)
		if !errors.Is(err, core.ErrOldFormat) {
			t.Fatalf("Open(%s) of a schema-3 directory: %v, want core.ErrOldFormat", flavour, err)
		}
		for _, w := range []string{"index schema 3", "commit c48f751", "provq -store NEW -from OLD consolidate"} {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("Open(%s) of a schema-3 directory: %v, want a refusal that says %q", flavour, err, w)
			}
		}
	}
	b = openFile(t, dir)
	defer b.Close()
	if got := contentsOf(t, b); got != want {
		t.Fatalf("the refused directory changed:\n%s\nwant\n%s", got, want)
	}
}
