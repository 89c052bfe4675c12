package store

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"preserv/internal/kvdb"
)

// The file flavour opens an earlier version's segments in that
// version's replay order, the record pairs before every segment: each
// store below opens to exactly its live keys, with a sorted key view
// that counts what a scan visits.
func TestFileOpenBuildsKeyViewFromReplay(t *testing.T) {
	seg := func() []byte { return []byte(segMagic) }
	put := func(buf []byte, key, val string) []byte { return appendSegEntry(buf, key, []byte(val)) }
	batch := func(buf []byte, del bool, keys ...string) []byte { return appendSegKeyBatch(buf, keys, del) }
	reput := [][]byte{
		batch(put(put(seg(), "a", "1"), "x/1", "posted"), false, "x/2", "x/3"),
		batch(seg(), true, "x/1", "x/2"),
		batch(put(seg(), "a", "2"), false, "x/1", "x/4"),
	}
	torn := put(seg(), "z", "torn")
	cases := []struct {
		name  string
		segs  [][]byte
		pairs map[string]string // record-file pairs an earlier version left
		want  []string
	}{
		{name: "overwrite", segs: [][]byte{put(put(seg(), "b", "1"), "a", "1"), batch(put(seg(), "b", "2"), false, "a", "x/1")},
			want: []string{"a", "b", "x/1"}},
		{name: "per-key tombstone", segs: [][]byte{put(put(seg(), "b", "1"), "a", "1"), appendSegTombstone(seg(), "b")},
			want: []string{"a"}},
		{name: "key-batch delete", segs: [][]byte{batch(put(seg(), "a", "1"), false, "x/1", "x/2", "x/3"), batch(seg(), true, "a", "x/2", "x/9")},
			want: []string{"x/1", "x/3"}},
		{name: "delete then re-put", segs: reput, want: []string{"a", "x/1", "x/3", "x/4"}},
		{name: "torn tail", segs: append(slices.Clone(reput), torn[:len(torn)-3]), want: []string{"a", "x/1", "x/3", "x/4"}},
		{name: "adopted record files", segs: reput, pairs: map[string]string{"plain": "pair", "x/1": "stale", "x/2": "deleted"},
			want: []string{"a", "plain", "x/1", "x/3", "x/4"}},
		{name: "empty"},
	}
	for _, c := range cases {
		dir := t.TempDir()
		writeSegments(t, dir, c.segs...)
		for key, value := range c.pairs {
			writePair(t, dir, key, value)
		}
		fb := openFile(t, dir)
		var got []string
		if err := fb.ScanFrom("", "", func(k string, _ []byte) error { got = append(got, k); return nil }); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: opened to %q, want %q", c.name, got, c.want)
		}
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Segments written before key batches existed hold one entry per key,
// postings and tombstones included. They open to what they always
// opened to, and the log holds them in the current form: after Compact,
// the same contents, with the postings in key-batch entries, in fewer
// bytes than the live per-key entries took. A store an earlier version
// already compacted holds one segment and no garbage.
func TestPerKeySegmentAdoptedByCompact(t *testing.T) {
	for _, withGarbage := range []bool{true, false} {
		t.Run(fmt.Sprint("garbage=", withGarbage), func(t *testing.T) {
			live := map[string]string{}
			sizes := map[string]int{}
			seg := []byte(segMagic)
			put := func(key, val string) {
				before := len(seg)
				seg = appendSegEntry(seg, key, []byte(val))
				live[key], sizes[key] = val, len(seg)-before
			}
			for r := 0; r < 40; r++ {
				skey := fmt.Sprintf("i/urn:pasoa:%032x/sender/%04d", r/4, r)
				put(skey, fmt.Sprint("record ", r))
				for _, dim := range []string{"actor", "interaction", "session", "kind"} {
					put(fmt.Sprintf("x/%s/term-%d/%s", dim, r%3, skey), "")
				}
			}
			dir := t.TempDir()
			segs := [][]byte{seg}
			if withGarbage {
				put("i/urn:pasoa:00000000000000000000000000000000/sender/0000", "rewritten")
				segs[0] = seg
				tomb := []byte(segMagic)
				for _, key := range []string{"x/actor/term-1/i/urn:pasoa:00000000000000000000000000000000/sender/0001", "i/urn:pasoa:00000000000000000000000000000009/sender/0039"} {
					tomb = appendSegTombstone(tomb, key)
					delete(live, key)
					delete(sizes, key)
				}
				segs = append(segs, tomb)
			}
			liveBytes := 0
			for _, sz := range sizes {
				liveBytes += sz
			}
			writeSegments(t, dir, segs...)
			var want strings.Builder
			for _, k := range slices.Sorted(maps.Keys(live)) {
				fmt.Fprintf(&want, "%q %q\n", k, live[k])
			}

			fb := openFile(t, dir)
			defer fb.Close()
			if got := contentsOf(t, fb); got != want.String() {
				t.Fatalf("per-key segments opened to\n%s\nwant\n%s", got, want.String())
			}
			if g := fb.GarbageRatio(); (g > 0) != withGarbage {
				t.Errorf("garbage ratio %v after adopting, with garbage %v", g, withGarbage)
			}
			if err := fb.Compact(); err != nil {
				t.Fatal(err)
			}
			if got := contentsOf(t, fb); got != want.String() {
				t.Fatalf("compaction changed the contents:\n%s\nwas\n%s", got, want.String())
			}
			if g, n := fb.GarbageRatio(), fb.Tombstones(); g != 0 || n != 0 {
				t.Fatalf("garbage ratio %v, %d tombstones after compaction", g, n)
			}
			if fb.LogBytes() >= int64(liveBytes) {
				t.Fatalf("the compacted log holds %d bytes, the live per-key entries %d", fb.LogBytes(), liveBytes)
			}
			if err := fb.Close(); err != nil {
				t.Fatal(err)
			}
			re := openFile(t, dir)
			defer re.Close()
			if got := contentsOf(t, re); got != want.String() {
				t.Fatalf("the compacted log reopens to\n%s\nwant\n%s", got, want.String())
			}
		})
	}
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
				if g := b.(GarbageReporter).GarbageRatio(); g != 1 {
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
