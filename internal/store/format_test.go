package store

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// fileView is everything an open file backend must reproduce.
type fileView struct {
	Keys, Values    []string
	Count           int
	Live, Dead      int64
	Tombstones      int64
	Segments, Bytes int
}

func fileViewOf(t *testing.T, fb *FileBackend) fileView {
	t.Helper()
	var v fileView
	if err := fb.ScanFrom("", "", func(k string, val []byte) error {
		v.Keys = append(v.Keys, k)
		v.Values = append(v.Values, string(val))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	n, err := fb.Count("")
	if err != nil {
		t.Fatal(err)
	}
	fb.mu.RLock()
	v.Count, v.Live, v.Dead, v.Tombstones = n, fb.liveBytes, fb.deadBytes, int64(len(fb.tombstones))
	fb.mu.RUnlock()
	entries, err := os.ReadDir(fb.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		v.Segments++
		v.Bytes += int(info.Size())
	}
	return v
}

// checkBuiltAtOpen checks the sorted key view of a file backend that
// NewFileBackend just returned, before any other call: it is current, so
// no read has to fold it, and it holds exactly the directory's keys.
// ScanFrom alone would not tell: it skips keys that no longer read back,
// so a view that kept a deleted key would scan the same.
func checkBuiltAtOpen(t testing.TB, fb *FileBackend) {
	t.Helper()
	keys, ok := fb.ordered.Clean()
	if !ok {
		t.Fatal("NewFileBackend returned with the sorted key view not current")
	}
	want := slices.Sorted(maps.Keys(fb.keys))
	if got := slices.Collect(keys.Range("", "")); !slices.Equal(got, want) {
		t.Fatalf("the view built at open holds\n%q\nthe directory\n%q", got, want)
	}
	if n, err := fb.Count(""); err != nil || n != len(want) || n != fb.Len() {
		t.Fatalf("Count(\"\") = %d, %v; the directory holds %d, Len %d", n, err, len(want), fb.Len())
	}
}

// NewFileBackend builds the sorted key view from the keys in the order
// replay and adoption met them, leaving out those that left the
// directory again: each store below opens to a view holding exactly its
// live keys.
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
		for i, data := range c.segs {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x%s", i+1, segExt)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for key, value := range c.pairs {
			name := filepath.Join(dir, recordFileName(key))
			if err := os.WriteFile(name, []byte(value), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(name+".key", []byte(key), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fb, err := NewFileBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		checkBuiltAtOpen(t, fb)
		if got := fileViewOf(t, fb).Keys; !slices.Equal(got, c.want) {
			t.Errorf("%s: opened to %q, want %q", c.name, got, c.want)
		}
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Segments written before key batches existed hold one entry per key,
// postings and tombstones included. They open to what they always
// opened to, and Compact rewrites them into the current form: the same
// contents, with the postings in key-batch entries, in fewer bytes. A
// store an earlier version already compacted holds one segment and no
// garbage, and Compact still rewrites it.
func TestPerKeySegmentAdoptedByCompact(t *testing.T) {
	for _, withGarbage := range []bool{true, false} {
		t.Run(fmt.Sprint("garbage=", withGarbage), func(t *testing.T) {
			// Write the segments with the per-key encoders, keeping the
			// accounting the per-key format always had.
			live := map[string]string{}
			sizes := map[string]int64{}
			var dead, tombs int64
			seg := []byte(segMagic)
			put := func(key, val string) {
				seg = appendSegEntry(seg, key, []byte(val))
				dead += sizes[key]
				live[key], sizes[key] = val, putEntrySize(key, len(val))
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
					dead += sizes[key] + int64(uvarintLen(uint64(len(key)))+uvarintLen(segTombstoneVal)+len(key)+4)
					tombs++
					delete(live, key)
					delete(sizes, key)
				}
				segs = append(segs, tomb)
			}
			var liveBytes int64
			for _, sz := range sizes {
				liveBytes += sz
			}
			onDisk := 0
			for i, data := range segs {
				onDisk += len(data)
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x%s", i+1, segExt)), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			fb, err := NewFileBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer fb.Close()
			checkBuiltAtOpen(t, fb)
			want := fileView{Keys: slices.Sorted(maps.Keys(live)), Count: len(live), Live: liveBytes, Dead: dead,
				Tombstones: tombs, Segments: len(segs), Bytes: onDisk}
			for _, k := range want.Keys {
				want.Values = append(want.Values, live[k])
			}
			if got := fileViewOf(t, fb); !reflect.DeepEqual(got, want) {
				t.Fatalf("per-key segments opened to\n%+v\nwant\n%+v", got, want)
			}

			if err := fb.Compact(); err != nil {
				t.Fatal(err)
			}
			after := fileViewOf(t, fb)
			if !reflect.DeepEqual(after.Keys, want.Keys) || !reflect.DeepEqual(after.Values, want.Values) ||
				after.Count != want.Count || after.Dead != 0 || after.Tombstones != 0 || after.Segments != 1 {
				t.Fatalf("compaction changed the contents:\n%+v\nwas\n%+v", after, want)
			}
			if int64(after.Bytes) >= int64(len(segMagic))+liveBytes {
				t.Fatalf("the merged segment holds %d bytes, the live per-key entries %d", after.Bytes, liveBytes)
			}
			names, err := filepath.Glob(filepath.Join(dir, "*"+segExt))
			if err != nil || len(names) != 1 {
				t.Fatalf("segments after compaction: %q, %v", names, err)
			}
			data, err := os.ReadFile(names[0])
			if err != nil {
				t.Fatal(err)
			}
			batches := 0
			for off := len(segMagic); off < len(data); {
				e, ok := parseSegEntry(data, off)
				if !ok {
					t.Fatalf("the merged segment does not parse at %d", off)
				}
				switch {
				case e.batch.Len() > 0:
					batches++
				case e.tomb || e.valLen == 0:
					t.Fatalf("the merged segment kept a per-key %+v", e)
				}
				off += e.size
			}
			if batches != 1 {
				t.Fatalf("the postings went into %d key-batch entries, want 1", batches)
			}
			if err := fb.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := NewFileBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			checkBuiltAtOpen(t, re)
			if got := fileViewOf(t, re); !reflect.DeepEqual(got, after) {
				t.Fatalf("the merged segment reopens to\n%+v\nlive\n%+v", got, after)
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
			// Every entry byte is dead: on the file backend, whatever the
			// segments hold past their magic.
			check := func(b Backend, when string) {
				t.Helper()
				if g := b.(GarbageReporter).GarbageRatio(); g != 1 {
					t.Errorf("GarbageRatio = %v %s, want 1", g, when)
				}
				if fb, ok := b.(*FileBackend); ok {
					if v := fileViewOf(t, fb); v.Live != 0 || v.Dead != int64(v.Bytes-v.Segments*len(segMagic)) {
						t.Errorf("%s: %d live and %d dead bytes in %d segments of %d bytes", when, v.Live, v.Dead, v.Segments, v.Bytes)
					}
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
// entries of one segment, and a key that two of them name is accounted
// as replay accounts it: live state and reopened state agree.
func TestFileKeyBatchesSplitPastMax(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	live := fileViewOf(t, fb)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := fileViewOf(t, re); !reflect.DeepEqual(got, live) || live.Count != 2 || live.Tombstones != 19 {
		t.Fatalf("reopened\n%+v\nlive\n%+v", got, live)
	}
}
