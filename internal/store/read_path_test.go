package store

// Read-path tests: packed-segment compaction on the file backend and
// the Store-level batched record fetch.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"preserv/internal/core"
	"preserv/internal/prep"
)

// segFiles counts the packed segment files in a directory.
func segFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			n++
		}
	}
	return n
}

func TestFileBackendCompactMergesSegments(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(fb)

	// Several Record calls leave two segments each, records and
	// postings (plus the index's schema-marker write).
	for i := 0; i < 6; i++ {
		session := seq.NewID()
		var recs []core.Record
		for j := 0; j < 4; j++ {
			recs = append(recs, mkInteraction(session, "svc:gzip", "compress"))
		}
		if acc, rejects, err := s.Record("svc:enactor", recs); err != nil || len(rejects) > 0 || acc != len(recs) {
			t.Fatalf("record %d: acc=%d rejects=%v err=%v", i, acc, rejects, err)
		}
	}
	before := segFiles(t, dir)
	if before < 6 {
		t.Fatalf("expected at least one segment per Record call, found %d", before)
	}

	// Snapshot every key/value before the merge.
	type kvSnap struct{ key, val string }
	var snap []kvSnap
	if err := fb.ScanFrom("", "", func(k string, v []byte) error {
		snap = append(snap, kvSnap{k, string(v)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if err := fb.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := segFiles(t, dir); after != 1 {
		t.Errorf("segments after compaction = %d, want 1", after)
	}
	if got := fb.Segments(); got != 1 {
		t.Errorf("Segments() = %d, want 1", got)
	}

	// Byte-identical content, in place and across a reopen.
	check := func(b Backend, label string) {
		i := 0
		if err := b.ScanFrom("", "", func(k string, v []byte) error {
			if i >= len(snap) || snap[i].key != k || snap[i].val != string(v) {
				t.Fatalf("%s: divergence at entry %d (key %s)", label, i, k)
			}
			i++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if i != len(snap) {
			t.Errorf("%s: %d entries, want %d", label, i, len(snap))
		}
	}
	check(fb, "compacted")

	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(fb2, "reopened")

	// The reopened store still answers queries over the merged segments.
	s2 := New(fb2)
	recs, total, err := s2.Query(&prep.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if total != 24 || len(recs) != 24 {
		t.Fatalf("query after compaction: %d/%d records, want 24", len(recs), total)
	}
}

func TestFileBackendCompactSingleSegmentNoop(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.PutBatch([]KV{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}}); err != nil {
		t.Fatal(err)
	}
	if err := fb.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := segFiles(t, dir); n != 1 {
		t.Errorf("single segment compacted away: %d files", n)
	}
	// An empty backend compacts to nothing without error.
	fb2, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fb2.Compact(); err != nil {
		t.Fatal(err)
	}
}

func TestFileBackendCompactDropsSupersededValues(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The same key rewritten across segments: only the newest survives
	// the merge, and the merged file carries it once.
	if err := fb.PutBatch([]KV{{Key: "k", Value: []byte("old")}}); err != nil {
		t.Fatal(err)
	}
	if err := fb.PutBatch([]KV{{Key: "k", Value: []byte("new")}, {Key: "l", Value: []byte("live")}}); err != nil {
		t.Fatal(err)
	}
	if err := fb.Compact(); err != nil {
		t.Fatal(err)
	}
	v, ok, err := fb.Get("k")
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("after compact: %q ok=%v err=%v, want \"new\"", v, ok, err)
	}
	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err = fb2.Get("k")
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("after reopen: %q ok=%v err=%v, want \"new\"", v, ok, err)
	}
}

// recordFileName is the name earlier versions gave a key's record file:
// the hex of the first 16 bytes of the key's SHA-256, then ".rec" (its
// key sidecar adds ".key").
func recordFileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16]) + ".rec"
}

// TestFileAdoptsRecordFilesAtOpen opens directories holding the
// per-record file pairs earlier versions wrote. Open folds them into
// segments under the old replay order — a key a segment holds or
// tombstones keeps its segment state, a body without its sidecar is a
// torn write and is dropped — and leaves no .rec file behind. The
// crash-between state (adopted segment published, pairs not yet
// removed) reopens to the same contents, and a store with more pair
// bytes than one adopted segment carries is adopted in several.
func TestFileAdoptsRecordFilesAtOpen(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.PutBatch([]KV{
		{Key: "held", Value: []byte("segment")},
		{Key: "gone", Value: []byte("segment")},
		{Key: "other", Value: []byte("segment-only")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := fb.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	writePairs := func(dir string) {
		t.Helper()
		for key, value := range map[string]string{"plain": "pair", "held": "stale pair", "gone": "stale pair"} {
			name := filepath.Join(dir, recordFileName(key))
			if err := os.WriteFile(name, []byte(value), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(name+".key", []byte(key), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, recordFileName("torn")), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]string{"plain": "pair", "held": "segment", "other": "segment-only"}
	open := func(label, dir string) {
		t.Helper()
		b, err := NewFileBackend(dir)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer b.Close()
		checkBuiltAtOpen(t, b)
		for k, w := range want {
			if v, ok, err := b.Get(k); err != nil || !ok || string(v) != w {
				t.Errorf("%s: Get(%s) = %q ok=%v err=%v, want %q", label, k, v, ok, err, w)
			}
		}
		for _, k := range []string{"gone", "torn"} {
			if _, ok, _ := b.Get(k); ok {
				t.Errorf("%s: %s is present", label, k)
			}
		}
		if n, _ := b.Count(""); n != len(want) {
			t.Errorf("%s: Count = %d, want %d", label, n, len(want))
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*.rec*")); len(left) != 0 {
			t.Errorf("%s: record files left: %v", label, left)
		}
	}
	writePairs(dir)
	open("adopted", dir)
	open("reopened", dir)

	// The crash between publishing the adopted segment and removing the
	// pairs: the adopted state plus the same pairs once more.
	crashed := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writePairs(crashed)
	open("crash between publish and removal", crashed)
	open("crash state reopened", crashed)

	// Three 2 MiB pairs are more than one adopted segment carries.
	big := t.TempDir()
	value := strings.Repeat("v", 2<<20)
	for i := 0; i < 3; i++ {
		name := filepath.Join(big, recordFileName(fmt.Sprint("big/", i)))
		if err := os.WriteFile(name, []byte(value), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name+".key", []byte(fmt.Sprint("big/", i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fbBig, err := NewFileBackend(big)
	if err != nil {
		t.Fatal(err)
	}
	defer fbBig.Close()
	if n := segFiles(t, big); n != 2 {
		t.Errorf("3 × 2 MiB of pairs adopted into %d segments, want 2", n)
	}
	for i := 0; i < 3; i++ {
		if v, ok, err := fbBig.Get(fmt.Sprint("big/", i)); err != nil || !ok || string(v) != value {
			t.Errorf("big/%d: %d bytes ok=%v err=%v", i, len(v), ok, err)
		}
	}
}

// TestFileLeftoverTempsRemovedAtOpen is the file-backend mirror of
// kvdb's TestLeftoverCompactionTempIgnored: a crash between a temp write
// and its rename strands a <seq>.seg.tmp that no replay reads and no
// compaction sweep matches, and a store written by an earlier version
// carries <seq>.seg.bloom filter sidecars (and their temps) that nothing
// reads any more. Open discards them unparsed and nothing else changes;
// no later write, compaction or reopen puts a sidecar back.
func TestFileLeftoverTempsRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.PutBatch([]KV{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}}); err != nil {
		t.Fatal(err)
	}
	if err := fb.PutBatch([]KV{{Key: "b", Value: []byte("3")}}); err != nil {
		t.Fatal(err)
	}
	if err := fb.Delete("a"); err != nil {
		t.Fatal(err)
	}
	wantRatio := fb.GarbageRatio()
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	// A crashed compaction's merged segment (well-formed, resurrecting
	// "a" if anything replayed it), a crashed sidecar write, a published
	// sidecar beside the live segment 2, and files that are not
	// sequence-named and so not ours to touch.
	ghost := appendSegEntry([]byte(segMagic), "a", []byte("ghost"))
	orphans := []string{"00000000000000ff.seg.tmp", "00000000000000ff.seg.bloom.tmp", "0000000000000002.seg.bloom"}
	foreign := []string{"notes.tmp", "notes.bloom"}
	for _, name := range append(orphans, foreign...) {
		if err := os.WriteFile(filepath.Join(dir, name), ghost, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived the reopen (stat err = %v)", name, err)
		}
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("foreign file %s was touched: %v", name, err)
		}
	}
	if _, ok, _ := fb2.Get("a"); ok {
		t.Error("deleted key resurrected")
	}
	if v, ok, err := fb2.Get("b"); err != nil || !ok || string(v) != "3" {
		t.Errorf("b = %q ok=%v err=%v, want \"3\"", v, ok, err)
	}
	if n, _ := fb2.Count(""); n != 1 {
		t.Errorf("Count = %d, want 1", n)
	}
	if got := fb2.GarbageRatio(); got != wantRatio {
		t.Errorf("GarbageRatio = %v after reopen, want %v", got, wantRatio)
	}

	// A segment of the size that used to earn a sidecar, a compaction
	// and one more reopen: the foreign file is the only .bloom left.
	big := make([]KV, 5000)
	for i := range big {
		big[i] = KV{Key: fmt.Sprintf("big/%04d", i), Value: []byte("v")}
	}
	if err := fb2.PutBatch(big); err != nil {
		t.Fatal(err)
	}
	if err := fb2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := fb2.Close(); err != nil {
		t.Fatal(err)
	}
	fb3, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fb3.Close()
	if n, _ := fb3.Count(""); n != 1+len(big) {
		t.Errorf("Count = %d after ingest, compaction and reopen, want %d", n, 1+len(big))
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.bloom*")); len(left) != 1 || filepath.Base(left[0]) != "notes.bloom" {
		t.Errorf(".bloom files on disk = %v, want only notes.bloom", left)
	}
}

// TestFileFailedSegmentWriteLeavesNoTemp: a write that fails before the
// rename must not strand its temp file (only a crash may, and open
// sweeps those). The failure is forced by occupying the next segment's
// temp name with a directory.
func TestFileFailedSegmentWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	blocker := filepath.Join(dir, fmt.Sprintf("%016x.seg.tmp", 1))
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fb.PutBatch([]KV{{Key: "k", Value: []byte("v")}}); err == nil {
		t.Fatal("PutBatch over an unwritable temp name succeeded")
	}
	if _, err := os.Stat(blocker); !os.IsNotExist(err) {
		t.Errorf("failed write left its temp behind (stat err = %v)", err)
	}
	if _, ok, _ := fb.Get("k"); ok {
		t.Error("failed PutBatch made its key visible")
	}
	if err := fb.PutBatch([]KV{{Key: "k", Value: []byte("v")}}); err != nil {
		t.Fatalf("PutBatch after the failed one: %v", err)
	}
}

// TestFileBackendCorruptLocationIsAnError: a live key whose segment has
// no handle, or whose location runs past its segment's end, is
// corruption. Every read path and Compact must say so with ErrCorrupt —
// never answer "absent", which would make a delete report nothing to
// delete and a query silently drop the record.
func TestFileBackendCorruptLocationIsAnError(t *testing.T) {
	cases := map[string]func(fb *FileBackend, loc fileLoc){
		"missing handle": func(fb *FileBackend, loc fileLoc) {
			fb.segs[loc.file].close()
			delete(fb.segs, loc.file)
		},
		"short segment": func(fb *FileBackend, loc fileLoc) {
			m := fb.segs[loc.file]
			short := append([]byte(nil), m.data[:loc.off+int64(loc.vlen)-1]...)
			m.close()
			fb.segs[loc.file] = &segMap{data: short}
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			fb, err := NewFileBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s := New(fb)
			defer s.Close()
			session := seq.NewID()
			var recs []core.Record
			for i := 0; i < 3; i++ {
				recs = append(recs, mkInteraction(session, "svc:gzip", "compress"))
			}
			if _, _, err := s.Record("svc:enactor", recs); err != nil {
				t.Fatal(err)
			}
			victim := recs[1].StorageKey()
			fb.mu.Lock()
			corrupt(fb, fb.keys[victim])
			fb.mu.Unlock()

			check := func(op string, err error) {
				t.Helper()
				if !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s = %v, want ErrCorrupt", op, err)
				}
			}
			_, ok, err := fb.Get(victim)
			check("Get", err)
			if ok {
				t.Error("Get reported the corrupt key present")
			}
			_, _, err = fb.GetBatch([]string{recs[0].StorageKey(), victim})
			check("GetBatch", err)
			check("ScanFrom", fb.ScanFrom("i/", "", func(string, []byte) error { return nil }))
			check("Compact", fb.Compact())
			n, err := s.DeleteRecords([]string{victim})
			check("Store.DeleteRecords", err)
			if n != 0 {
				t.Errorf("Store.DeleteRecords deleted %d records through a corrupt read", n)
			}
		})
	}
}

// TestFileBackendHeapSegmentHandles runs the read path, Compact's handle
// retirement and Close over heap-backed handles — what mapSeg hands out
// on every non-Linux build, but on Linux only for empty segments.
func TestFileBackendHeapSegmentHandles(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	var keys []string
	for b := 0; b < 3; b++ {
		var batch []KV
		for i := 0; i < 5; i++ {
			k := fmt.Sprintf("i/h/%d-%d", b, i)
			want[k] = fmt.Sprintf("value %d/%d", b, i)
			keys = append(keys, k)
			batch = append(batch, KV{Key: k, Value: []byte(want[k])})
		}
		if err := fb.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	// Every segment is mapped from the moment it is published: swap each
	// mapping for a heap copy of the file.
	swapHeap := func() (names []string, total int64) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		fb.mu.Lock()
		defer fb.mu.Unlock()
		for _, e := range entries {
			m := fb.segs[e.Name()]
			if m == nil {
				t.Fatalf("segment %s has no handle", e.Name())
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.close(); err != nil {
				t.Fatal(err)
			}
			fb.segs[e.Name()] = &segMap{data: data}
			names = append(names, e.Name())
			total += int64(len(data))
		}
		return names, total
	}
	checkReads := func(when string) {
		t.Helper()
		for k, w := range want {
			if v, ok, err := fb.Get(k); err != nil || !ok || string(v) != w {
				t.Errorf("%s: Get(%s) = %q ok=%v err=%v, want %q", when, k, v, ok, err, w)
			}
		}
		values, present, err := fb.GetBatch(append([]string{"i/h/absent"}, keys...))
		if err != nil {
			t.Fatalf("%s: GetBatch: %v", when, err)
		}
		if present[0] {
			t.Errorf("%s: GetBatch found an absent key", when)
		}
		for i, k := range keys {
			if !present[i+1] || string(values[i+1]) != want[k] {
				t.Errorf("%s: GetBatch[%s] = %q present=%v, want %q", when, k, values[i+1], present[i+1], want[k])
			}
		}
	}

	victims, total := swapHeap()
	if len(victims) != 3 || fb.MappedBytes() != total {
		t.Fatalf("swapped in %d heap handles holding %d bytes; MappedBytes = %d", len(victims), total, fb.MappedBytes())
	}
	checkReads("heap handles")

	if err := fb.Compact(); err != nil {
		t.Fatal(err)
	}
	fb.mu.RLock()
	for _, name := range victims {
		if fb.segs[name] != nil {
			t.Errorf("Compact kept the handle of removed segment %s", name)
		}
	}
	fb.mu.RUnlock()
	if n := segFiles(t, dir); n != 1 {
		t.Fatalf("segments after Compact = %d, want 1", n)
	}
	if _, mergedBytes := swapHeap(); fb.MappedBytes() != mergedBytes {
		t.Errorf("MappedBytes = %d after Compact, want the merged segment's %d", fb.MappedBytes(), mergedBytes)
	}
	checkReads("after Compact")

	if err := fb.Close(); err != nil {
		t.Fatalf("Close over heap handles: %v", err)
	}
	if fb.MappedBytes() != 0 {
		t.Errorf("MappedBytes = %d after Close", fb.MappedBytes())
	}
}
