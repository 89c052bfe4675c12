package store

// Tests of the file flavour's opens and compaction: superseded values
// dropped, and the record pairs and leftover temps of the file layout
// adopted.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

// TestFileAdoptsRecordFilesAtOpen opens directories holding the
// per-record file pairs earlier versions wrote, beside segments. Open
// keeps the old replay order, in which record files loaded before every
// segment — a key a segment holds or tombstones keeps its segment state,
// a body without its sidecar is a torn write and is dropped — and leaves
// no .rec file behind. The state of a crash before any removal (the
// adopted log beside every file it adopted) reopens to the same
// contents, and pairs holding more than one adopting batch carries are
// adopted whole.
func TestFileAdoptsRecordFilesAtOpen(t *testing.T) {
	dir := t.TempDir()
	writeLayout := func(dir string) {
		t.Helper()
		writeSegments(t, dir,
			appendSegEntry(appendSegEntry(appendSegEntry([]byte(segMagic),
				"held", []byte("segment")), "gone", []byte("segment")), "other", []byte("segment-only")),
			appendSegKeyBatch([]byte(segMagic), []string{"gone"}, true))
		for key, value := range map[string]string{"plain": "pair", "held": "stale pair", "gone": "stale pair"} {
			writePair(t, dir, key, value)
		}
		if err := os.WriteFile(filepath.Join(dir, recordFileName("torn")), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]string{"plain": "pair", "held": "segment", "other": "segment-only"}
	open := func(label, dir string) {
		t.Helper()
		b := openFile(t, dir)
		defer b.Close()
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
	}
	writeLayout(dir)
	open("adopted", dir)
	open("reopened", dir)
	writeLayout(dir)
	open("crash before the first removal", dir)
	open("crash state reopened", dir)

	// Three 2 MiB pairs are more than one adopting batch carries.
	big := t.TempDir()
	value := strings.Repeat("v", 2<<20)
	for i := 0; i < 3; i++ {
		writePair(t, big, fmt.Sprint("big/", i), value)
	}
	fbBig := openFile(t, big)
	defer fbBig.Close()
	for i := 0; i < 3; i++ {
		if v, ok, err := fbBig.Get(fmt.Sprint("big/", i)); err != nil || !ok || string(v) != value {
			t.Errorf("big/%d: %d bytes ok=%v err=%v", i, len(v), ok, err)
		}
	}
}

// TestFileLeftoverTempsRemovedAtOpen is the file layout's mirror of
// kvdb's TestLeftoverCompactionTempIgnored: a crash between a segment's
// temp write and its rename stranded a <seq>.seg.tmp that no replay
// read, and still earlier versions left <seq>.seg.bloom filter sidecars
// (and their temps) that nothing reads. Open discards them unparsed and
// nothing else changes; no later write, compaction or reopen puts a
// sidecar back.
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
