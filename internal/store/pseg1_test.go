package store

// Tests of the refusal of PSEG1, the directory layout earlier versions
// of the file backend wrote: the golden stores under testdata/pseg1,
// written by the last version that wrote the layout, and each kind of
// file that layout left beside a kvdb log.

import (
	"errors"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"preserv/internal/core"
)

// snapshot maps each file in dir to its bytes.
func snapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// copyTree copies the files of src into a fresh directory.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for name, data := range snapshot(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// requireRefused opens dir and requires core.ErrOldFormat naming PSEG1
// and the commit that adopts it, with dir's names and bytes unchanged.
func requireRefused(t *testing.T, dir string) {
	t.Helper()
	before := snapshot(t, dir)
	db, err := NewFileBackend(dir)
	if err == nil {
		db.Close()
		t.Fatal("a PSEG1 directory opened")
	}
	if !errors.Is(err, core.ErrOldFormat) || !strings.Contains(err.Error(), "PSEG1") || !strings.Contains(err.Error(), core.LastAdoptingCommit) {
		t.Fatalf("open error %q: want core.ErrOldFormat naming PSEG1 and commit %s", err, core.LastAdoptingCommit)
	}
	if after := snapshot(t, dir); !maps.Equal(before, after) {
		t.Fatalf("the refused open changed the directory: %d files before, %d after", len(before), len(after))
	}
}

// Every golden store is refused, and left as it was.
func TestPSEG1FixturesRefused(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "pseg1"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no golden stores: %v", err)
	}
	for _, e := range entries {
		t.Run(e.Name(), func(t *testing.T) {
			requireRefused(t, copyTree(t, filepath.Join("testdata", "pseg1", e.Name())))
		})
	}
}

// kvdbStore writes a kvdb store of two keys and returns its directory
// and its contents.
func kvdbStore(t *testing.T) (string, string) {
	t.Helper()
	src := t.TempDir()
	db, err := NewKVBackend(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutBatch([]KV{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}}); err != nil {
		t.Fatal(err)
	}
	want := contentsOf(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return src, want
}

// requireEachRefused plants each named file, alone, beside a copy of the
// kvdb store in src and requires the open refused.
func requireEachRefused(t *testing.T, src string, names []string) {
	t.Helper()
	for _, name := range names {
		dir := copyTree(t, src)
		if err := os.WriteFile(filepath.Join(dir, name), []byte("PSEG1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { requireRefused(t, dir) })
	}
}

// The record files PSEG1 left refuse a kvdb store they sit beside, as a
// crash part way through an earlier version's adoption leaves them: the
// record pairs and segments with or without the magic.
func TestPSEG1RecordFilesRefused(t *testing.T) {
	src, _ := kvdbStore(t)
	requireEachRefused(t, src, []string{
		"0123456789abcdef0123456789abcdef.rec",
		"0123456789abcdef0123456789abcdef.rec.key",
		"0000000000000001.seg",
		"notes.seg",
	})
}

// The sequence-named temps and filter sidecars PSEG1 left refuse a kvdb
// store they sit beside. Files that are not sequence-named, kvdb's
// compact.tmp among them, are not the layout's: they neither refuse the
// open nor are touched by it.
func TestPSEG1TempsRefused(t *testing.T) {
	src, want := kvdbStore(t)
	requireEachRefused(t, src, []string{
		"00000000000000ff.seg.tmp",
		"00000000000000ff.seg.bloom.tmp",
		"0000000000000002.seg.bloom",
	})
	dir := copyTree(t, src)
	foreign := []string{"notes.tmp", "notes.bloom", "0000000000000001.tmp", "compact.tmp"}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("PSEG1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := NewKVBackend(dir)
	if err != nil {
		t.Fatalf("files of no layout refused the open: %v", err)
	}
	defer db.Close()
	if got := contentsOf(t, db); got != want {
		t.Fatalf("opened to\n%s\nwant\n%s", got, want)
	}
	for _, name := range foreign[:3] {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s was touched: %v", name, err)
		}
	}
}
