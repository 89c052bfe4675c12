package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"preserv/internal/store"
)

// populate writes three batches (so the file backend holds three
// segments) plus a deletion through b, and closes it.
func populate(t *testing.T, b store.Backend) {
	t.Helper()
	for _, k := range []string{"i/a", "i/b", "i/c"} {
		if err := b.PutBatch([]store.KV{{Key: k, Value: []byte("v-" + k)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Delete("i/b"); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestRunCompactRefusesMissingDirectory(t *testing.T) {
	for _, backend := range []string{"file", "kvdb"} {
		dir := filepath.Join(t.TempDir(), "no-such-store")
		var out bytes.Buffer
		if err := runCompact(backend, dir, &out); err == nil {
			t.Errorf("%s: compacting a missing directory succeeded: %q", backend, out.String())
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: the mistyped path was created (stat err = %v)", backend, err)
		}
	}
}

func TestRunCompactRefusesTheOtherBackendsDirectory(t *testing.T) {
	fileDir, kvDir := t.TempDir(), t.TempDir()
	fb, err := store.NewFileBackend(fileDir)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, fb)
	kb, err := store.NewKVBackend(kvDir)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, kb)

	for _, tc := range []struct{ backend, dir string }{{"kvdb", fileDir}, {"file", kvDir}} {
		before := dirNames(t, tc.dir)
		var out bytes.Buffer
		if err := runCompact(tc.backend, tc.dir, &out); err == nil {
			t.Errorf("-backend %s over the other backend's store succeeded: %q", tc.backend, out.String())
		}
		if after := dirNames(t, tc.dir); strings.Join(after, " ") != strings.Join(before, " ") {
			t.Errorf("-backend %s changed the other backend's directory: %v -> %v", tc.backend, before, after)
		}
	}
}

func TestRunCompactCompactsAnExistingStore(t *testing.T) {
	open := map[string]func(string) (store.Backend, error){
		"file": func(dir string) (store.Backend, error) { return store.NewFileBackend(dir) },
		"kvdb": func(dir string) (store.Backend, error) { return store.NewKVBackend(dir) },
	}
	for backend, openAt := range open {
		dir := t.TempDir()
		b, err := openAt(dir)
		if err != nil {
			t.Fatal(err)
		}
		populate(t, b)

		var out bytes.Buffer
		if err := runCompact(backend, dir, &out); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if !strings.HasPrefix(out.String(), "compacted ") {
			t.Errorf("%s: output %q", backend, out.String())
		}
		b, err = openAt(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if n, _ := b.Count(""); n != 2 {
			t.Errorf("%s: %d keys after compaction, want 2", backend, n)
		}
		if _, ok, _ := b.Get("i/b"); ok {
			t.Errorf("%s: deleted key back after compaction", backend)
		}
		if g := b.(store.GarbageReporter).GarbageRatio(); g != 0 {
			t.Errorf("%s: garbage ratio %v after offline compaction", backend, g)
		}
	}
}
