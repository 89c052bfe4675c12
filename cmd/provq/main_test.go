package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"preserv/internal/preserv"
	"preserv/internal/store"
)

// serveMemoryStore serves an empty memory-backed store on a loopback
// port and returns its URL.
func serveMemoryStore(t *testing.T) string {
	t.Helper()
	srv, err := preserv.Serve(preserv.NewService(store.New(store.NewMemoryBackend())), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.URL
}

// TestShardedResultLinesNameTheShards runs compact and consolidate
// through the -shards loopback router: their result lines must name the
// shard endpoints they reached, not the -store URL nothing contacted.
func TestShardedResultLinesNameTheShards(t *testing.T) {
	const unused = "http://127.0.0.1:8734"
	shards := serveMemoryStore(t) + "," + serveMemoryStore(t)
	source := preserv.NewClient(serveMemoryStore(t), nil)

	client, dest, stop, err := connect(unused, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var out bytes.Buffer
	resp, err := client.Compact()
	if err != nil {
		t.Fatal(err)
	}
	printCompacted(&out, dest, resp)
	accepted, err := preserv.Consolidate(client, source)
	if err != nil {
		t.Fatal(err)
	}
	printConsolidated(&out, dest, accepted, 1)

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("output %q, want two result lines", out.String())
	}
	for _, line := range lines {
		if !strings.Contains(line, shards) || strings.Contains(line, unused) {
			t.Errorf("result line %q does not name the shards %s (or names the unused -store %s)", line, shards, unused)
		}
	}

	// Without -shards the label stays the -store URL.
	_, dest, stop, err = connect(unused, "")
	if err != nil || dest != unused {
		t.Fatalf("plain store label %q (err %v), want %q", dest, err, unused)
	}
	stop()
}

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
