package store

import (
	"errors"
	"testing"

	"preserv/internal/kvdb"
)

// TestKVBackendCountAfterClose: a closed kvdb backend refuses Count as it
// refuses every other read, rather than answering from the key snapshot
// it still holds.
func TestKVBackendCountAfterClose(t *testing.T) {
	b, err := NewKVBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PutBatch([]KV{{Key: "i/a"}, {Key: "i/b"}}); err != nil {
		t.Fatal(err)
	}
	if n, err := b.Count("i/"); err != nil || n != 2 {
		t.Fatalf("Count before Close = %d, %v", n, err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := b.Count("i/"); !errors.Is(err, kvdb.ErrClosed) {
		t.Errorf("Count after Close = %d, %v; want kvdb.ErrClosed", n, err)
	}
	if err := b.ScanFrom("i/", "", func(string, []byte) error { return nil }); !errors.Is(err, kvdb.ErrClosed) {
		t.Errorf("ScanFrom after Close = %v; want kvdb.ErrClosed", err)
	}
}
