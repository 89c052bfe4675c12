package store

// Tests of the file flavour's compaction: superseded values dropped.

import "testing"

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
