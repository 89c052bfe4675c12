package reuse

import "testing"

// TestTrim keeps an array up to MaxBytes, counted in bytes rather than
// elements, and drops a larger one.
func TestTrim(t *testing.T) {
	if s := Trim(make([]byte, 5, MaxBytes)); s == nil || len(s) != 0 || cap(s) != MaxBytes {
		t.Fatalf("a %d-byte array was not kept: len %d cap %d", MaxBytes, len(s), cap(s))
	}
	if s := Trim(make([]byte, 0, MaxBytes+1)); s != nil {
		t.Fatalf("a %d-byte array was kept", MaxBytes+1)
	}
	if s := Trim(make([]int64, 0, MaxBytes/8+1)); s != nil {
		t.Fatalf("%d int64s (%d bytes) were kept", MaxBytes/8+1, MaxBytes+8)
	}
	if s := Trim([]string(nil)); s != nil {
		t.Fatal("a nil slice came back non-nil")
	}
}
