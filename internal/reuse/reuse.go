// Package reuse states the one rule by which pooled scratch memory is
// kept for its next use: a backing array of at most MaxBytes is kept, a
// larger one — what a huge message or batch grew — is left to the
// collector, so that one such call does not pin its memory in a pool.
// Every pool of scratch slices applies it, to every slice it keeps.
package reuse

import "unsafe"

// MaxBytes bounds the bytes of one backing array a pool keeps.
const MaxBytes = 1 << 20

// Fits reports whether an array of n T's is small enough to keep.
func Fits[T any](n int) bool {
	var t T
	return uintptr(n)*unsafe.Sizeof(t) <= MaxBytes
}

// Trim returns s emptied for its next use, or nil when its backing
// array is too large to keep. It clears nothing: a caller whose
// elements refer to memory clears them first.
func Trim[S ~[]E, E any](s S) S {
	if !Fits[E](cap(s)) {
		return nil
	}
	return s[:0]
}
