// Package kv holds what the storage backends share below the Backend
// interface: the key/value pair type of the batched write primitive,
// Ordered, which keeps the chunked sorted key snapshot (Keys) every
// backend answers Count and ScanFrom from (ordered.go), LRU, the stamped
// cache behind the router's result cache (lru.go), and the
// key-batch codec the kvdb log and the PSEG1 segments frame
// (keybatch.go).
// It is a leaf package so that both internal/store (which declares the
// Backend interface) and internal/index (which flushes posting batches
// through a structural slice of that interface, and must not import
// store) can name Pair in their method signatures, and so that
// internal/kvdb and internal/store can both hold an Ordered.
package kv

// Pair is one key/value entry of a batched write. A nil Value is a
// legitimate empty value (the secondary index's posting entries carry no
// content at all).
type Pair struct {
	Key   string
	Value []byte
}
