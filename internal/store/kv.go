package store

import (
	"fmt"

	"preserv/internal/kvdb"
)

// KVBackend persists records in the embedded kvdb database — the
// counterpart of PReServ's Berkeley DB backend, which the paper uses for
// all of its evaluations.
type KVBackend struct {
	db *kvdb.DB
}

// NewKVBackend opens (creating if necessary) a kvdb-backed store in dir.
func NewKVBackend(dir string) (*KVBackend, error) {
	db, err := kvdb.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("store: opening kvdb backend: %w", err)
	}
	return &KVBackend{db: db}, nil
}

// Name implements Backend.
func (k *KVBackend) Name() string { return "kvdb" }

// Put implements Backend.
func (k *KVBackend) Put(key string, value []byte) error {
	return k.db.Put(key, value)
}

// PutBatch implements Backend: the whole batch is serialised into one
// contiguous log append inside kvdb, costing one lock acquisition and
// one write syscall. Each run of empty-valued pairs (the index's
// postings) is one front-coded key-batch entry that replays whole or not
// at all, so a torn tail keeps a prefix of the batch whose pieces are
// those entries and the per-key entries between them.
func (k *KVBackend) PutBatch(kvs []KV) error {
	return k.db.PutBatch(kvs)
}

// Get implements Backend. Lookup (not kvdb.Get) keeps point misses —
// the planner's dangling postings, existence probes — allocation-free:
// absence never builds an ErrNotFound wrap.
func (k *KVBackend) Get(key string) ([]byte, bool, error) {
	return k.db.Lookup(key)
}

// GetBatch implements Backend: one lock acquisition and one
// offset-ordered pass over the log for the whole batch.
func (k *KVBackend) GetBatch(keys []string) ([][]byte, []bool, error) {
	return k.db.GetBatch(keys)
}

// Delete implements Backend: a tombstone entry is appended to the log;
// the dead bytes are reclaimed by Compact.
func (k *KVBackend) Delete(key string) error {
	return k.db.Delete(key)
}

// DeleteBatch implements Backend: the whole batch of tombstones goes to
// the log in one contiguous append of key-batch entries (one unless the
// keys pass kv.KeyBatchMax bytes), each whole or lost, so a torn tail
// keeps a prefix of the batch's deletions at entry granularity — the
// same recovery shape PutBatch has.
func (k *KVBackend) DeleteBatch(keys []string) error {
	return k.db.DeleteBatch(keys)
}

// GarbageRatio reports the fraction of log bytes occupied by dead
// records (superseded values, tombstones, tombstoned values).
func (k *KVBackend) GarbageRatio() float64 {
	total := k.db.LogBytes()
	if total <= 0 {
		return 0
	}
	return float64(k.db.GarbageBytes()) / float64(total)
}

// Len reports the number of live keys and LogBytes the log's size: what
// an open replayed, for the service's start-up log line.
func (k *KVBackend) Len() int        { return k.db.Len() }
func (k *KVBackend) LogBytes() int64 { return k.db.LogBytes() }

// Tombstones reports how many tombstone entries the log holds.
func (k *KVBackend) Tombstones() int64 { return k.db.Tombstones() }

// Scan implements Backend.
func (k *KVBackend) Scan(prefix string, fn func(string, []byte) error) error {
	return k.db.Scan(prefix, fn)
}

// ScanFrom implements Backend.
func (k *KVBackend) ScanFrom(prefix, from string, fn func(string, []byte) error) error {
	return k.db.ScanFrom(prefix, from, fn)
}

// Count implements Backend. The count comes off kvdb's sorted key
// snapshot without copying keys — the planner probes it once per candidate
// dimension on every uncached query.
func (k *KVBackend) Count(prefix string) (int, error) {
	return k.db.CountPrefix(prefix)
}

// Close implements Backend.
func (k *KVBackend) Close() error { return k.db.Close() }

// Compact reclaims space in the underlying database.
func (k *KVBackend) Compact() error { return k.db.Compact() }
