package store

import (
	"fmt"
	"sync"

	"preserv/internal/kv"
)

// MemoryBackend keeps records in a map, like PReServ's in-memory store.
// The zero value is not usable; call NewMemoryBackend.
type MemoryBackend struct {
	mu    sync.RWMutex
	items map[string][]byte
	keys  kv.Ordered[[]byte] // sorted view of items' key set; guarded by mu
}

// NewMemoryBackend returns an empty in-memory backend.
func NewMemoryBackend() *MemoryBackend {
	return &MemoryBackend{items: make(map[string][]byte)}
}

// Put implements Backend.
func (m *MemoryBackend) Put(key string, value []byte) error {
	return m.PutBatch([]KV{{Key: key, Value: value}})
}

// PutBatch implements Backend: the whole batch goes in under one lock
// acquisition, so a multi-hundred-posting index flush costs one
// contended section instead of one per posting.
func (m *MemoryBackend) PutBatch(kvs []KV) error {
	for _, p := range kvs {
		if p.Key == "" {
			return fmt.Errorf("store: empty key")
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range kvs {
		if _, exists := m.items[p.Key]; !exists {
			m.keys.Touch(p.Key)
		}
		m.items[p.Key] = append([]byte(nil), p.Value...)
	}
	return nil
}

// Delete implements Backend.
func (m *MemoryBackend) Delete(key string) error {
	return m.DeleteBatch([]string{key})
}

// DeleteBatch implements Backend: the whole batch of removals happens
// under one lock acquisition. Absent keys are no-ops.
func (m *MemoryBackend) DeleteBatch(keys []string) error {
	for _, k := range keys {
		if k == "" {
			return fmt.Errorf("store: empty key")
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, k := range keys {
		if _, exists := m.items[k]; exists {
			delete(m.items, k)
			m.keys.Touch(k)
		}
	}
	return nil
}

// Get implements Backend.
func (m *MemoryBackend) Get(key string) ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.items[key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// GetBatch implements Backend: the whole batch resolves under one lock
// acquisition, so a query fetching hundreds of candidate records costs
// one contended section instead of one per record.
func (m *MemoryBackend) GetBatch(keys []string) ([][]byte, []bool, error) {
	values := make([][]byte, len(keys))
	present := make([]bool, len(keys))
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i, k := range keys {
		if v, ok := m.items[k]; ok {
			values[i] = append([]byte(nil), v...)
			present[i] = true
		}
	}
	return values, present, nil
}

// sortedKeys returns the sorted key snapshot, folding writes in only
// when there are any. Snapshot current, the cost is a shared lock: the
// snapshot is immutable, so concurrent readers iterate it without
// excluding each other and re-check each key at read time.
func (m *MemoryBackend) sortedKeys() *kv.Keys {
	m.mu.RLock()
	keys, ok := m.keys.Clean()
	m.mu.RUnlock()
	if ok {
		return keys
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.keys.Fold(m.items)
}

// ScanFrom implements Backend: a seek lands directly on the first key
// >= max(prefix, from), so prefix-scoped scans and resumed posting lists
// cost O(log n + matches). Keys stream off the snapshot lazily — an
// early stop from fn (a posting iterator filling one chunk, a page
// completing) ends the sweep without the remaining range ever being
// copied or visited.
func (m *MemoryBackend) ScanFrom(prefix, from string, fn func(string, []byte) error) error {
	for k := range m.sortedKeys().Range(prefix, from) {
		m.mu.RLock()
		v, ok := m.items[k]
		m.mu.RUnlock()
		if !ok {
			continue
		}
		if err := fn(k, v); err != nil {
			return err
		}
	}
	return nil
}

// Count implements Backend: two seeks on the snapshot (the planner's
// selectivity probes), excluding no other reader when it is current.
func (m *MemoryBackend) Count(prefix string) (int, error) {
	return m.sortedKeys().Count(prefix, ""), nil
}

// Close implements Backend.
func (m *MemoryBackend) Close() error { return nil }
