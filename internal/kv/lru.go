package kv

import "sync"

// LRU is a mutex-guarded least-recently-used cache with string keys and
// an entry budget, the cache type behind the shard router's result
// cache.
//
// Every entry carries a stamp S — a count of the mutations that can
// change the cached value, such as a router's tuple of shard
// generations — and a lookup hits only
// when the caller's stamp equals the entry's; a mismatched entry is
// evicted on sight and the lookup counts as a miss. Owners read their
// stamp BEFORE the read whose result they Put, so a mutation racing
// that read has already moved the stamp on and the entry dies on its
// first lookup: the failure mode is over-invalidation, never a stale
// answer.
//
// Values are stored and returned as given; an owner that hands out
// slices clones them on the way in and out. The mutex is a leaf lock:
// nothing else is acquired, and no caller code runs, while it is held.
type LRU[S comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*lruEntry[S, V]
	// root is the sentinel of a circular list: root.next is the most
	// recently used entry, root.prev the least.
	root         lruEntry[S, V]
	hits, misses int64
}

type lruEntry[S comparable, V any] struct {
	key        string
	stamp      S
	val        V
	prev, next *lruEntry[S, V]
}

// LRUStats is a point-in-time snapshot of an LRU's counters.
type LRUStats struct {
	Hits, Misses, Entries int64
}

// NewLRU returns an empty cache holding at most capacity entries; a
// capacity <= 0 retains nothing, so every Get misses.
func NewLRU[S comparable, V any](capacity int) *LRU[S, V] {
	c := &LRU[S, V]{}
	c.Reset(capacity)
	return c
}

// Get returns the value under key if it was Put with exactly stamp.
func (c *LRU[S, V]) Get(key string, stamp S) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok && e.stamp != stamp {
		c.removeLocked(e)
		ok = false
	}
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	if c.root.next != e {
		c.unlinkLocked(e)
		c.pushFrontLocked(e)
	}
	return e.val, true
}

// Put stores v under key and stamp as the most recently used entry,
// replacing any entry under key, then evicts the least recent entry if
// the cache is over capacity.
func (c *LRU[S, V]) Put(key string, stamp S, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.removeLocked(old)
	}
	if c.capacity <= 0 {
		return
	}
	e := &lruEntry[S, V]{key: key, stamp: stamp, val: v}
	c.entries[key] = e
	c.pushFrontLocked(e)
	if len(c.entries) > c.capacity {
		c.removeLocked(c.root.prev)
	}
}

// Reset empties the cache, zeroes its counters and sets a new capacity,
// in place: a concurrent Get or Put lands wholly before or after it.
func (c *LRU[S, V]) Reset(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity, c.hits, c.misses = capacity, 0, 0
	c.entries = make(map[string]*lruEntry[S, V])
	c.root.prev, c.root.next = &c.root, &c.root
}

// Stats returns a snapshot of the counters.
func (c *LRU[S, V]) Stats() LRUStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return LRUStats{Hits: c.hits, Misses: c.misses, Entries: int64(len(c.entries))}
}

func (c *LRU[S, V]) unlinkLocked(e *lruEntry[S, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *LRU[S, V]) pushFrontLocked(e *lruEntry[S, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.next.prev = e
	c.root.next = e
}

func (c *LRU[S, V]) removeLocked(e *lruEntry[S, V]) {
	c.unlinkLocked(e)
	delete(c.entries, e.key)
}
