package kv

import "sync"

// LRU is a mutex-guarded least-recently-used cache with string keys and
// a charged budget, the one cache type behind the query engine's result
// cache, the router's result cache and the store's block cache.
//
// Every entry carries a stamp S — a count of the mutations that can
// change the cached value: a store generation (the query result cache),
// a router's tuple of shard generations, or a store's count of
// attempted deletes (the block cache, whose write-once keys only a
// delete can change) — and a lookup hits only when the caller's stamp
// equals the entry's; a mismatched entry is evicted on sight and the
// lookup counts as a miss. Owners read their stamp BEFORE the read
// whose result they Put, so a mutation racing that read has already
// moved the stamp on and the entry dies on its first lookup: the failure
// mode is over-invalidation, never a stale answer.
//
// Values are stored and returned as given; an owner that hands out
// slices clones them on the way in and out. The mutex is a leaf lock:
// nothing else is acquired, and no caller code runs, while it is held.
type LRU[S comparable, V any] struct {
	// cost charges an entry against the budget; nil charges 1 per entry.
	// It is called without the lock held.
	cost func(key string, v V) int64

	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*lruEntry[S, V]
	// root is the sentinel of a circular list: root.next is the most
	// recently used entry, root.prev the least.
	root         lruEntry[S, V]
	hits, misses int64
}

type lruEntry[S comparable, V any] struct {
	key        string
	stamp      S
	val        V
	cost       int64
	prev, next *lruEntry[S, V]
}

// LRUStats is a point-in-time snapshot of an LRU's counters. Used is
// the budget charged by the Entries resident.
type LRUStats struct {
	Hits, Misses, Used, Entries int64
}

// NewLRU returns an empty cache holding at most budget worth of cost;
// a budget <= 0 retains nothing, so every Get misses.
func NewLRU[S comparable, V any](budget int64, cost func(key string, v V) int64) *LRU[S, V] {
	c := &LRU[S, V]{cost: cost}
	c.Reset(budget)
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
// replacing any entry under key, then evicts from the least recent end
// until the budget holds. A value costing more than the whole budget is
// not retained (and does not flush the others to make room).
func (c *LRU[S, V]) Put(key string, stamp S, v V) {
	n := int64(1)
	if c.cost != nil {
		n = c.cost(key, v)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.removeLocked(old)
	}
	if c.budget <= 0 || n > c.budget {
		return
	}
	e := &lruEntry[S, V]{key: key, stamp: stamp, val: v, cost: n}
	c.entries[key] = e
	c.pushFrontLocked(e)
	c.used += n
	for c.used > c.budget {
		c.removeLocked(c.root.prev)
	}
}

// Reset empties the cache, zeroes its counters and sets a new budget,
// in place: a concurrent Get or Put lands wholly before or after it.
func (c *LRU[S, V]) Reset(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget, c.used, c.hits, c.misses = budget, 0, 0, 0
	c.entries = make(map[string]*lruEntry[S, V])
	c.root.prev, c.root.next = &c.root, &c.root
}

// Stats returns a snapshot of the counters.
func (c *LRU[S, V]) Stats() LRUStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return LRUStats{Hits: c.hits, Misses: c.misses, Used: c.used, Entries: int64(len(c.entries))}
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
	c.used -= e.cost
}
