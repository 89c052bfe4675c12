package store

// The record block cache is a byte-bounded kv.LRU of raw record
// encodings, shared by every consumer that reads through
// Store.GetRecord/Store.GetBatch — one query warming a record serves
// the next query's (or the planner's candidate-fetch) read of the same
// record from memory.
//
// Invalidation contract: every entry is stamped with the store
// generation observed BEFORE the backend read that produced it, and a
// lookup only hits when the caller's pre-read generation matches the
// stamp. The generation bumps on every accepted record and every
// attempted delete, so a mutation can at worst invalidate entries too
// eagerly — a stale value can never be served. Compaction rewrites
// bytes without changing contents and deliberately does not bump.

// DefaultBlockCacheBytes bounds the cache when SetBlockCacheBytes has
// not been called: 32 MiB holds the hot working set of a multi-session
// query mix without mattering next to the page cache.
const DefaultBlockCacheBytes = 32 << 20

// blockCacheMaxEntry keeps one oversized value from flushing the whole
// cache: values larger than budget/8 bypass it.
const blockCacheMaxEntry = 8

// blockCost charges an entry its key and value bytes plus 96 for its
// bookkeeping (map slot, list node, headers).
func blockCost(key string, val []byte) int64 { return int64(len(key)+len(val)) + 96 }

// cacheBlock offers a value read under gen to the block cache.
func (s *Store) cacheBlock(key string, gen uint64, val []byte) {
	if int64(len(val)) <= s.bcBudget.Load()/blockCacheMaxEntry {
		s.bc.Put(key, gen, val)
	}
}
