package store

// The record block cache is a byte-bounded kv.LRU of raw record
// encodings, shared by every consumer that reads through
// Store.GetBatch — one query warming a record serves
// the next query's (or the planner's candidate-fetch) read of the same
// record from memory.
//
// Invalidation contract: every entry is stamped with the store's count
// of attempted delete batches (Store.dels) observed BEFORE the backend
// read that produced it, and a lookup only hits when the caller's
// pre-read count matches the stamp. Deletes are the only mutation that
// can change what a present key reads as: keys are write-once, Record
// rejects different bytes under an existing key, and absent keys are
// never cached. So accepted records leave every entry live, while a
// delete batch bumps the count under its stripe locks — before any
// re-record of a doomed key can commit — and at worst invalidates too
// eagerly; a stale value can never be served. Compaction rewrites bytes
// without changing contents and deliberately does not bump. The store
// generation stays the stamp of the two result caches.

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

// cacheBlock offers a value read under the delete stamp to the block
// cache.
func (s *Store) cacheBlock(key string, stamp uint64, val []byte) {
	if int64(len(val)) <= s.bcBudget.Load()/blockCacheMaxEntry {
		s.bc.Put(key, stamp, val)
	}
}
