// Package store implements the Provenance Store Interface of PReServ's
// layered design (paper Figure 3): a uniform API that plug-ins call,
// with interchangeable backends — in-memory, file system, and an
// embedded database (internal/kvdb, the Berkeley DB stand-in). "This
// abstraction makes it easy to integrate new backend stores without
// having to change already developed PlugIns."
package store

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/index"
	"preserv/internal/kv"
	"preserv/internal/kvdb"
	"preserv/internal/obs"
	"preserv/internal/prep"
)

// ErrDuplicate is returned when a record's storage key already exists
// with different content; recording the identical record twice is
// accepted idempotently.
var ErrDuplicate = errors.New("store: duplicate record key")

// ErrCorrupt is returned when a backend's own bookkeeping points at
// bytes it does not hold, such as a live key whose segment is gone. It
// is never reported as an absent key.
var ErrCorrupt = errors.New("store: corrupt backend state")

// KV is one key/value pair of a batched write (an alias of kv.Pair so
// that internal/index can name the same type without importing store).
type KV = kv.Pair

// Backend persists encoded records under their storage keys.
// Implementations must be safe for concurrent use.
type Backend interface {
	// Put stores a record under key. Keys are write-once: backends may
	// reject overwrites (the Store layer handles idempotency first).
	Put(key string, value []byte) error
	// PutBatch stores several pairs in one backend operation, with the
	// same per-key semantics as Put. Implementations amortise the
	// per-write cost (one lock acquisition, one log append, one packed
	// segment file) and preserve slice order, so a crash durably keeps
	// at most a prefix of the batch.
	PutBatch(kvs []KV) error
	// Get returns the value under key, or (nil, false, nil) if absent.
	Get(key string) (value []byte, ok bool, err error)
	// GetBatch fetches several keys in one backend operation — the read
	// twin of PutBatch. The returned slices align with keys; present[i]
	// is false for absent keys (whose values[i] is nil). Implementations
	// amortise the per-read cost: one lock acquisition for the batch, and
	// on kvdb one offset-ordered pass over the log.
	GetBatch(keys []string) (values [][]byte, present []bool, err error)
	// Delete removes key. Deleting an absent key is a no-op. Persistent
	// backends delete by tombstone (a kvdb log entry, a PSEG1 segment
	// entry); the bytes are reclaimed by Compact.
	Delete(key string) error
	// DeleteBatch removes several keys in one backend operation, with
	// the same per-key semantics as Delete. A crash never applies a
	// deletion the durable state cannot explain: kvdb logs the batch's
	// tombstones as key-batch entries cut in slice order, each whole or
	// lost (a torn tail keeps a prefix of the batch at entry
	// granularity); the file backend publishes all its tombstones in one
	// segment, atomically.
	DeleteBatch(keys []string) error
	// ScanFrom visits every key with the given prefix and >= from (an
	// empty from is unconstrained) in sorted key order, stopping at the
	// first error fn returns — the one scan, and the seek primitive
	// posting iterators resume partially consumed lists with.
	ScanFrom(prefix, from string, fn func(key string, value []byte) error) error
	// Count returns the number of keys with the given prefix.
	Count(prefix string) (int, error)
	// Close releases resources.
	Close() error
	// Name identifies the backend flavour ("memory", "file", "kvdb").
	Name() string
}

// recordStripes is how many lock stripes guard record commits and
// deletes. Writers to the same key (an idempotent client retry, or two
// asserters racing on one interaction key) serialise on the key's
// stripe, so the Get-then-PutBatch check stays atomic per key.
const recordStripes = 64

// Store is the provenance store: validation, idempotent recording and
// query evaluation over a Backend, with secondary indexes
// (internal/index) maintained write-through on Record.
//
// Concurrency: Record calls run in parallel. Validation and encoding
// happen outside any lock; a call's commit (the per-key
// exists/identical/conflict checks plus ONE PutBatch of its new records)
// holds the lock stripes of its keys, taken in ascending order; the
// call's posting entries are flushed in one more backend batch at the
// end. The mu mutex only guards the lazily opened index handle. Reads
// (GetBatch, Count, ScanQuery) never take it, so they wait neither behind
// an ingest batch nor behind the first Index call, which may rebuild the
// whole index while holding it.
type Store struct {
	mu sync.RWMutex // provlint:lock-order 20
	b  Backend
	// idx is the secondary index, opened lazily on first use so that New
	// keeps its error-free signature; a store recorded before indexing
	// existed is rebuilt at that point. Open failures are not latched:
	// a transient backend error must not disable the store for good.
	idx *index.Index
	// gen counts content changes; the query engine keys its result cache
	// on it so cached results are invalidated by new records.
	gen atomic.Uint64
	// stripes are the per-key commit locks; seed salts the stripe hash.
	// Ordered below s.mu: deleteChunk holds its stripes across its commit
	// and drops the index handle (s.mu) on de-index failure.
	// provlint:lock-order 10
	stripes [recordStripes]sync.Mutex
	seed    maphash.Seed

	// reg is this store's telemetry registry. Each store owns its own
	// registry (rather than sharing a process-global one) so a router
	// over several local stores can report per-shard numbers. The
	// histogram handles are resolved once here, keeping the map lookup
	// off the write path.
	reg         *obs.Registry
	recordSec   *obs.Histogram
	recordBatch *obs.Histogram
	deleteSec   *obs.Histogram
	deleteBatch *obs.Histogram
	compactSec  *obs.Histogram
	// writeStallSec holds every wait a Record call makes on the backend:
	// one observation for its commit section (stripe lock wait plus the
	// backend gets and the record PutBatch) and one per index flush for
	// the posting PutBatch — the distribution that shows whether background
	// maintenance or readers holding the backend's lock stall writers.
	// compacting counts backend compactions currently running (the
	// store_compaction_in_progress gauge).
	writeStallSec *obs.Histogram
	compacting    atomic.Int64

	// bc is the shared record block cache (see blockcache.go): every
	// GetBatch consumer — queries, the planner's candidate fetches,
	// presence-only total counting — reads through it. Entries
	// are stamped with dels, the count of attempted delete batches,
	// loaded before the backend read: only a delete can change what a
	// key reads as, so accepted records leave the cache warm. bcBudget
	// mirrors its byte budget for cacheBlock's size admission.
	bc       *kv.LRU[uint64, []byte]
	bcBudget atomic.Int64
	dels     atomic.Uint64
}

// New wraps a backend in a Store.
func New(b Backend) *Store {
	s := &Store{b: b, seed: maphash.MakeSeed(), reg: obs.NewRegistry(), bc: kv.NewLRU[uint64](DefaultBlockCacheBytes, blockCost)}
	s.bcBudget.Store(DefaultBlockCacheBytes)
	s.recordSec = s.reg.Histogram("store_record_seconds", nil)
	s.recordBatch = s.reg.Histogram("store_record_batch_size", obs.SizeBuckets)
	s.deleteSec = s.reg.Histogram("store_delete_seconds", nil)
	s.deleteBatch = s.reg.Histogram("store_delete_batch_size", obs.SizeBuckets)
	s.compactSec = s.reg.Histogram("store_compact_seconds", nil)
	s.writeStallSec = s.reg.Histogram("store_write_stall_seconds", nil)
	s.reg.GaugeFunc("store_compaction_in_progress", func() float64 { return float64(s.compacting.Load()) })
	s.reg.GaugeFunc("store_garbage_ratio", s.GarbageRatio)
	s.reg.GaugeFunc("store_tombstones", func() float64 { return float64(s.Tombstones()) })
	s.reg.GaugeFunc("store_blockcache_resident_bytes", func() float64 { return float64(s.bc.Stats().Used) })
	s.reg.GaugeFunc("store_blockcache_entries", func() float64 { return float64(s.bc.Stats().Entries) })
	s.reg.GaugeFunc("store_blockcache_hit_ratio", func() float64 {
		st := s.bc.Stats()
		if st.Hits+st.Misses == 0 {
			return 0
		}
		return float64(st.Hits) / float64(st.Hits+st.Misses)
	})
	if mb, ok := b.(interface{ MappedBytes() int64 }); ok {
		s.reg.GaugeFunc("store_mapped_bytes", func() float64 { return float64(mb.MappedBytes()) })
	}
	return s
}

// SetBlockCacheBytes empties the record block cache, resets its
// counters and sets its byte budget; with n <= 0 every lookup misses.
func (s *Store) SetBlockCacheBytes(n int64) {
	s.bcBudget.Store(n)
	s.bc.Reset(n)
}

// ReadCacheStats is a snapshot of the read-path cache counters: the
// record block cache.
type ReadCacheStats struct {
	// Bloom*: never set, read only by the frozen benchmark/; the benchmark-only PR that drops store.bloom_skip_ratio deletes them.
	BloomSkips          int64
	BloomFalsePositives int64
	BloomHits           int64
	BlockCacheHits      int64
	BlockCacheMisses    int64
	BlockCacheBytes     int64
	BlockCacheEntries   int64
}

// ReadCacheStats reports the read-path cache counters.
func (s *Store) ReadCacheStats() ReadCacheStats {
	st := s.bc.Stats()
	return ReadCacheStats{
		BlockCacheHits:    st.Hits,
		BlockCacheMisses:  st.Misses,
		BlockCacheBytes:   st.Used,
		BlockCacheEntries: st.Entries,
	}
}

// WritePathStats is a snapshot of write-path health: how many backend
// compactions are running right now, and the commit-stall distribution
// (per-call commit sections and index flushes) summarised as
// count, total seconds and p99.
type WritePathStats struct {
	CompactionsInProgress int64
	StallCount            int64
	StallSeconds          float64
	StallP99              float64
}

// WritePathStats reports the write-path health counters.
func (s *Store) WritePathStats() WritePathStats {
	snap := s.writeStallSec.Snapshot()
	return WritePathStats{
		CompactionsInProgress: s.compacting.Load(),
		StallCount:            snap.Count,
		StallSeconds:          snap.Sum,
		StallP99:              snap.Quantile(0.99),
	}
}

// Obs returns the store's telemetry registry. The query engine records
// its plan histograms and slow spans here too, so one registry holds a
// shard's complete read+write telemetry.
func (s *Store) Obs() *obs.Registry { return s.reg }

// stripeSet marks the commit lock stripes one multi-key commit holds.
type stripeSet [recordStripes]bool

// lockStripes takes the stripes of the n keys key(0)..key(n-1) in
// ascending stripe order — the one acquisition order of every multi-key
// commit (Record's batch, deleteChunk's chunk), so concurrent commits
// over overlapping key sets cannot deadlock — and returns the set for
// unlockStripes.
func (s *Store) lockStripes(n int, key func(i int) string) (set stripeSet) {
	for i := 0; i < n; i++ {
		set[maphash.String(s.seed, key(i))%recordStripes] = true
	}
	for i, held := range set {
		if held {
			s.stripes[i].Lock()
		}
	}
	return set
}

// unlockStripes releases the stripes lockStripes took.
func (s *Store) unlockStripes(set *stripeSet) {
	for i, held := range set {
		if held {
			s.stripes[i].Unlock()
		}
	}
}

// BackendName reports which backend the store runs on.
func (s *Store) BackendName() string { return s.b.Name() }

// Close closes the underlying backend.
func (s *Store) Close() error { return s.b.Close() }

// Generation returns the store's content generation: it changes whenever
// a record is accepted, so equal generations imply equal query results.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// ensureIndexLocked opens (rebuilding if necessary) the secondary index.
// Callers must hold s.mu. Only success is cached — a failed Open is
// retried on the next call.
//
// provlint:requires mu
func (s *Store) ensureIndexLocked() (*index.Index, error) {
	if s.idx != nil {
		return s.idx, nil
	}
	idx, err := index.Open(s.b)
	if err != nil {
		return nil, err
	}
	s.idx = idx
	return idx, nil
}

// Index returns the store's secondary index, opening it (and rebuilding
// it from a scan, for stores recorded before indexing existed) on first
// call.
func (s *Store) Index() (*index.Index, error) {
	s.mu.RLock()
	idx := s.idx
	s.mu.RUnlock()
	if idx != nil {
		return idx, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ensureIndexLocked()
}

// dropIndex discards the cached index handle after a failed posting
// write, forcing the next use through index.Open's deficit check (which
// detects the missing postings and rebuilds).
func (s *Store) dropIndex() {
	s.mu.Lock()
	s.idx = nil
	s.mu.Unlock()
}

// GetBatch fetches several records' raw encodings in one backend batch —
// the bulk lookup the streaming read path resolves candidate chunks
// with. The result aligns with keys; present[i] is false for keys with
// no stored record (a dangling posting reads as absent, not as an
// error). Values are returned undecoded so callers that only need
// existence (total counting past a query's Limit) skip the decode.
func (s *Store) GetBatch(keys []string) (values [][]byte, present []bool, err error) {
	// The delete stamp is loaded BEFORE the backend read: a delete that
	// races the read has already bumped past it, so the entries this read
	// caches die on their first lookup — stale values cannot be served,
	// only invalidated too eagerly.
	stamp := s.dels.Load()
	values = make([][]byte, len(keys))
	present = make([]bool, len(keys))
	var missKeys []string
	var missIdx []int
	for i, k := range keys {
		if v, ok := s.bc.Get(k, stamp); ok {
			values[i] = v
			present[i] = true
		} else {
			missKeys = append(missKeys, k)
			missIdx = append(missIdx, i)
		}
	}
	if len(missKeys) == 0 {
		return values, present, nil
	}
	mv, mp, err := s.b.GetBatch(missKeys)
	if err != nil {
		return nil, nil, err
	}
	for j, i := range missIdx {
		if mp[j] {
			values[i] = mv[j]
			present[i] = true
			s.cacheBlock(missKeys[j], stamp, mv[j])
		}
	}
	return values, present, nil
}

// Record validates and stores a batch of p-assertions asserted by
// asserter. It returns the number accepted and a reject entry for each
// refused record. Storage is idempotent: re-recording an identical
// record is counted as accepted.
//
// Concurrent Record calls proceed in parallel: validation and encoding
// run lock-free, commits serialise only on shared key stripes, and the
// call's new records and its posting entries ship to the backend as one
// batch each.
func (s *Store) Record(asserter core.ActorID, records []core.Record) (int, []prep.Reject, error) {
	span := s.reg.Tracer().StartSpan("store.record").
		SetAttr("batch", fmt.Sprint(len(records)))
	accepted, rejects, err := s.record(asserter, records)
	s.recordBatch.Observe(float64(len(records)))
	span.Observe(s.recordSec, err)
	return accepted, rejects, err
}

func (s *Store) record(asserter core.ActorID, records []core.Record) (int, []prep.Reject, error) {
	if asserter == "" {
		return 0, nil, fmt.Errorf("store: empty asserter")
	}
	// Phase 1 — validate and encode outside any lock.
	type staged struct {
		i       int
		r       *core.Record
		key     string
		encoded []byte
	}
	var rejects []prep.Reject
	batch := make([]staged, 0, len(records))
	for i := range records {
		r := &records[i]
		if err := r.Validate(); err != nil {
			rejects = append(rejects, prep.Reject{Index: i, Reason: err.Error()})
			continue
		}
		if r.Asserter() != asserter {
			rejects = append(rejects, prep.Reject{
				Index:  i,
				Reason: fmt.Sprintf("record asserted by %q but submitted by %q", r.Asserter(), asserter),
			})
			continue
		}
		encoded, err := core.EncodeRecord(r)
		if err != nil {
			rejects = append(rejects, prep.Reject{Index: i, Reason: err.Error()})
			continue
		}
		batch = append(batch, staged{i: i, r: r, key: r.StorageKey(), encoded: encoded})
	}

	idx, err := s.Index()
	if err != nil {
		return 0, nil, fmt.Errorf("store: opening index: %w", err)
	}
	if len(batch) == 0 {
		return 0, rejects, nil
	}

	// touched says whether anything was committed or repaired: the
	// generation must then advance, even if the call errors out part-way
	// — a missed bump would let the query engine's cache serve stale
	// results as fresh. Idempotent re-records count too: their posting
	// re-puts may have just repaired an index deficit that cached results
	// were computed against.
	touched := false
	defer func() {
		if touched {
			s.gen.Add(1)
		}
	}()

	// Phase 2 — commit under the stripes of every key in the call, taken
	// in ascending order, so the exists/identical/conflict decision is
	// atomic per key while calls on disjoint stripes commit in parallel.
	// Every new record goes to the backend in ONE PutBatch. The commit
	// section — stripe wait, gets and put — is one observation of the
	// write-stall histogram: its tail is where a writer-blocking
	// compaction or a contended stripe shows up.
	stall := time.Now()
	stripes := s.lockStripes(len(batch), func(i int) string { return batch[i].key })
	puts := make([]KV, 0, len(batch))
	// toIndex holds the call's accepted records, new and re-recorded;
	// their postings flush in one backend batch.
	toIndex := make([]*core.Record, 0, len(batch))
	accepted := 0
	// pending maps each key this call is about to put to its entry in
	// puts, so a key the call repeats is decided against the call's own
	// batch: identical bytes are accepted again, different bytes
	// rejected. Only calls of several records need it.
	var pending map[string]int
	if len(batch) > 1 {
		pending = make(map[string]int, len(batch))
	}
	repeats := 0
	for _, st := range batch {
		if j, ok := pending[st.key]; ok {
			if string(puts[j].Value) == string(st.encoded) {
				repeats++
			} else {
				rejects = append(rejects, prep.Reject{Index: st.i, Reason: fmt.Sprintf("%v: %s", ErrDuplicate, st.key)})
			}
			continue
		}
		existing, ok, err := s.b.Get(st.key)
		if err != nil {
			s.unlockStripes(&stripes)
			s.writeStallSec.Observe(time.Since(stall).Seconds())
			sortRejects(rejects)
			return accepted, rejects, fmt.Errorf("store: checking %s: %w", st.key, err)
		}
		if !ok {
			if pending != nil {
				pending[st.key] = len(puts)
			}
			puts = append(puts, KV{Key: st.key, Value: st.encoded})
			toIndex = append(toIndex, st.r)
			continue
		}
		if sameRecordBytes(existing, st.encoded) {
			// Idempotent re-record. Re-put the postings too: if a previous
			// attempt committed the record but failed before (or during)
			// indexing, the client's retry lands here and must repair the
			// deficit, not skip past it.
			toIndex = append(toIndex, st.r)
			accepted++
			continue
		}
		rejects = append(rejects, prep.Reject{Index: st.i, Reason: fmt.Sprintf("%v: %s", ErrDuplicate, st.key)})
	}
	var putErr error
	if len(puts) > 0 {
		putErr = s.b.PutBatch(puts)
	}
	s.unlockStripes(&stripes)
	s.writeStallSec.Observe(time.Since(stall).Seconds())
	sortRejects(rejects)
	if putErr != nil {
		// A failed batch may have left a durable prefix, so the generation
		// still advances. The index flush is skipped: the call committed
		// nothing else, and the client's retry re-records the prefix and
		// repairs its postings.
		touched = true
		return accepted, rejects, fmt.Errorf("store: putting %d records: %w", len(puts), putErr)
	}
	accepted += len(puts) + repeats
	if len(toIndex) == 0 {
		return accepted, rejects, nil
	}
	touched = true

	// Phase 3 — one batched index flush for the whole call. A failure
	// drops the cached index handle, so the next use re-runs index.Open's
	// deficit check and rebuilds — the planner never keeps serving an
	// index that is missing a committed record. (A crash is repaired the
	// same way at the next Open, or by a client retry of the batch.)
	stall = time.Now()
	err = idx.AddBatch(toIndex)
	s.writeStallSec.Observe(time.Since(stall).Seconds())
	if err != nil {
		s.dropIndex()
		return accepted, rejects, fmt.Errorf("store: indexing batch: %w", err)
	}
	return accepted, rejects, nil
}

// deleteChunkSize bounds how many records one DeleteSession backend
// batch covers: stripe locks are held across the chunk's Get+Delete, so
// the bound caps both lock hold time and peak decoded-record memory.
const deleteChunkSize = 256

// DeleteSession removes every record grouped under the given session —
// the retraction primitive that keeps a long-lived store from growing
// without bound. It returns how many records were deleted. Each chunk
// of records is deleted in one backend batch (one tombstone segment /
// one contiguous log append), and all the call's posting removals flush
// through one RemoveBatch per chunk.
func (s *Store) DeleteSession(session ids.ID) (int, error) {
	span := s.reg.Tracer().StartSpan("store.delete").SetAttr("kind", "session")
	deleted, err := s.deleteSession(session)
	s.deleteBatch.Observe(float64(deleted))
	span.SetAttr("deleted", fmt.Sprint(deleted)).Observe(s.deleteSec, err)
	return deleted, err
}

func (s *Store) deleteSession(session ids.ID) (int, error) {
	if !session.Valid() {
		return 0, fmt.Errorf("store: invalid session id")
	}
	idx, err := s.Index()
	if err != nil {
		return 0, fmt.Errorf("store: opening index: %w", err)
	}
	keys, err := idx.Postings(index.DimSession, session.String())
	if err != nil {
		return 0, fmt.Errorf("store: listing session %s: %w", session, err)
	}
	deleted, err := s.deleteKeys(idx, keys)
	if err != nil {
		return deleted, fmt.Errorf("store: deleting session %s: %w", session, err)
	}
	return deleted, nil
}

// DeleteRecords removes the records stored under the given storage keys
// (absent keys are no-ops), together with their posting entries. It
// runs the same chunked delete commit protocol as DeleteSession and
// returns how many records were actually deleted. The store's content
// generation advances, so every cached query result computed before the
// deletion is invalidated — a cached page can never resurrect a deleted
// record.
func (s *Store) DeleteRecords(keys []string) (int, error) {
	span := s.reg.Tracer().StartSpan("store.delete").
		SetAttr("kind", "records").SetAttr("batch", fmt.Sprint(len(keys)))
	deleted, err := s.deleteRecords(keys)
	s.deleteBatch.Observe(float64(len(keys)))
	span.Observe(s.deleteSec, err)
	return deleted, err
}

func (s *Store) deleteRecords(keys []string) (int, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	seen := make(map[string]bool, len(keys))
	uniq := keys[:0:0]
	for _, k := range keys {
		if k == "" {
			return 0, fmt.Errorf("store: empty key in delete batch")
		}
		// A repeated key must delete (and count, and tombstone) once —
		// keys arrive from the wire here, not only from unique index
		// postings.
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, k)
		}
	}
	keys = uniq
	idx, err := s.Index()
	if err != nil {
		return 0, fmt.Errorf("store: opening index: %w", err)
	}
	deleted, err := s.deleteKeys(idx, keys)
	if err != nil {
		return deleted, fmt.Errorf("store: deleting %d records: %w", len(keys), err)
	}
	return deleted, nil
}

// deleteKeys runs the chunked delete commit protocol over an arbitrary
// key list (DeleteSession's posting listing and DeleteRecords' explicit
// batch both land here).
func (s *Store) deleteKeys(idx *index.Index, keys []string) (int, error) {
	deleted := 0
	// attempted tracks whether any backend delete batch was issued at
	// all: an errored batch may still have durably removed records (a
	// failed kvdb append can leave a prefix of its tombstones), so the
	// generation must advance — a cached result from before the call can
	// never be served as current once anything might have changed.
	attempted := false
	defer func() {
		if attempted {
			s.gen.Add(1)
		}
	}()
	for len(keys) > 0 {
		n := len(keys)
		if n > deleteChunkSize {
			n = deleteChunkSize
		}
		chunk := keys[:n]
		keys = keys[n:]
		doomed, tried, err := s.deleteChunk(idx, chunk)
		attempted = attempted || tried
		deleted += doomed
		if err != nil {
			return deleted, err
		}
	}
	return deleted, nil
}

// deleteChunk is the delete commit protocol (DeleteRecords' and
// DeleteSession's chunks both run through it): remove one chunk of
// records in a single backend batch, then flush their posting
// removals, all while holding every involved stripe lock (taken by
// lockStripes in ascending stripe order, as Record's commit takes its
// own, so concurrent multi-key writers and deleters cannot deadlock —
// and unlike the file backend's *Locked helpers, this function takes
// its own locks).
// Keeping the posting removal inside the locks stops a concurrent
// idempotent re-Record from interleaving its fresh postings between
// the record deletes and the de-indexing. Crash ordering mirrors
// Record in reverse — records first, postings second, each kind
// posting last — so a crash in between leaves a kind-posting surplus
// the index's Open-time consistency check detects and Rebuild's
// dangling-posting GC repairs; until then queries skip the dangling
// postings at fetch time.
//
// provlint:no-genbump the generation bump lives in its caller
// (deleteKeys bumps when any batch was attempted), because a chunk
// that errors may still have removed records and the bump must cover
// that case too. The block cache's
// delete stamp is bumped here, under the stripes.
//
// A record whose stored bytes no longer decode is deleted anyway —
// retraction must work on a store with one torn value, the same policy
// Rebuild applies by skipping it — with no posting removal (the
// posting set is not computable); whatever stale postings it had go
// dangling and are collected by the next rebuild. It returns how many
// keys were deleted and whether any backend mutation was attempted
// (possibly partially applied, on error).
func (s *Store) deleteChunk(idx *index.Index, chunk []string) (deleted int, attempted bool, err error) {
	stripes := s.lockStripes(len(chunk), func(i int) string { return chunk[i] })
	defer s.unlockStripes(&stripes)
	values, present, err := s.b.GetBatch(chunk)
	if err != nil {
		return 0, false, fmt.Errorf("fetching delete chunk: %w", err)
	}
	records := make([]*core.Record, 0, len(chunk))
	doomed := make([]string, 0, len(chunk))
	for i, k := range chunk {
		if !present[i] {
			continue // dangling posting: nothing to delete
		}
		r, err := core.DecodeRecord(values[i])
		if err != nil {
			// Corrupt value: delete the key, strand its postings for
			// the rebuild GC (see the function comment).
			doomed = append(doomed, k)
			continue
		}
		records = append(records, r)
		doomed = append(doomed, k)
	}
	if len(doomed) == 0 {
		return 0, false, nil
	}
	err = s.b.DeleteBatch(doomed)
	// The block cache's stamp moves while the stripes are still held:
	// a re-record of a doomed key (with different bytes) must wait for
	// the stripe, so no read can find the old bytes under the new stamp.
	s.dels.Add(1)
	if err != nil {
		return 0, true, fmt.Errorf("deleting chunk: %w", err)
	}
	if err := idx.RemoveBatch(records); err != nil {
		s.dropIndex()
		return len(doomed), true, fmt.Errorf("de-indexing chunk: %w", err)
	}
	return len(doomed), true, nil
}

// Compacter is implemented by backends that can reclaim dead bytes
// (superseded values, tombstones) — the file and kvdb backends; the
// memory backend has no garbage to reclaim.
type Compacter interface {
	Compact() error
}

// GarbageReporter is implemented by backends that can estimate how much
// of their on-disk footprint is dead.
type GarbageReporter interface {
	// GarbageRatio is dead bytes over total bytes, in [0, 1].
	GarbageRatio() float64
}

// TombstoneReporter is implemented by backends that count unreclaimed
// deletion markers.
type TombstoneReporter interface {
	Tombstones() int64
}

// compactingBackend is a Backend with every optional interface Store
// probes for. The persistent backends are pinned to it: a rename that
// dropped one would otherwise read as zero garbage and a compaction that
// never runs, with nothing failing.
type compactingBackend interface {
	Backend
	Compacter
	GarbageReporter
	TombstoneReporter
}

var (
	_ compactingBackend = (*kvdb.DB)(nil)
	_ compactingBackend = (*FileBackend)(nil)
)

// NewKVBackend opens (creating if necessary) a kvdb-backed store in dir:
// the embedded database is the backend itself, the counterpart of
// PReServ's Berkeley DB backend, which the paper uses for all of its
// evaluations.
func NewKVBackend(dir string) (*kvdb.DB, error) {
	db, err := kvdb.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("store: opening kvdb backend: %w", err)
	}
	return db, nil
}

// BloomStatser has no implementer and is named only by the frozen benchmark/; the benchmark-only PR that drops store.bloom_skip_ratio deletes it.
type BloomStatser interface {
	BloomStats() (skips, falsePositives, hits int64)
}

// Compact reclaims dead bytes in the underlying backend, if it supports
// compaction; otherwise it is a no-op. Compaction changes no logical
// content — the generation does not advance, and cached query results
// stay valid.
func (s *Store) Compact() error {
	c, ok := s.b.(Compacter)
	if !ok {
		return nil
	}
	span := s.reg.Tracer().StartSpan("store.compact")
	s.compacting.Add(1)
	err := c.Compact()
	s.compacting.Add(-1)
	span.Observe(s.compactSec, err)
	return err
}

// GarbageRatio reports the backend's dead-byte fraction (zero for
// backends without garbage) — the signal online compaction schedules on.
func (s *Store) GarbageRatio() float64 {
	if g, ok := s.b.(GarbageReporter); ok {
		return g.GarbageRatio()
	}
	return 0
}

// Tombstones reports the backend's count of unreclaimed deletion
// markers (zero for backends without tombstones).
func (s *Store) Tombstones() int64 {
	if t, ok := s.b.(TombstoneReporter); ok {
		return t.Tombstones()
	}
	return 0
}

// sortRejects restores submission order: validation rejects are staged
// before commit-time conflicts, so without the sort a conflict on an
// early record would trail a validation failure on a later one.
func sortRejects(rejects []prep.Reject) {
	sort.Slice(rejects, func(i, j int) bool { return rejects[i].Index < rejects[j].Index })
}

// sameRecordBytes reports whether an existing stored blob holds the same
// record as a freshly encoded one. Byte equality is the fast path; on
// mismatch the existing blob is decoded and canonically re-encoded, so a
// record stored in the legacy gob format is still recognised as an
// idempotent re-record rather than flagged as a duplicate conflict.
func sameRecordBytes(existing, encoded []byte) bool {
	if string(existing) == string(encoded) {
		return true
	}
	r, err := core.DecodeRecord(existing)
	if err != nil {
		return false
	}
	re, err := core.EncodeRecord(r)
	if err != nil {
		return false
	}
	return string(re) == string(encoded)
}

// Query evaluates q and returns matching records (up to q.Limit) plus
// the total number of matches. Interaction-scoped queries use the key
// structure to avoid full scans; everything else scans linearly, which
// is the behaviour whose cost the paper's Figure 5 characterises.
func (s *Store) Query(q *prep.Query) ([]core.Record, int, error) {
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	var out []core.Record
	total := 0
	err := s.ScanQuery(q, "", func(_ string, r *core.Record) (bool, error) {
		total++
		if q.Limit == 0 || len(out) < q.Limit {
			out = append(out, *r)
		}
		return false, nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, total, nil
}

// errStopScan terminates a ScanQuery sweep once the visitor asks to stop.
var errStopScan = errors.New("store: stop scan")

// ScanQuery visits every record matching q in storage-key order,
// starting strictly after the `after` cursor (empty visits from the
// beginning), calling fn with the storage key and decoded record. fn
// returning stop=true ends the sweep early — the primitive cursor-paged
// reads resume on. Limit is ignored here; callers own truncation.
func (s *Store) ScanQuery(q *prep.Query, after string, fn func(key string, r *core.Record) (stop bool, err error)) error {
	if err := q.Validate(); err != nil {
		return err
	}
	prefixes := []string{"i/", "s/"}
	if q.Kind == core.KindInteraction.String() {
		prefixes = []string{"i/"}
	} else if q.Kind == core.KindActorState.String() {
		prefixes = []string{"s/"}
	}
	if q.InteractionID.Valid() {
		for i, p := range prefixes {
			prefixes[i] = p + q.InteractionID.String() + "/"
		}
	}

	// after+"\x00" is the immediate successor string: every key k with
	// k > after satisfies k >= after+"\x00", so the backend seek skips
	// exactly the keys a previous page already delivered.
	from := ""
	if after != "" {
		from = after + "\x00"
	}
	for _, prefix := range prefixes {
		err := s.b.ScanFrom(prefix, from, func(key string, value []byte) error {
			r, err := core.DecodeRecord(value)
			if err != nil {
				return fmt.Errorf("store: corrupt record at %s: %w", key, err)
			}
			if !q.Matches(r) {
				return nil
			}
			stop, err := fn(key, r)
			if err != nil {
				return err
			}
			if stop {
				return errStopScan
			}
			return nil
		})
		if err == errStopScan {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Count reports store statistics.
func (s *Store) Count() (prep.CountResponse, error) {
	ni, err := s.b.Count("i/")
	if err != nil {
		return prep.CountResponse{}, err
	}
	ns, err := s.b.Count("s/")
	if err != nil {
		return prep.CountResponse{}, err
	}
	return prep.CountResponse{
		Records:      ni + ns,
		Interactions: ni,
		ActorStates:  ns,
	}, nil
}
