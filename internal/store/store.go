// Package store implements the Provenance Store Interface of PReServ's
// layered design (paper Figure 3): a uniform API that plug-ins call,
// with interchangeable backends — in-memory and an embedded database
// (internal/kvdb, the Berkeley DB stand-in), which the file-system
// flavour opens too. "This abstraction makes it easy to integrate new
// backend stores without having to change already developed PlugIns."
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

// KV is one key/value pair of a batched write (an alias of kv.Pair so
// that internal/index can name the same type without importing store).
type KV = kv.Pair

// Backend persists encoded records, and the index postings that make
// them findable, under their storage keys. Implementations must be safe
// for concurrent use. A batch (PutBatch, DeleteBatch) is one commit: it
// is applied whole or not at all, to readers and across a crash, which
// is what lets a Store call write a record and its postings together.
type Backend interface {
	// Put stores value under key, replacing any value there. It is the
	// one-pair form of PutBatch.
	Put(key string, value []byte) error
	// PutBatch stores several pairs in one backend operation, with the
	// same per-key semantics as Put, applied whole or not at all.
	// Implementations amortise the per-write cost (one lock acquisition,
	// one log append); a duplicate key resolves to its last value.
	PutBatch(kvs []KV) error
	// Get returns the value under key, or (nil, false, nil) if absent.
	Get(key string) (value []byte, ok bool, err error)
	// GetBatch fetches several keys in one backend operation — the read
	// twin of PutBatch. The returned slices align with keys; present[i]
	// is false for absent keys (whose values[i] is nil). Implementations
	// amortise the per-read cost: one lock acquisition for the batch, and
	// on kvdb one ReadAt per run of nearby values. Values may share a
	// backing array: callers treat them as read-only and copy what they
	// keep, as core.DecodeRecord does.
	GetBatch(keys []string) (values [][]byte, present []bool, err error)
	// Delete removes key. Deleting an absent key is a no-op. The
	// persistent backend deletes by tombstone, a kvdb log entry; the
	// bytes are reclaimed by Compact.
	Delete(key string) error
	// DeleteBatch removes several keys in one backend operation, with
	// the same per-key semantics as Delete, applied whole or not at all:
	// kvdb logs the batch's tombstones in entries that a crash keeps
	// together or loses together.
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
// Every write a Store call makes is one backend batch: Record's new
// records with their postings, a delete chunk's records with theirs. A
// crash keeps the batch whole or loses it whole, so the index never needs
// repair.
//
// Concurrency: Record calls run in parallel. Validation, encoding and
// posting keys happen outside any lock; a call's commit (the per-key
// exists/identical/conflict checks plus ONE PutBatch of its new records
// and their postings) holds the lock stripes of its keys, taken in
// ascending order. The mu mutex only guards the lazily opened index
// handle. Reads (GetBatch, Count, ScanQuery) never take it, so they wait
// neither behind an ingest batch nor behind the first Index call, which
// may rebuild the whole index while holding it.
type Store struct {
	mu sync.RWMutex // provlint:lock-order 20
	b  Backend
	// idx is the secondary index, opened lazily on first use so that New
	// keeps its error-free signature; a store from before the index's
	// current schema is rebuilt at that point. Open failures are not latched:
	// a transient backend error must not disable the store for good.
	idx *index.Index
	// gen counts content changes; the shard router stamps its result
	// cache with it so cached results are invalidated by new records.
	gen atomic.Uint64
	// stripes are the per-key commit locks; seed salts the stripe hash.
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
	// writeStallSec holds one observation per Record call: its commit
	// section (stripe lock wait, the backend gets and the one PutBatch) —
	// the distribution that shows whether background maintenance or
	// readers holding the backend's lock stall writers.
	// compacting counts backend compactions currently running (the
	// store_compaction_in_progress gauge).
	writeStallSec *obs.Histogram
	compacting    atomic.Int64
}

// New wraps a backend in a Store.
func New(b Backend) *Store {
	s := &Store{b: b, seed: maphash.MakeSeed(), reg: obs.NewRegistry()}
	s.recordSec = s.reg.Histogram("store_record_seconds", nil)
	s.recordBatch = s.reg.Histogram("store_record_batch_size", obs.SizeBuckets)
	s.deleteSec = s.reg.Histogram("store_delete_seconds", nil)
	s.deleteBatch = s.reg.Histogram("store_delete_batch_size", obs.SizeBuckets)
	s.compactSec = s.reg.Histogram("store_compact_seconds", nil)
	s.writeStallSec = s.reg.Histogram("store_write_stall_seconds", nil)
	s.reg.GaugeFunc("store_compaction_in_progress", func() float64 { return float64(s.compacting.Load()) })
	s.reg.GaugeFunc("store_garbage_ratio", s.GarbageRatio)
	s.reg.GaugeFunc("store_tombstones", func() float64 { return float64(s.Tombstones()) })
	return s
}

// ReadCacheStats has no source since the store lost its record block cache and keeps only the fields the frozen benchmark/ reads; the benchmark-only PR that drops store.blockcache_hit_ratio (ROADMAP direction 2) deletes it.
type ReadCacheStats struct {
	BloomSkips          int64
	BloomFalsePositives int64
	BloomHits           int64
	BlockCacheHits      int64
	BlockCacheMisses    int64
}

// ReadCacheStats returns zero; it stays for the frozen benchmark/ until the benchmark-only PR that drops store.blockcache_hit_ratio (ROADMAP direction 2).
func (s *Store) ReadCacheStats() ReadCacheStats { return ReadCacheStats{} }

// WritePathStats reports the write-path health counters.
func (s *Store) WritePathStats() prep.WritePathCounters {
	snap := s.writeStallSec.Snapshot()
	return prep.WritePathCounters{
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
// it from a scan, for stores from before its current schema) on first
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

// GetBatch fetches several records' raw encodings in one backend batch —
// the bulk lookup the streaming read path resolves candidate chunks
// with. The result aligns with keys; present[i] is false for keys with
// no stored record (a dangling posting reads as absent, not as an
// error). Values are returned undecoded so callers that only need
// existence (total counting past a query's Limit) skip the decode, and
// are read-only, as Backend.GetBatch's are.
func (s *Store) GetBatch(keys []string) (values [][]byte, present []bool, err error) {
	return s.b.GetBatch(keys)
}

// Record validates and stores a batch of p-assertions asserted by
// asserter. It returns the number accepted and a reject entry for each
// refused record. Storage is idempotent: re-recording an identical
// record is counted as accepted, and writes nothing.
//
// Concurrent Record calls proceed in parallel: validation, encoding and
// posting keys are built lock-free, commits serialise only on shared key
// stripes, and the call's new records and their postings ship to the
// backend as one batch.
func (s *Store) Record(asserter core.ActorID, records []core.Record) (int, []prep.Reject, error) {
	span := s.reg.Tracer().StartSpan("store.record").
		SetAttr("batch", fmt.Sprint(len(records)))
	accepted, rejects, err := s.record(asserter, records)
	s.recordBatch.Observe(float64(len(records)))
	span.Observe(s.recordSec, err)
	return accepted, rejects, err
}

// postingScratch is what a Record call builds its posting keys in, kept
// between calls in postingScratches.
type postingScratch struct {
	b    index.KeyBuilder
	keys []string
}

var postingScratches = sync.Pool{New: func() any { return new(postingScratch) }}

func (s *Store) record(asserter core.ActorID, records []core.Record) (int, []prep.Reject, error) {
	if asserter == "" {
		return 0, nil, fmt.Errorf("store: empty asserter")
	}
	// Phase 1 — validate, encode and build posting keys outside any lock.
	// A staged record's postings are ps.keys[lo:hi].
	type staged struct {
		i       int
		key     string
		encoded []byte
		lo, hi  int
		fresh   bool // not stored yet: the commit puts it
	}
	ps := postingScratches.Get().(*postingScratch)
	defer func() {
		clear(ps.keys) // release the key strings, keep the slice
		ps.keys = ps.keys[:0]
		postingScratches.Put(ps)
	}()
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
		lo := len(ps.keys)
		ps.keys = ps.b.PostingKeys(ps.keys, r)
		batch = append(batch, staged{i: i, key: r.StorageKey(), encoded: encoded, lo: lo, hi: len(ps.keys)})
	}

	// The index is opened (a store from before the current schema
	// rebuilt) before anything is written beside it.
	if _, err := s.Index(); err != nil {
		return 0, nil, fmt.Errorf("store: opening index: %w", err)
	}
	if len(batch) == 0 {
		return 0, rejects, nil
	}

	// Phase 2 — commit under the stripes of every key in the call, taken
	// in ascending order, so the exists/identical/conflict decision is
	// atomic per key while calls on disjoint stripes commit in parallel.
	// Every new record and its postings go to the backend in ONE
	// PutBatch. The commit section — stripe wait, gets and put — is the
	// call's one observation of the write-stall histogram: its tail is
	// where a writer-blocking compaction or a contended stripe shows up.
	stall := time.Now()
	stripes := s.lockStripes(len(batch), func(i int) string { return batch[i].key })
	accepted, fresh, repeats, size := 0, 0, 0, 0
	// pending maps each key this call is about to put to its staged
	// record, so a key the call repeats is decided against the call's
	// own batch: identical bytes are accepted again, different bytes
	// rejected. Only calls of several records need it.
	var pending map[string]int
	if len(batch) > 1 {
		pending = make(map[string]int, len(batch))
	}
	for j := range batch {
		st := &batch[j]
		if first, ok := pending[st.key]; ok {
			if string(batch[first].encoded) == string(st.encoded) {
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
		switch {
		case !ok:
			if pending != nil {
				pending[st.key] = j
			}
			st.fresh = true
			fresh++
			size += 1 + st.hi - st.lo
		case sameRecordBytes(existing, st.encoded):
			accepted++ // idempotent re-record: its postings are there already
		default:
			rejects = append(rejects, prep.Reject{Index: st.i, Reason: fmt.Sprintf("%v: %s", ErrDuplicate, st.key)})
		}
	}
	var putErr error
	if fresh > 0 {
		puts := make([]KV, 0, size)
		for _, st := range batch {
			if st.fresh {
				puts = append(puts, KV{Key: st.key, Value: st.encoded})
			}
		}
		for _, st := range batch {
			if st.fresh {
				for _, k := range ps.keys[st.lo:st.hi] {
					puts = append(puts, KV{Key: k})
				}
			}
		}
		putErr = s.b.PutBatch(puts)
		// The generation advances once the batch is attempted, failed or
		// not: a cached result must never outlive a write the backend may
		// have applied.
		s.gen.Add(1)
	}
	s.unlockStripes(&stripes)
	s.writeStallSec.Observe(time.Since(stall).Seconds())
	sortRejects(rejects)
	if putErr != nil {
		return accepted, rejects, fmt.Errorf("store: putting %d records: %w", fresh, putErr)
	}
	return accepted + fresh + repeats, rejects, nil
}

// deleteChunkSize bounds how many records one DeleteSession backend
// batch covers: stripe locks are held across the chunk's Get+Delete, so
// the bound caps both lock hold time and peak decoded-record memory.
const deleteChunkSize = 256

// DeleteSession removes every record grouped under the given session —
// the retraction primitive that keeps a long-lived store from growing
// without bound. It returns how many records were deleted. Each chunk
// of records is deleted in one backend batch, together with the
// records' postings.
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
	deleted, err := s.deleteKeys(keys)
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
	if _, err := s.Index(); err != nil {
		return 0, fmt.Errorf("store: opening index: %w", err)
	}
	deleted, err := s.deleteKeys(keys)
	if err != nil {
		return deleted, fmt.Errorf("store: deleting %d records: %w", len(keys), err)
	}
	return deleted, nil
}

// deleteKeys runs the chunked delete commit protocol over an arbitrary
// key list (DeleteSession's posting listing and DeleteRecords' explicit
// batch both land here).
func (s *Store) deleteKeys(keys []string) (int, error) {
	deleted := 0
	// attempted tracks whether any backend delete batch was issued at
	// all: the generation must then advance, even for a batch that
	// errored — a cached result from before the call can never be served
	// as current once anything might have changed.
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
		doomed, tried, err := s.deleteChunk(chunk)
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
// records and their postings in a single backend batch, while holding
// every involved stripe lock (taken by lockStripes in ascending stripe
// order, as Record's commit takes its own, so concurrent multi-key
// writers and deleters cannot deadlock). Holding them stops a concurrent
// Record of the same key from interleaving with the delete.
//
// provlint:no-genbump the generation bump lives in its caller
// (deleteKeys bumps when any batch was attempted), because a chunk
// that errors must still invalidate cached results.
//
// A record whose stored bytes no longer decode is deleted anyway —
// retraction must work on a store with one torn value, the same policy
// Rebuild applies by skipping it — without postings, since they are not
// computable: any it has are skipped at fetch time. It returns how many
// records were deleted and whether any backend mutation was attempted.
func (s *Store) deleteChunk(chunk []string) (deleted int, attempted bool, err error) {
	stripes := s.lockStripes(len(chunk), func(i int) string { return chunk[i] })
	defer s.unlockStripes(&stripes)
	values, present, err := s.b.GetBatch(chunk)
	if err != nil {
		return 0, false, fmt.Errorf("fetching delete chunk: %w", err)
	}
	var b index.KeyBuilder
	var doomed []string
	for i, k := range chunk {
		if !present[i] {
			continue // dangling posting: nothing to delete
		}
		doomed = append(doomed, k)
		deleted++
		if r, err := core.DecodeRecord(values[i]); err == nil {
			doomed = b.PostingKeys(doomed, r)
		}
	}
	if deleted == 0 {
		return 0, false, nil
	}
	if err := s.b.DeleteBatch(doomed); err != nil {
		return 0, true, fmt.Errorf("deleting chunk: %w", err)
	}
	return deleted, true, nil
}

// Compacter is implemented by backends that can reclaim dead bytes
// (superseded values, tombstones) — kvdb; the memory backend has no
// garbage to reclaim.
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
// probes for. The persistent backend is pinned to it: a rename that
// dropped one would otherwise read as zero garbage and a compaction that
// never runs, with nothing failing.
type compactingBackend interface {
	Backend
	Compacter
	GarbageReporter
	TombstoneReporter
}

var _ compactingBackend = (*kvdb.DB)(nil)

// NewKVBackend opens (creating if necessary) the one persistent backend
// in dir: the embedded database is the backend itself, the counterpart
// of PReServ's Berkeley DB backend, which the paper uses for all of its
// evaluations. Whatever an earlier version's file layout left in dir is
// adopted into the log before it returns (adoptFileLayout).
func NewKVBackend(dir string) (*kvdb.DB, error) {
	db, err := kvdb.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("store: opening kvdb backend: %w", err)
	}
	if err := adoptFileLayout(db, dir); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// NewFileBackend is NewKVBackend, kept for the frozen benchmark/, which
// opens its file-flavour stores through it.
func NewFileBackend(dir string) (*kvdb.DB, error) { return NewKVBackend(dir) }

// FileBackend has no constructor and is named only by the frozen
// benchmark/, which type-asserts it; the benchmark-only PR that stops
// reporting file.segments_per_krec deletes it.
type FileBackend struct{ *kvdb.DB }

// Segments reports zero: no segment file backs a key any more.
func (*FileBackend) Segments() int { return 0 }

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
