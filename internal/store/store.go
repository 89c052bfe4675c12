// Package store implements the Provenance Store Interface of PReServ's
// layered design (paper Figure 3): a uniform API that plug-ins call over
// a Backend. PReServ's memory, file-system and database plug-ins are
// one engine here, the embedded database internal/kvdb (the Berkeley DB
// stand-in), with its log in a directory or in memory. "This
// abstraction makes it easy to integrate new backend stores without
// having to change already developed PlugIns."
package store

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
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
	"preserv/internal/reuse"
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
	// one log append); a duplicate key resolves to its last value. They
	// keep no value's bytes past the call: Record reuses them.
	PutBatch(kvs []KV) error
	// Get returns the value under key, or (nil, false, nil) if absent.
	Get(key string) (value []byte, ok bool, err error)
	// GetBatch fetches several keys in one backend operation — the read
	// twin of PutBatch. The returned slices align with keys; present[i]
	// is false for absent keys (whose values[i] is nil). Implementations
	// amortise the per-read cost: one lock acquisition for the batch, and
	// on kvdb one ReadAt per run of nearby values. Values may share a
	// backing array: callers treat them as read-only and copy what they
	// keep, as core.RecordArena does.
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
	// The log's upkeep: the garbage that deletes and overwrites leave,
	// the tombstones among it, and the compaction that reclaims both.
	Compacter
	GarbageReporter
	TombstoneReporter
}

// recordStripes is how many lock stripes guard record commits and
// deletes. Writers to the same key (an idempotent client retry, or two
// asserters racing on one interaction key) serialise on the key's
// stripe, so the Get-then-PutBatch check stays atomic per key.
const recordStripes = 64

// sessionSlots is how many per-session stamp counters a store keeps. A
// session's slot is a hash of its id, so two sessions can share one: a
// write to either then also invalidates cached answers about the other
// (over-invalidation, never staleness).
const sessionSlots = 4096

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
// neither behind an ingest batch nor behind the first Index call.
type Store struct {
	mu sync.RWMutex // provlint:lock-order 20
	b  Backend
	// idx is the secondary index, opened lazily on first use so that New
	// keeps its error-free signature; a store in an earlier format is
	// refused at that point. Open failures are not latched: a transient
	// backend error must not disable the store for good.
	idx *index.Index
	// The stamps the shard router's result cache keys its answers on
	// (QueryGeneration). epoch is drawn at random at every open, so no
	// stamp repeats one handed out before a restart. gen counts every
	// content change; slots[i] counts the changes to the sessions whose
	// ids hash to slot i; wide counts the changes whose sessions are
	// unknown (a deleted record that no longer decodes) and is folded
	// into every session's stamp. All of them advance in advance, and
	// only there.
	epoch uint64
	gen   atomic.Uint64
	wide  atomic.Uint64
	slots [sessionSlots]atomic.Uint64
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
	// compactMu serialises the store's compactions, requested and
	// scheduled, so a delete re-checks the garbage under it and never
	// rewrites a log another compaction has just reclaimed.
	compactMu sync.Mutex // provlint:lock-order 5
}

// New wraps a backend in a Store.
func New(b Backend) *Store {
	s := &Store{b: b, seed: maphash.MakeSeed(), epoch: rand.Uint64(), reg: obs.NewRegistry()}
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

// Generation returns the store's content generation, the stamp of a
// query not scoped to one session: it changes whenever a record is
// accepted or deleted, and at every open, so equal generations imply
// equal query results. The value is an opaque hash of (epoch, counter),
// to be compared for equality only.
func (s *Store) Generation() uint64 { return stamp(s.epoch, s.gen.Load()) }

// QueryGeneration returns the stamp of q's answer: equal stamps imply
// equal answers. A query scoped to one session is stamped with that
// session's slot (plus wide), so writes to other sessions leave it as it
// is; any other query is stamped with the Generation.
func (s *Store) QueryGeneration(q *prep.Query) uint64 {
	if !q.SessionID.Valid() {
		return s.Generation()
	}
	return stamp(s.epoch, s.slots[s.slot(q.SessionID)].Load()+s.wide.Load())
}

// slot is the session's stamp slot.
func (s *Store) slot(session ids.ID) int {
	return int(maphash.Comparable(s.seed, session) % sessionSlots)
}

// advance moves the stamps of one write, once its backend batch was
// attempted, failed or not: a cached answer must never outlive a write
// the backend may have applied. It advances the slot of every session
// group of the n records rec(0)..rec(n-1) (a nil record is skipped),
// wide when the write touched a record whose sessions are unknown, and
// the global counter. Every mutation advances its stamps here, and
// provlint's genbump check holds each one to it.
func (s *Store) advance(n int, rec func(i int) *core.Record, unknown bool) {
	last := -1
	for i := 0; i < n; i++ {
		r := rec(i)
		if r == nil {
			continue
		}
		for _, g := range r.Groups() {
			if g.Type != core.GroupSession {
				continue
			}
			// A batch is usually one session's records in a row: its
			// slot advances once.
			if sl := s.slot(g.ID); sl != last {
				s.slots[sl].Add(1)
				last = sl
			}
		}
	}
	if unknown {
		s.wide.Add(1)
	}
	s.gen.Add(1)
}

// stamp folds an epoch and a counter into one opaque value. Within one
// epoch it is a bijection of the counter, so two distinct counts never
// share a stamp; across epochs, two stamps coincide with probability
// 2^-64.
func stamp(epoch, n uint64) uint64 { return mix(epoch ^ mix(n)) }

// mix is SplitMix64's finaliser, a bijection on uint64.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Index returns the store's secondary index, opening it on first call.
// Only success is cached: a store index.Open refuses — its index in an
// earlier schema, or missing beside records — is refused with
// core.ErrOldFormat at every call, and nothing is written beside it.
func (s *Store) Index() (*index.Index, error) {
	s.mu.RLock()
	idx := s.idx
	s.mu.RUnlock()
	if idx != nil {
		return idx, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx == nil {
		idx, err := index.Open(s.b)
		if err != nil {
			return nil, err
		}
		s.idx = idx
	}
	return s.idx, nil
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
	span := s.reg.Tracer().StartSpan("store.record").SetInt("batch", int64(len(records)))
	accepted, rejects, err := s.record(asserter, records)
	s.recordBatch.Observe(float64(len(records)))
	span.Observe(s.recordSec, err)
	return accepted, rejects, err
}

// recordScratch is what a Record call builds its batch in, kept between
// calls in recordScratches: the records' posting keys, their encodings
// side by side in one slab, the staged records and the pairs the
// backend is handed. Nothing in it outlives the call: the backend copies
// what it keeps.
type recordScratch struct {
	b       index.KeyBuilder
	keys    []string
	encoded []byte
	batch   []staged
	puts    []KV
}

// staged is one record of a Record call that passed validation. Its
// encoding is cut from the call's slab, and its postings are
// recordScratch.keys[lo:hi].
type staged struct {
	i       int
	key     string
	encoded []byte
	lo, hi  int
	fresh   bool // not stored yet: the commit puts it
}

var recordScratches = sync.Pool{New: func() any { return new(recordScratch) }}

// release empties rs, dropping every reference into the call, and puts
// it back, keeping what reuse.Trim keeps.
func (rs *recordScratch) release() {
	clear(rs.keys)
	clear(rs.batch)
	clear(rs.puts)
	rs.keys, rs.batch, rs.puts = reuse.Trim(rs.keys), reuse.Trim(rs.batch), reuse.Trim(rs.puts)
	rs.encoded = reuse.Trim(rs.encoded)
	recordScratches.Put(rs)
}

func (s *Store) record(asserter core.ActorID, records []core.Record) (int, []prep.Reject, error) {
	if asserter == "" {
		return 0, nil, fmt.Errorf("store: empty asserter")
	}
	// Phase 1 — validate, encode and build posting keys outside any lock.
	rs := recordScratches.Get().(*recordScratch)
	defer rs.release()
	var rejects []prep.Reject
	batch := rs.batch
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
		// An encoding written before the slab grows stays where it was,
		// in the old array, unchanged.
		start := len(rs.encoded)
		encoded, err := core.AppendRecord(rs.encoded, r)
		if err != nil {
			rejects = append(rejects, prep.Reject{Index: i, Reason: err.Error()})
			continue
		}
		rs.encoded = encoded
		lo := len(rs.keys)
		var key string
		rs.keys, key = rs.b.PostingKeys(rs.keys, r)
		batch = append(batch, staged{i: i, key: key, encoded: encoded[start:len(encoded):len(encoded)], lo: lo, hi: len(rs.keys)})
	}
	rs.batch = batch

	// The index is opened (a store in an earlier format refused) before
	// anything is written beside it.
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
		case string(existing) == string(st.encoded): // the encoding is canonical
			accepted++ // idempotent re-record: its postings are there already
		default:
			rejects = append(rejects, prep.Reject{Index: st.i, Reason: fmt.Sprintf("%v: %s", ErrDuplicate, st.key)})
		}
	}
	var putErr error
	if fresh > 0 {
		puts := slices.Grow(rs.puts, size)
		for _, st := range batch {
			if st.fresh {
				puts = append(puts, KV{Key: st.key, Value: st.encoded})
			}
		}
		for _, st := range batch {
			if st.fresh {
				for _, k := range rs.keys[st.lo:st.hi] {
					puts = append(puts, KV{Key: k})
				}
			}
		}
		rs.puts = puts
		putErr = s.b.PutBatch(puts)
		s.advance(len(batch), func(j int) *core.Record {
			if !batch[j].fresh {
				return nil
			}
			return &records[batch[j].i]
		}, false)
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

// CompactRatio is the garbage ratio at or above which a delete compacts
// the store before returning: once half the log's bytes are dead,
// rewriting the live half costs less than carrying the garbage.
const CompactRatio = 0.5

// DeleteSession removes every record grouped under the given session —
// the retraction primitive that keeps a long-lived store from growing
// without bound. It returns how many records were deleted. Each chunk
// of records is deleted in one backend batch, together with the
// records' postings. A delete that leaves the store at CompactRatio
// garbage or more compacts it before returning (reclaim).
func (s *Store) DeleteSession(session ids.ID) (int, error) {
	span := s.reg.Tracer().StartSpan("store.delete").SetAttr("kind", "session")
	deleted, err := s.deleteSession(session)
	s.deleteBatch.Observe(float64(deleted))
	span.SetInt("deleted", int64(deleted)).Observe(s.deleteSec, err)
	s.reclaim(deleted)
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
// returns how many records were actually deleted. Each chunk advances
// the stamps of what it deleted, so every cached query result computed
// before the deletion that could include a deleted record is
// invalidated — a cached page can never resurrect a deleted record. It
// compacts as DeleteSession does.
func (s *Store) DeleteRecords(keys []string) (int, error) {
	span := s.reg.Tracer().StartSpan("store.delete").
		SetAttr("kind", "records").SetInt("batch", int64(len(keys)))
	deleted, err := s.deleteRecords(keys)
	s.deleteBatch.Observe(float64(len(keys)))
	span.Observe(s.deleteSec, err)
	s.reclaim(deleted)
	return deleted, err
}

// reclaim is the store's compaction schedule: after a delete that
// removed records, it compacts when the garbage reached CompactRatio.
// Records are never overwritten, so a store's garbage comes from its own
// deletes, and only a delete can push it over. The ratio is checked again
// under compactMu: a concurrent delete's compaction may have reclaimed it
// already. A failed compaction does not fail the delete, which has
// succeeded; it is its failed store.compact event.
func (s *Store) reclaim(deleted int) {
	if deleted == 0 || s.GarbageRatio() < CompactRatio {
		return
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if s.GarbageRatio() >= CompactRatio {
		_ = s.compact("delete")
	}
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
	for len(keys) > 0 {
		n := len(keys)
		if n > deleteChunkSize {
			n = deleteChunkSize
		}
		chunk := keys[:n]
		keys = keys[n:]
		doomed, err := s.deleteChunk(chunk)
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
// Record of the same key from interleaving with the delete. Once the
// batch is attempted, failed or not, the chunk advances the stamps of
// the records it deleted.
//
// A record whose stored bytes no longer decode is deleted anyway —
// retraction must work on a store with one torn value — without
// postings, since they are not
// computable: any it has are skipped at fetch time. Its sessions are
// unknown, so it advances every session's stamp. It returns how many
// records were deleted.
func (s *Store) deleteChunk(chunk []string) (deleted int, err error) {
	stripes := s.lockStripes(len(chunk), func(i int) string { return chunk[i] })
	defer s.unlockStripes(&stripes)
	values, present, err := s.b.GetBatch(chunk)
	if err != nil {
		return 0, fmt.Errorf("fetching delete chunk: %w", err)
	}
	var b index.KeyBuilder
	var doomed []string
	var decoded []*core.Record
	undecodable := false
	size := 0
	for _, v := range values {
		size += len(v)
	}
	arena := core.NewRecordArena(size)
	for i, k := range chunk {
		if !present[i] {
			continue // dangling posting: nothing to delete
		}
		doomed = append(doomed, k)
		deleted++
		r := new(core.Record)
		if err := arena.Decode(values[i], r); err != nil {
			undecodable = true
			continue
		}
		doomed, _ = b.PostingKeys(doomed, r)
		decoded = append(decoded, r)
	}
	if deleted == 0 {
		return 0, nil
	}
	err = s.b.DeleteBatch(doomed)
	s.advance(len(decoded), func(i int) *core.Record { return decoded[i] }, undecodable)
	if err != nil {
		return 0, fmt.Errorf("deleting chunk: %w", err)
	}
	return deleted, nil
}

// Compacter is the part of Backend that reclaims dead bytes (superseded
// values, tombstones) by rewriting the log.
type Compacter interface {
	Compact() error
}

// GarbageReporter is the part of Backend that reports how much of the
// log is dead.
type GarbageReporter interface {
	// GarbageRatio is dead bytes over total bytes, in [0, 1].
	GarbageRatio() float64
}

// TombstoneReporter is the part of Backend that counts unreclaimed
// deletion markers.
type TombstoneReporter interface {
	Tombstones() int64
}

// *kvdb.DB is the Backend under every flag.
var _ Backend = (*kvdb.DB)(nil)

// NewMemoryBackend returns the kvdb engine over a fresh in-memory log,
// the counterpart of PReServ's in-memory store: nothing outlives it.
func NewMemoryBackend() *kvdb.DB { return kvdb.NewMemory() }

// Open opens the store a -backend flag names, and its index, so that a
// store in an older layout is refused here: memory is a fresh in-memory
// log, file and kvdb both open the log in dir. The open is the first
// event in the store's history: the log's replay time, its live keys and
// bytes, and as the event's duration the time to build its key view and
// open its index.
func Open(flavour, dir string) (*Store, error) {
	start := time.Now()
	var b *kvdb.DB
	var err error
	switch flavour {
	case "memory":
		b = NewMemoryBackend()
	case "file", "kvdb":
		b, err = NewKVBackend(dir)
	default:
		err = fmt.Errorf("store: unknown backend %q", flavour)
	}
	if err != nil {
		return nil, err
	}
	s := New(b)
	ev := s.reg.Tracer().StartEvent("store.open").
		SetAttr("replay", time.Since(start).String()).
		SetAttr("live_keys", strconv.Itoa(b.Len())).
		SetAttr("log_bytes", strconv.FormatInt(b.LogBytes(), 10))
	_, err = s.Index()
	ev.End(err)
	if err != nil {
		b.Close()
		return nil, err
	}
	return s, nil
}

// NewKVBackend opens (creating if necessary) the one persistent backend
// in dir: the embedded database is the backend itself, the counterpart
// of PReServ's Berkeley DB backend, which the paper uses for all of its
// evaluations. A directory that holds a file of the PSEG1 layout is
// refused with core.ErrOldFormat before anything in it is opened.
func NewKVBackend(dir string) (*kvdb.DB, error) {
	if err := refusePSEG1(dir); err != nil {
		return nil, err
	}
	db, err := kvdb.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("store: opening kvdb backend: %w", err)
	}
	return db, nil
}

// refusePSEG1 reports core.ErrOldFormat if dir holds a file of PSEG1,
// the layout earlier versions of the file backend wrote: <seq>.seg
// segments, <hash>.rec and <hash>.rec.key record pairs, and
// <seq>.seg.tmp and <seq>.seg.bloom leftovers (kvdb's compact.tmp is
// not one).
func refusePSEG1(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: listing %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		seg := strings.TrimSuffix(strings.TrimSuffix(name, ".tmp"), ".bloom")
		_, seqErr := strconv.ParseUint(strings.TrimSuffix(seg, ".seg"), 16, 64)
		if !e.IsDir() && (strings.HasSuffix(name, ".rec") || strings.HasSuffix(name, ".rec.key") ||
			strings.HasSuffix(seg, ".seg") && (seg == name || seqErr == nil)) {
			return fmt.Errorf("%w: %s holds %s, a file of the PSEG1 layout; the binary of commit %s adopts it into the kvdb log",
				core.ErrOldFormat, dir, name, core.LastAdoptingCommit)
		}
	}
	return nil
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

// Compact reclaims dead bytes in the underlying backend on request. Like
// every write, it opens the index first, so a store in an earlier format
// is refused untouched. Compaction changes no logical content — the
// generation does not advance, and cached query results stay valid.
func (s *Store) Compact() error {
	if _, err := s.Index(); err != nil {
		return fmt.Errorf("store: opening index: %w", err)
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	return s.compact("request")
}

// compact rewrites the backend's log; the caller holds compactMu. Each
// compaction is an event in the store's history, with what triggered it
// (a delete or a request) and the garbage ratio and tombstones before
// and after.
//
// provlint:requires compactMu
func (s *Store) compact(trigger string) error {
	span := s.reg.Tracer().StartEvent("store.compact").SetAttr("trigger", trigger).
		SetAttr("garbage_before", strconv.FormatFloat(s.GarbageRatio(), 'f', 4, 64)).
		SetAttr("tombstones_before", strconv.FormatInt(s.Tombstones(), 10))
	s.compacting.Add(1)
	err := s.b.Compact()
	s.compacting.Add(-1)
	span.SetAttr("garbage_after", strconv.FormatFloat(s.GarbageRatio(), 'f', 4, 64)).
		SetAttr("tombstones_after", strconv.FormatInt(s.Tombstones(), 10)).
		Observe(s.compactSec, err)
	return err
}

// GarbageRatio reports the backend's dead-byte fraction — the signal
// reclaim schedules compactions on.
func (s *Store) GarbageRatio() float64 { return s.b.GarbageRatio() }

// Tombstones reports the backend's count of unreclaimed deletion
// markers.
func (s *Store) Tombstones() int64 { return s.b.Tombstones() }

// sortRejects restores submission order: validation rejects are staged
// before commit-time conflicts, so without the sort a conflict on an
// early record would trail a validation failure on a later one.
func sortRejects(rejects []prep.Reject) {
	sort.Slice(rejects, func(i, j int) bool { return rejects[i].Index < rejects[j].Index })
}

// Query evaluates q and returns matching records (up to q.Limit) plus
// the total number of matches. Interaction-scoped queries — the query
// planner's too — read only their key prefixes; everything else scans
// linearly, the behaviour whose cost the paper's Figure 5 characterises.
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
// The sweep's records share one core.RecordArena; fn copies *r, which
// is reused, to keep a record.
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
	arena := core.NewRecordArena(0)
	var r core.Record
	for _, prefix := range prefixes {
		err := s.b.ScanFrom(prefix, from, func(key string, value []byte) error {
			if err := arena.Decode(value, &r); err != nil {
				return fmt.Errorf("store: corrupt record at %s: %w", key, err)
			}
			if !q.Matches(&r) {
				arena.Unread()
				return nil
			}
			stop, err := fn(key, &r)
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
