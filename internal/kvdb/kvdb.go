// Package kvdb is a small embedded key-value store in the bitcask style:
// an append-only data log with an in-memory key directory, crash
// recovery by log scan, and online compaction that writers keep running
// through (Compact). It plays the role that
// Berkeley DB Java Edition plays in the paper's PReServ — the persistent
// "database" backend behind the Provenance Store Interface — without any
// dependency beyond the standard library. A *DB is the store's kvdb
// backend as it stands: its methods are store.Backend's, and it reports
// GarbageRatio and Tombstones and runs Compact for the store's optional
// interfaces.
//
// Concurrency: a DB is safe for concurrent use; writes are serialised,
// reads take a shared lock and read the log file at a stable offset via
// ReadAt.
//
// Durability: a batch (PutBatch, DeleteBatch) is one commit. Every entry
// of a batch but its last carries flagMore, and replay applies a batch's
// entries only once it has checked the entry that closes it, so a crash
// keeps a batch whole or not at all. Entries are buffered through the OS
// page cache; call Sync for a hard barrier. A torn or damaged final batch
// (e.g. from a crash) is detected by CRC and truncated away on the next
// Open, from its first byte.
package kvdb

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"preserv/internal/kv"
)

const (
	dataFileName = "data.log"
	tmpFileName  = "compact.tmp"

	flagTombstone = 1
	// flagKeyBatch marks a key-batch entry (kv.AppendKeyBatch): its
	// keyLen is 0 and its valLen the length of the batch body that stands
	// where a per-key entry has its key and value. The CRC covers it as it
	// covers any entry, so a batch replays whole or not at all.
	flagKeyBatch = 2
	// flagMore marks an entry that a later entry of the same batch
	// follows. Replay applies a run of such entries only together with
	// the entry that closes it, so a batch of several entries is one
	// commit; a batch of one entry carries no flagMore.
	flagMore = 4

	headerSize = 4 + 1 + 4 + 4 // crc, flags, keyLen, valLen

	// MaxKeyLen and MaxValueLen bound record sizes; the limits exist to
	// reject obviously corrupt headers during recovery.
	MaxKeyLen   = 1 << 16
	MaxValueLen = 1 << 28

	// redoFoldMax is the most appended log a compaction replays under
	// its exclusive lock; it folds larger redo windows before taking it.
	redoFoldMax = 1 << 20

	// A GetBatch value joins the read run before it when at most
	// coalesceGap bytes separate them and the run stays within
	// coalesceSpan; a longer value is a run of its own.
	coalesceGap  = 4 << 10
	coalesceSpan = 1 << 20
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("kvdb: database is closed")

// entryLoc places the value of a key logged in a per-key entry.
type entryLoc struct {
	off    int64 // offset of the value bytes within the log
	valLen int
}

// size is what the key's entry costs in the log: header, key and value.
func (l entryLoc) size(keyLen int) int64 {
	return int64(headerSize + keyLen + l.valLen)
}

// batchLoc is what the sorted key view keeps with a key that lives in a
// key-batch entry: the entry's offset and the key's share of its bytes
// (kv.KeyShare), which garbage accounting charges when the key goes. It
// is one word because a fold copies it. The zero batchLoc marks a key
// logged in a per-key entry, which the directory map places: a share is
// never zero, as every key takes at least its two lengths.
type batchLoc uint64

// shareBits holds any share: a key-batch entry of one key is at most
// MaxKeyLen plus a few bytes of framing, and a key in a larger entry is
// charged less. The remaining 44 bits address a 16 TiB log.
const shareBits = 20

func newBatchLoc(off, share int64) batchLoc { return batchLoc(off)<<shareBits | batchLoc(share) }

// batched reports whether the key lives in a key-batch entry.
func (l batchLoc) batched() bool { return l != 0 }

func (l batchLoc) off() int64   { return int64(l >> shareBits) }
func (l batchLoc) share() int64 { return int64(l & (1<<shareBits - 1)) }

// pairSet holds a bit for each leading byte pair (a shorter key counts
// as itself padded with zeros) that one side of the key directory has ever
// held. A clear bit rules the side out for every key with that pair in
// O(1): the store's record keys (i/, s/) and index markers (xm/) never
// share a pair with its postings (x/).
type pairSet [1 << 16 / 64]uint64

func pairOf(key string) int {
	p := 0
	if len(key) > 0 {
		p = int(key[0]) << 8
	}
	if len(key) > 1 {
		p |= int(key[1])
	}
	return p
}

func (s *pairSet) add(key string)      { p := pairOf(key); s[p/64] |= 1 << (p % 64) }
func (s *pairSet) has(key string) bool { p := pairOf(key); return s[p/64]&(1<<(p%64)) != 0 }

// logState is what a log replays to: the key directory, the append
// position and the dead-byte accounting. Open builds the DB's from the
// log on disk; Compact builds the next one beside it and swaps it in.
//
// The directory splits along the line the log draws. A key logged in a
// per-key entry (a record, an index marker) is in index, for O(1) point
// reads. A key logged in a key-batch entry (an index posting, whose value
// is empty) is only in keys, the sorted view that holds every live key:
// writing one is an append to the view's pending list, with no hashing
// and no lookup. Each side's pairSet rules it out of a lookup that
// cannot concern it, so a point miss on a record key never searches the
// view.
type logState struct {
	index map[string]entryLoc
	keys  kv.Ordered[batchLoc]
	// valued and batched are the leading byte pairs index and the
	// key-batch side have ever held.
	valued, batched pairSet
	offset          int64 // append position
	// viewOff is the append position keys' published snapshot is current
	// at: the writes past it are the ones its pending list holds.
	viewOff int64
	// garbage counts bytes occupied by superseded or deleted records,
	// used to decide when compaction is worthwhile. A key-batch key that
	// a later write supersedes is charged when the view folds that write.
	garbage int64
	// tombs counts the deletions the log holds (one per key a tombstone
	// entry names, not yet reclaimed by compaction) — the
	// deletion-lifecycle telemetry the store surfaces.
	tombs int64
}

// setValued points key, just logged in a per-key entry, at loc: a
// superseded value becomes garbage, a new key enters the view.
func (s *logState) setValued(key string, loc entryLoc) {
	if prev, ok := s.index[key]; ok {
		s.garbage += prev.size(len(key))
	} else {
		s.enterValued(key)
	}
	s.index[key] = loc
}

// enterValued notes that key, new to index, entered it.
func (s *logState) enterValued(key string) {
	s.valued.add(key)
	s.keys.Put(key, 0)
}

// setBatched notes that key was just logged in the key-batch entry at
// loc. A per-key entry it supersedes leaves index as garbage; a
// key-batch one is charged by the fold.
func (s *logState) setBatched(key string, loc batchLoc) {
	if s.valued.has(key) {
		if prev, ok := s.index[key]; ok {
			s.garbage += prev.size(len(key))
			delete(s.index, key)
		}
	}
	s.batched.add(key)
	s.keys.Put(key, loc)
}

// drop applies a tombstone for key. The accounting is replay's for the
// live DB too: a key that two entries tombstone is dropped by the first
// and counted by both.
func (s *logState) drop(key string) {
	if prev, ok := s.index[key]; ok {
		s.garbage += prev.size(len(key))
		delete(s.index, key)
	}
	s.keys.Delete(key)
	s.tombs++
}

// charge is the view's Fold callback: a key-batch key that a write took
// out of the view leaves its share of the entry as garbage.
func (s *logState) charge(l batchLoc) { s.garbage += l.share() }

// fold applies the view's pending writes and returns it current.
func (s *logState) fold() *kv.Keys[batchLoc] {
	s.viewOff = s.offset
	return s.keys.Fold(s.charge)
}

// DB is an open database.
type DB struct {
	mu  sync.RWMutex // provlint:lock-order 20
	dir string
	f   *os.File
	logState
	closed bool
	// compactMu serialises compactions against each other; db.mu alone
	// still serialises their swap section against writes.
	// provlint:lock-order 10
	compactMu sync.Mutex
	// unbatched counts the writes that may have taken a key out of the
	// key-batch side: deletes, and per-key puts of a key that side may
	// hold. A scan that sees it move re-checks its postings against the
	// current view.
	unbatched atomic.Uint64
}

// Open opens (creating if necessary) the database in dir. A partially
// written final record — the signature of a crash — is truncated away.
func Open(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvdb: creating %s: %w", dir, err)
	}
	// A leftover compaction temp file means a crash mid-compaction; the
	// main log is still authoritative, so discard the temp file.
	_ = os.Remove(filepath.Join(dir, tmpFileName))

	path := filepath.Join(dir, dataFileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvdb: opening log: %w", err)
	}
	db := &DB{dir: dir, f: f, logState: logState{index: make(map[string]entryLoc)}}
	if err := db.recover(); err != nil {
		f.Close()
		return nil, err
	}
	// Build the sorted key view now, from the writes in the order replay
	// met them, so that the first read finds it current.
	db.fold()
	return db, nil
}

// replayWindow is how much of the log recover holds in memory at a
// time. A variable only so that in-package tests can shrink it to put
// window boundaries inside small logs; nothing else writes it.
var replayWindow = 4 << 20

// recover rebuilds the in-memory state from the log in one forward pass
// through a reusable read window, truncating any torn tail: entries are
// parsed and checked in place, and a batch that straddles the window's
// end moves to its front before the window refills (growing it, when the
// batch is larger). The keys reach the view's pending list in log order,
// for Open's fold to build from.
func (db *DB) recover() error {
	stat, err := db.f.Stat()
	if err != nil {
		return fmt.Errorf("kvdb: stat: %w", err)
	}
	size := stat.Size()
	// win[:have] holds the log's bytes from db.offset on.
	win := make([]byte, min(size, int64(replayWindow)))
	have := 0
	sized := false
	for {
		want := int(min(size-db.offset, int64(len(win))))
		if _, err := db.f.ReadAt(win[have:want], db.offset+int64(have)); err != nil {
			return fmt.Errorf("kvdb: recovery read at %d: %w", db.offset+int64(have), err)
		}
		n, need := db.replay(win[:want])
		if need == 0 || db.offset+int64(need) > size {
			break // damaged entry or torn tail: everything after is unreliable
		}
		if !sized && n > 0 {
			// Size the directory once, for the first window's live-key
			// density extrapolated to the whole log, instead of letting it
			// grow its way up from empty.
			sized = true
			whole := make(map[string]entryLoc, int64(len(db.index))*size/db.offset)
			maps.Copy(whole, db.index)
			db.index = whole
		}
		rest := win[n:want]
		if need > len(win) {
			win = make([]byte, need)
		}
		have = copy(win, rest)
	}
	if db.offset < size {
		if err := db.f.Truncate(db.offset); err != nil {
			return fmt.Errorf("kvdb: truncating torn tail: %w", err)
		}
	}
	return nil
}

// replay applies the whole batches at the front of buf — the log's bytes
// from s.offset on — to s, and returns how many bytes it consumed. It is
// the package's one entry parser: recovery and compaction's redo fold
// both go through it. A batch is a run of flagMore entries and the entry
// that closes it; each is checked, every entry of it, before any is
// applied. need says why replay stopped: 0 for a damaged entry (an
// implausible header, a CRC mismatch or a malformed key-batch body),
// otherwise the length from the stopping batch's first byte through the
// entry buf ends in, as far as buf shows it — a header's worth when buf
// ends before the header does — which is always more than buf has left.
func (s *logState) replay(buf []byte) (n, need int) {
	var chunk strings.Builder
	var bodies []kv.KeyBatch // the checked entries of the batch at n
	for {
		end := n
		bodies = bodies[:0]
		for more := true; more; {
			size, body, want := check(buf[end:])
			if size == 0 {
				if want == 0 {
					return n, 0
				}
				return n, end - n + want
			}
			bodies = append(bodies, body)
			more = buf[end+4]&flagMore != 0
			end += size
		}
		for _, body := range bodies {
			n += s.apply(buf[n:], body, &chunk)
		}
	}
}

// check checks the entry at the front of rec — its header's plausibility,
// its CRC and, for a key batch, its body — and returns its size and its
// key-batch body. A size of 0 means the entry is not whole: need is then
// 0 for a damaged entry, or the entry's length as far as rec shows it.
func check(rec []byte) (size int, body kv.KeyBatch, need int) {
	if len(rec) < headerSize {
		return 0, body, headerSize
	}
	batch := rec[4]&flagKeyBatch != 0
	keyLen := binary.BigEndian.Uint32(rec[5:])
	valLen := binary.BigEndian.Uint32(rec[9:])
	if (keyLen == 0) != batch || keyLen > MaxKeyLen || valLen > MaxValueLen {
		return 0, body, 0
	}
	size = headerSize + int(keyLen) + int(valLen)
	if len(rec) < size {
		return 0, body, size
	}
	if crc32.ChecksumIEEE(rec[4:size]) != binary.BigEndian.Uint32(rec) {
		return 0, body, 0
	}
	if batch {
		var err error
		if body, err = kv.ParseKeyBatch(rec[headerSize:size]); err != nil {
			return 0, body, 0
		}
	}
	return size, body, 0
}

// apply applies the entry at the front of rec, which check passed with
// the key-batch body body, to s and returns its size.
func (s *logState) apply(rec []byte, body kv.KeyBatch, chunk *strings.Builder) int {
	valOff := headerSize + int(binary.BigEndian.Uint32(rec[5:]))
	recLen := valOff + int(binary.BigEndian.Uint32(rec[9:]))
	switch {
	case rec[4]&flagKeyBatch != 0:
		if body.Delete() {
			for _, key := range body.All() {
				s.drop(cut(chunk, key, len(rec)))
			}
			s.garbage += int64(recLen)
			break
		}
		for i, key := range body.All() {
			s.setBatched(cut(chunk, key, len(rec)), newBatchLoc(s.offset, kv.KeyShare(int64(recLen), body.Len(), i)))
		}
	case rec[4]&flagTombstone != 0:
		s.drop(cut(chunk, rec[headerSize:valOff], len(rec)))
		s.garbage += int64(recLen)
	default:
		key := rec[headerSize:valOff]
		loc := entryLoc{off: s.offset + int64(valOff), valLen: recLen - valOff}
		if prev, ok := s.index[string(key)]; ok {
			// An overwrite allocates its own key, as it always has.
			s.garbage += prev.size(len(key))
			s.index[string(key)] = loc
		} else {
			k := cut(chunk, key, len(rec))
			s.index[k] = loc
			s.enterValued(k)
		}
	}
	s.offset += int64(recLen)
	return recLen
}

// cut copies key into chunk and returns the copy; room is how much of the
// replay window is left from key's entry on.
//
// Keys are cut from shared chunks rather than allocated one by one: a
// million-key directory is a few thousand heap objects to the collector
// instead of a million. A chunk is freed when the last key cut from it is
// deleted; keys logged together tend to be.
func cut(chunk *strings.Builder, key []byte, room int) string {
	const keyChunk = 64 << 10
	if chunk.Cap()-chunk.Len() < len(key) {
		*chunk = strings.Builder{}
		chunk.Grow(min(keyChunk, room))
	}
	chunk.Write(key)
	return chunk.String()[chunk.Len()-len(key):]
}

// Put stores val under key, replacing any existing value. It is the
// one-pair form of PutBatch.
func (db *DB) Put(key string, val []byte) error {
	return db.PutBatch([]kv.Pair{{Key: key, Value: val}})
}

// encodeRecord serialises one log record into buf (appending) and
// returns the extended buffer.
func encodeRecord(buf []byte, flags byte, key string, val []byte) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, headerSize)...)
	buf = append(buf, key...)
	buf = append(buf, val...)
	rec := buf[start:]
	rec[4] = flags
	binary.BigEndian.PutUint32(rec[5:], uint32(len(key)))
	binary.BigEndian.PutUint32(rec[9:], uint32(len(val)))
	binary.BigEndian.PutUint32(rec[0:], crc32.ChecksumIEEE(rec[4:]))
	return buf
}

// appendKeyBatch frames the key-batch body of keys, sorted and distinct,
// as one log entry with flags (besides flagKeyBatch) and appends it to
// buf.
func appendKeyBatch(buf []byte, flags byte, keys []string, del bool) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, headerSize)...)
	buf = kv.AppendKeyBatch(buf, keys, del)
	rec := buf[start:]
	rec[4] = flagKeyBatch | flags
	binary.BigEndian.PutUint32(rec[9:], uint32(len(rec)-headerSize))
	binary.BigEndian.PutUint32(rec[0:], crc32.ChecksumIEEE(rec[4:]))
	return buf
}

// keyRun is one key-batch entry of an encoded batch.
type keyRun struct {
	pairs int      // how many of the batch's pairs it covers
	keys  []string // their distinct keys, in the entry's order
	size  int64    // the entry's bytes
}

// moreUnless is the flags that frame an entry of a batch: flagMore,
// unless the entry is the batch's last.
func moreUnless(last bool) byte {
	if last {
		return 0
	}
	return flagMore
}

// encodeBatch encodes pairs the way PutBatch logs them: a per-key entry
// for each pair with a value, one key-batch entry for each run of
// consecutive empty-valued pairs (split only past kv.KeyBatchMax), every
// entry but the last marked flagMore. It returns the entries' bytes and
// the key-batch runs among them, in order.
func encodeBatch(pairs []kv.Pair) ([]byte, []keyRun) {
	// The entries' size, bounded from above: a run's entry costs at most
	// a header, its flags and count, and per key two lengths of at most
	// three bytes each (keys are at most MaxKeyLen) besides the key. Only
	// a run cut past kv.KeyBatchMax outgrows it.
	size, empty := 0, 0
	for i, p := range pairs {
		switch {
		case len(p.Value) > 0:
			size += headerSize + len(p.Key) + len(p.Value)
		case i == 0 || len(pairs[i-1].Value) > 0:
			size += headerSize + 1 + binary.MaxVarintLen32
			fallthrough
		default:
			size += 6 + len(p.Key)
			empty++
		}
	}
	buf := make([]byte, 0, size)
	var keys []string
	if empty > 0 {
		keys = make([]string, 0, empty)
	}
	var runs []keyRun
	for i := 0; i < len(pairs); {
		if len(pairs[i].Value) > 0 {
			buf = encodeRecord(buf, moreUnless(i == len(pairs)-1), pairs[i].Key, pairs[i].Value)
			i++
			continue
		}
		start := len(keys)
		for ; i < len(pairs) && len(pairs[i].Value) == 0; i++ {
			keys = append(keys, pairs[i].Key)
		}
		for run := keys[start:]; len(run) > 0; {
			n := kv.FitKeyBatch(run)
			distinct := kv.SortKeys(run[:n])
			run = run[n:]
			at := len(buf)
			buf = appendKeyBatch(buf, moreUnless(len(run) == 0 && i == len(pairs)), distinct, false)
			runs = append(runs, keyRun{pairs: n, keys: distinct, size: int64(len(buf) - at)})
		}
	}
	return buf, runs
}

// PutBatch stores several pairs with one log append. The whole batch is
// encoded before db.mu is taken, so the exclusive section is one WriteAt
// and the directory updates. A pair with a value gets a per-key entry;
// each run of consecutive empty-valued pairs (index
// postings) becomes one key-batch entry, its keys sorted, de-duplicated
// and front-coded, and reaches the sorted view as an append. Entries land
// in slice order, and the batch is one commit: recovery after a torn or
// damaged tail keeps all of it or none of it. Duplicate keys within a
// batch resolve to the last value.
func (db *DB) PutBatch(pairs []kv.Pair) error {
	if len(pairs) == 0 {
		return nil
	}
	for _, p := range pairs {
		if p.Key == "" || len(p.Key) > MaxKeyLen {
			return fmt.Errorf("kvdb: invalid key length %d", len(p.Key))
		}
		if len(p.Value) > MaxValueLen {
			return fmt.Errorf("kvdb: value too large: %d", len(p.Value))
		}
	}
	buf, runs := encodeBatch(pairs)
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if _, err := db.f.WriteAt(buf, db.offset); err != nil {
		return fmt.Errorf("kvdb: batch append: %w", err)
	}
	for i := 0; i < len(pairs); {
		if p := pairs[i]; len(p.Value) > 0 {
			if db.batched.has(p.Key) {
				db.unbatched.Add(1) // it may replace a posting
			}
			valOff := db.offset + headerSize + int64(len(p.Key))
			db.setValued(p.Key, entryLoc{off: valOff, valLen: len(p.Value)})
			db.offset = valOff + int64(len(p.Value))
			i++
			continue
		}
		run := runs[0]
		runs = runs[1:]
		for j, k := range run.keys {
			db.setBatched(k, newBatchLoc(db.offset, kv.KeyShare(run.size, len(run.keys), j)))
		}
		db.offset += run.size
		i += run.pairs
	}
	return nil
}

// GetBatch fetches several keys in one lock acquisition and one pass
// over the log. The returned slices align with keys; present[i] is
// false for absent keys. Reads go in log-offset order, one ReadAt per
// run of nearby values, so the records one PutBatch wrote cost one read.
// A run's values share one allocation, each capped at its own end, so
// an append to one reallocates instead of overwriting the next. A key the
// map lacks but the key-batch side may hold is looked up in the view
// afterwards, as Get does.
func (db *DB) GetBatch(keys []string) (values [][]byte, present []bool, err error) {
	values = make([][]byte, len(keys))
	present = make([]bool, len(keys))
	unsure, err := db.getValued(keys, values, present)
	if err != nil {
		return nil, nil, err
	}
	for _, i := range unsure {
		if values[i], present[i], err = db.Get(keys[i]); err != nil {
			return nil, nil, err
		}
	}
	return values, present, nil
}

// getValued reads into values the keys index holds, and returns the
// positions of those it lacks but the key-batch side may hold.
func (db *DB) getValued(keys []string, values [][]byte, present []bool) (unsure []int, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	fetches := make([]fetch, 0, len(keys))
	for i, k := range keys {
		if loc, ok := db.index[k]; ok {
			fetches = append(fetches, fetch{i: i, loc: loc})
			present[i] = true
		} else if db.batched.has(k) {
			unsure = append(unsure, i)
		}
	}
	slices.SortFunc(fetches, func(a, b fetch) int { return cmp.Compare(a.loc.off, b.loc.off) })
	for len(fetches) > 0 {
		start := fetches[0].loc.off
		end := start + int64(fetches[0].loc.valLen)
		n := 1
		for ; n < len(fetches); n++ {
			l := fetches[n].loc
			e := max(end, l.off+int64(l.valLen))
			if l.off-end > coalesceGap || e-start > coalesceSpan {
				break
			}
			end = e
		}
		if err := db.readRun(fetches[:n], start, end, values); err != nil {
			return nil, fmt.Errorf("kvdb: batch reading %q: %w", keys[fetches[0].i], err)
		}
		fetches = fetches[n:]
	}
	return unsure, nil
}

// fetch is one value GetBatch reads: values[i] gets the bytes at loc.
type fetch struct {
	i   int
	loc entryLoc
}

// runBufs holds readRun's scratch buffers, each at most coalesceSpan long.
var runBufs = sync.Pool{New: func() any { return new([]byte) }}

// readRun reads the log bytes [start, end) with one ReadAt and sets
// values[f.i] for each fetch f in run. A run of several values is read
// into a scratch buffer and only the values are copied out, into one
// allocation, so the bytes between them are never allocated.
func (db *DB) readRun(run []fetch, start, end int64, values [][]byte) error {
	need := 0
	for _, f := range run {
		need += f.loc.valLen
	}
	slab := make([]byte, need)
	if len(run) == 1 {
		_, err := db.f.ReadAt(slab, start)
		values[run[0].i] = slab
		return err
	}
	scratch := runBufs.Get().(*[]byte)
	defer runBufs.Put(scratch)
	if int64(cap(*scratch)) < end-start {
		*scratch = make([]byte, end-start)
	}
	buf := (*scratch)[:end-start]
	if _, err := db.f.ReadAt(buf, start); err != nil {
		return err
	}
	for _, f := range run {
		o := f.loc.off - start
		v := slab[:f.loc.valLen:f.loc.valLen]
		copy(v, buf[o:])
		values[f.i] = v
		slab = slab[len(v):]
	}
	return nil
}

// Get returns the value under key, or (nil, false, nil) if it is
// absent: a point miss (a dangling posting, a cross-shard probe, an
// existence check) costs no allocation, and one on a key whose leading
// byte pair no key-batch key has had costs one map probe. A key the view
// alone holds reads as an empty value.
func (db *DB) Get(key string) ([]byte, bool, error) {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return nil, false, ErrClosed
	}
	loc, ok := db.index[key]
	if !ok {
		maybe := db.batched.has(key)
		db.mu.RUnlock()
		if !maybe {
			return nil, false, nil
		}
		return db.getBatched(key)
	}
	defer db.mu.RUnlock()
	val := make([]byte, loc.valLen)
	if _, err := db.f.ReadAt(val, loc.off); err != nil {
		return nil, false, fmt.Errorf("kvdb: reading %q: %w", key, err)
	}
	return val, true, nil
}

// getBatched answers Get for a key that index lacked but the key-batch
// side may hold, from the current view.
func (db *DB) getBatched(key string) ([]byte, bool, error) {
	keys, err := db.sortedKeys()
	if err != nil {
		return nil, false, err
	}
	loc, ok := keys.Get(key)
	switch {
	case !ok:
		return nil, false, nil
	case !loc.batched():
		// It has had a per-key entry since index was probed: read that.
		return db.Get(key)
	}
	return []byte{}, true, nil
}

// Delete removes key. Deleting an absent key is a no-op. It is the
// one-element form of DeleteBatch, so the tombstone framing and the
// garbage accounting live in exactly one place.
func (db *DB) Delete(key string) error {
	return db.DeleteBatch([]string{key})
}

// DeleteBatch removes several keys with ONE log append: the tombstones
// of the keys present go into one key-batch entry (more only past
// kv.KeyBatchMax, split in slice order), and the batch is one commit, so
// a crash mid-write keeps all of its deletions or none. Absent keys get
// no tombstone, matching Delete's no-op semantics. The keys are sorted before db.mu is taken; which of
// them are present, and so what is encoded, is known only under it, from
// the view it folds there.
func (db *DB) DeleteBatch(keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	for _, k := range keys {
		if k == "" || len(k) > MaxKeyLen {
			return fmt.Errorf("kvdb: invalid key length %d", len(k))
		}
	}
	// Sorting within the span FitKeyBatch cuts leaves the cut where it
	// was, so the loop under the lock finds the same spans, sorted.
	doomed := slices.Clone(keys)
	for rest := doomed; len(rest) > 0; {
		n := kv.FitKeyBatch(rest)
		slices.Sort(rest[:n])
		rest = rest[n:]
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	view := db.fold()
	var runs []keyRun
	for rest := doomed; len(rest) > 0; {
		n := kv.FitKeyBatch(rest)
		present := rest[:0]
		for _, k := range rest[:n] {
			if _, ok := view.Get(k); ok && (len(present) == 0 || present[len(present)-1] != k) {
				present = append(present, k)
			}
		}
		if len(present) > 0 {
			runs = append(runs, keyRun{keys: present})
		}
		rest = rest[n:]
	}
	if len(runs) == 0 {
		return nil
	}
	var buf []byte
	for i := range runs {
		at := len(buf)
		buf = appendKeyBatch(buf, moreUnless(i == len(runs)-1), runs[i].keys, true)
		runs[i].size = int64(len(buf) - at)
	}
	if _, err := db.f.WriteAt(buf, db.offset); err != nil {
		return fmt.Errorf("kvdb: batch delete append: %w", err)
	}
	for _, run := range runs {
		for _, k := range run.keys {
			db.drop(k)
		}
		db.garbage += run.size
		db.offset += run.size
	}
	db.unbatched.Add(1)
	// Fold the deletions in now, which charges the key-batch keys they
	// took: GarbageRatio, which schedules compaction after deletes, sees
	// all of it.
	db.fold()
	return nil
}

// Len returns the number of live keys.
func (db *DB) Len() int {
	keys, err := db.sortedKeys()
	if err != nil {
		return 0
	}
	return keys.Len()
}

// sortedKeys returns the sorted key view, current: see view.
func (db *DB) sortedKeys() (*kv.Keys[batchLoc], error) {
	keys, _, err := db.view()
	return keys, err
}

// view returns the sorted key view and the append position it is
// current at, folding writes in only when there are any. Snapshot
// current, the cost is one shared-lock acquisition; the snapshot is
// immutable, so readers iterate it unlocked.
func (db *DB) view() (*kv.Keys[batchLoc], int64, error) {
	db.mu.RLock()
	keys, ok := db.keys.Clean()
	off, closed := db.viewOff, db.closed
	db.mu.RUnlock()
	if closed {
		return nil, 0, ErrClosed
	}
	if ok {
		return keys, off, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, 0, ErrClosed
	}
	return db.fold(), db.viewOff, nil
}

// Count reports how many live keys carry the prefix without copying
// them — two seeks on the sorted key snapshot, which is what makes the
// query planner's per-dimension cardinality probes cheap.
func (db *DB) Count(prefix string) (int, error) {
	keys, err := db.sortedKeys()
	if err != nil {
		return 0, err
	}
	return keys.Count(prefix, ""), nil
}

// ScanFrom calls fn for every live key with the given prefix and >= from
// (an empty from is unconstrained), in sorted key order, stopping early
// if fn returns an error (which ScanFrom returns). It is the seek
// primitive posting iterators resume a prefix scan with, without
// re-reading the keys already consumed. Keys stream off the snapshot
// lazily: an early stop from fn ends the sweep without the remaining
// range being copied or visited.
//
// A key-batch key comes straight off the snapshot with an empty value. A
// per-key one is re-read, which absorbs its deletion after the snapshot
// was taken. A key-batch key deleted since is caught by the unbatched
// counter: once it moves, each key-batch key is checked against the
// current view instead.
func (db *DB) ScanFrom(prefix, from string, fn func(key string, val []byte) error) error {
	seen := db.unbatched.Load()
	keys, err := db.sortedKeys()
	if err != nil {
		return err
	}
	cur := keys
	for k, loc := range keys.Range(prefix, from) {
		if loc.batched() {
			if n := db.unbatched.Load(); n != seen {
				if cur, err = db.sortedKeys(); err != nil {
					return err
				}
				seen = n
			}
			if cur != keys {
				loc, _ = cur.Get(k) // gone or per-key now: Get below decides
			}
		}
		if loc.batched() {
			if err := fn(k, nil); err != nil {
				return err
			}
			continue
		}
		v, ok, err := db.Get(k)
		if err != nil {
			return err
		}
		if !ok {
			continue // deleted between the key snapshot and the read
		}
		if err := fn(k, v); err != nil {
			return err
		}
	}
	return nil
}

// LogBytes reports the log's current append position — the on-disk size
// the garbage ratio is computed against.
func (db *DB) LogBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.offset
}

// GarbageRatio is the fraction of the log's bytes held by dead entries
// (superseded values, tombstones, tombstoned values), in [0, 1]: what
// Compact would reclaim, and what online compaction schedules on. A
// key-batch key that a later put supersedes counts once a read has
// folded that put into the sorted view; a deleted one counts at once.
func (db *DB) GarbageRatio() float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.offset <= 0 {
		return 0
	}
	return float64(db.garbage) / float64(db.offset)
}

// Tombstones reports how many key deletions the log currently holds
// (not yet reclaimed by Compact).
func (db *DB) Tombstones() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tombs
}

// Sync forces buffered writes to stable storage.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.f.Sync()
}

// Compact rewrites the log keeping only live records, reclaiming space
// from superseded values and tombstones. The database remains usable
// afterwards. The rewrite runs against a snapshot with writers still
// admitted, in three phases: (1) take the published sorted key view and
// the append position it is current at under one brief read lock; (2) with
// no lock held, walk the view in key order and write every live record
// into compact.tmp — key-batch keys as key-batch entries, per-key ones
// read at the locations a brief read lock finds for each group of them,
// skipping one written or deleted since the snapshot — the live log is
// append-only, so snapshot offsets stay readable — and fold in
// large redo windows as they accumulate; (3) under a short exclusive
// section, fold the final redo window (a verbatim byte copy of the
// appended region, parsed with recovery's logic to update the next
// state), fsync, rename, and swap in the next map and view together. A
// crash at any point leaves either
// the old log or the fully renamed new log authoritative: Open discards
// a leftover compact.tmp.
func (db *DB) Compact() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()

	// The published snapshot serves as it is, current or not: the writes
	// since it was folded lie past snapOff, where the redo fold picks
	// them up. Only when more of them wait than a redo window should
	// carry are they folded first, as a read would fold them.
	db.mu.RLock()
	snap, _ := db.keys.Clean()
	snapOff, unfolded, closed := db.viewOff, db.offset-db.viewOff, db.closed
	db.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if unfolded > redoFoldMax {
		var err error
		if snap, snapOff, err = db.view(); err != nil {
			return err
		}
	}

	tmpPath := filepath.Join(db.dir, tmpFileName)
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("kvdb: compaction temp: %w", err)
	}
	fail := func(e error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return e
	}

	// Re-encoded records gather in out and reach the temp file one
	// rewriteFlush-sized WriteAt at a time; out ends at next.offset. Each
	// is a batch of its own, with no flagMore: the temp file replaces the
	// log only whole, by rename.
	const rewriteFlush = 1 << 20
	next := logState{index: make(map[string]entryLoc)}
	var out, val []byte
	// flush writes out once it holds at least least bytes.
	flush := func(least int) error {
		if len(out) < least {
			return nil
		}
		if _, err := tmp.WriteAt(out, next.offset-int64(len(out))); err != nil {
			return fmt.Errorf("kvdb: compaction write: %w", err)
		}
		out = out[:0]
		return nil
	}
	// Each run of empty-valued keys, met in key order, goes into key-batch
	// entries of at most kv.KeyBatchMax key bytes, as kv.FitKeyBatch cuts
	// them: an empty-valued key that an earlier version logged per key is
	// rewritten into this form here.
	var run []string
	runBytes := 0
	writeRun := func() error {
		if len(run) == 0 {
			return nil
		}
		at := len(out)
		out = appendKeyBatch(out, 0, run, false)
		size := int64(len(out) - at)
		for j, k := range run {
			next.setBatched(k, newBatchLoc(next.offset, kv.KeyShare(size, len(run), j)))
		}
		next.offset += size
		run, runBytes = run[:0], 0
		return flush(rewriteFlush)
	}
	// rewrite writes one group of the view's keys, looking up the per-key
	// ones under one read lock. One written since the snapshot has its
	// value past snapOff, and one deleted since is gone: the redo fold
	// carries both.
	type item struct {
		key  string
		loc  batchLoc
		at   entryLoc
		live bool
	}
	rewrite := func(group []item) error {
		db.mu.RLock()
		for i, it := range group {
			if !it.loc.batched() {
				at, ok := db.index[it.key]
				group[i].at, group[i].live = at, ok && at.off <= snapOff
			}
		}
		db.mu.RUnlock()
		for _, it := range group {
			switch {
			case it.loc.batched() || it.live && it.at.valLen == 0:
				if len(run) > 0 && runBytes+len(it.key) > kv.KeyBatchMax {
					if err := writeRun(); err != nil {
						return err
					}
				}
				run = append(run, it.key)
				runBytes += len(it.key)
			case it.live:
				if err := writeRun(); err != nil {
					return err
				}
				val = append(val[:0], make([]byte, it.at.valLen)...)
				if _, err := db.f.ReadAt(val, it.at.off); err != nil {
					return fmt.Errorf("kvdb: compaction read: %w", err)
				}
				out = encodeRecord(out, 0, it.key, val)
				next.setValued(it.key, entryLoc{off: next.offset + headerSize + int64(len(it.key)), valLen: len(val)})
				next.offset += int64(headerSize + len(it.key) + len(val))
				if err := flush(rewriteFlush); err != nil {
					return err
				}
			}
		}
		return nil
	}
	const groupMax = 256
	group := make([]item, 0, groupMax)
	for k, loc := range snap.Range("", "") {
		if group = append(group, item{key: k, loc: loc}); len(group) == groupMax {
			if err := rewrite(group); err != nil {
				return fail(err)
			}
			group = group[:0]
		}
	}
	if err := rewrite(group); err != nil {
		return fail(err)
	}
	if err := writeRun(); err != nil {
		return fail(err)
	}
	if err := flush(0); err != nil {
		return fail(err)
	}
	// The walk met the keys in order, so this build is one pass.
	next.fold()

	// Fold large redo windows without the exclusive lock so the final
	// swap section only replays the last sliver of concurrent appends.
	for spins := 0; spins < 8; spins++ {
		db.mu.RLock()
		cur, closed := db.offset, db.closed
		db.mu.RUnlock()
		if closed {
			return fail(ErrClosed)
		}
		if cur-snapOff <= redoFoldMax {
			break
		}
		if err := db.foldRedo(tmp, snapOff, cur, &next); err != nil {
			return fail(err)
		}
		snapOff = cur
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fail(ErrClosed)
	}
	if db.offset > snapOff {
		if err := db.foldRedo(tmp, snapOff, db.offset, &next); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("kvdb: compaction sync: %w", err))
	}
	if err := os.Rename(tmpPath, filepath.Join(db.dir, dataFileName)); err != nil {
		return fail(fmt.Errorf("kvdb: compaction rename: %w", err))
	}
	db.f.Close()
	db.f = tmp
	db.logState = next
	return nil
}

// foldRedo copies the live log's [from, to) byte range — whole records
// by construction, since offset only advances past fully written
// records — verbatim onto the end of the compaction temp file, and
// replays it onto next as recovery would. Anything but whole, intact
// entries fails the compaction.
func (db *DB) foldRedo(tmp *os.File, from, to int64, next *logState) error {
	buf := make([]byte, to-from)
	if _, err := db.f.ReadAt(buf, from); err != nil {
		return fmt.Errorf("kvdb: compaction redo read: %w", err)
	}
	if _, err := tmp.WriteAt(buf, next.offset); err != nil {
		return fmt.Errorf("kvdb: compaction redo write: %w", err)
	}
	if n, _ := next.replay(buf); n < len(buf) {
		return fmt.Errorf("kvdb: damaged redo window at %d", from+int64(n))
	}
	return nil
}

// Close flushes and closes the database. Further operations fail with
// ErrClosed. Close is idempotent.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if err := db.f.Sync(); err != nil {
		db.f.Close()
		return fmt.Errorf("kvdb: close sync: %w", err)
	}
	return db.f.Close()
}
