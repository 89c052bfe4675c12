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
// Durability: records are buffered through the OS page cache; call Sync
// for a hard barrier. A torn final record (e.g. from a crash) is
// detected by CRC and truncated away on the next Open.
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
	"sort"
	"strings"
	"sync"

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

	headerSize = 4 + 1 + 4 + 4 // crc, flags, keyLen, valLen

	// MaxKeyLen and MaxValueLen bound record sizes; the limits exist to
	// reject obviously corrupt headers during recovery.
	MaxKeyLen   = 1 << 16
	MaxValueLen = 1 << 28

	// A GetBatch value joins the read run before it when at most
	// coalesceGap bytes separate them and the run stays within
	// coalesceSpan; a longer value is a run of its own.
	coalesceGap  = 4 << 10
	coalesceSpan = 1 << 20
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("kvdb: database is closed")

// entryLoc places a live key's value in the log. A key that lives in a
// key-batch entry has an empty value and a negative valLen: minus its
// share of that entry's bytes (kv.KeyShare), and off is the entry's
// offset.
type entryLoc struct {
	off    int64 // offset of the value bytes within the log
	valLen int
}

// vlen is the length of the value.
func (l entryLoc) vlen() int { return max(l.valLen, 0) }

// size is what the key's entry costs in the log: header, key and value
// of a per-key entry, or the key's share of a key-batch entry.
func (l entryLoc) size(keyLen int) int64 {
	if l.valLen < 0 {
		return int64(-l.valLen)
	}
	return int64(headerSize + keyLen + l.valLen)
}

// logState is what a log replays to: the key directory, the append
// position and the dead-byte accounting. Open builds the DB's from the
// log on disk; Compact builds the next one beside it and swaps it in.
type logState struct {
	index  map[string]entryLoc
	offset int64 // append position
	// garbage counts bytes occupied by superseded or deleted records,
	// used to decide when compaction is worthwhile.
	garbage int64
	// tombs counts the deletions the log holds (one per key a tombstone
	// entry names, not yet reclaimed by compaction) — the
	// deletion-lifecycle telemetry the store surfaces.
	tombs int64
	// entered is set only while recover replays; compaction's redo fold
	// leaves it nil.
	entered *enteredKeys
}

// enteredKeys is what recover's replay keeps for Open's sorted key view:
// each key as it entered the directory, in log order, and whether any key
// left the directory after entering it. Log order is the order replay cut
// the keys' bytes in, so the list runs through memory in order too, and
// within an index dimension it is close to key order.
type enteredKeys struct {
	keys []string
	left bool
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
	// keys is the sorted view of index's key set that the prefix counts
	// and range scans binary-search; guarded by mu like index itself.
	keys kv.Ordered[entryLoc]
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
	db := &DB{dir: dir, f: f, logState: logState{index: make(map[string]entryLoc), entered: new(enteredKeys)}}
	if err := db.recover(); err != nil {
		f.Close()
		return nil, err
	}
	// Build the sorted key view now, from the keys in the order replay met
	// them, so that the first read finds it current instead of sorting
	// every key in hash-map order under the write lock.
	keys := db.entered.keys
	if db.entered.left {
		keys = slices.DeleteFunc(keys, func(k string) bool {
			_, live := db.index[k]
			return !live
		})
	}
	db.entered = nil
	db.keys.Build(keys)
	return db, nil
}

// replayWindow is how much of the log recover holds in memory at a
// time. A variable only so that in-package tests can shrink it to put
// window boundaries inside small logs; nothing else writes it.
var replayWindow = 4 << 20

// recover rebuilds the in-memory state from the log in one forward pass
// through a reusable read window, truncating any torn tail: entries are
// parsed and checked in place, and one that straddles the window's end
// moves to its front before the window refills. db.entered collects the
// keys as they enter the directory.
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
			// Size the directory and the entered-key list once, for the
			// first window's live-key density extrapolated to the whole
			// log, instead of letting them grow their way up from empty.
			sized = true
			hint := int64(len(db.index)) * size / db.offset
			whole := make(map[string]entryLoc, hint)
			maps.Copy(whole, db.index)
			db.index = whole
			db.entered.keys = append(make([]string, 0, hint), db.entered.keys...)
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

// replay applies the whole entries at the front of buf — the log's bytes
// from s.offset on — to s, and returns how many bytes it consumed. It is
// the package's one entry parser: recovery and compaction's redo fold
// both go through it. need says why it stopped: 0 for a damaged entry (an
// implausible header or a CRC mismatch), otherwise the length of the next
// entry as far as buf shows it — a header's worth when buf ends before
// the header does — which is always more than buf has left.
func (s *logState) replay(buf []byte) (n, need int) {
	var chunk strings.Builder
	var batchKeys []string
	for {
		rec := buf[n:]
		if len(rec) < headerSize {
			return n, headerSize
		}
		batch := rec[4]&flagKeyBatch != 0
		keyLen := binary.BigEndian.Uint32(rec[5:])
		valLen := binary.BigEndian.Uint32(rec[9:])
		if (keyLen == 0) != batch || keyLen > MaxKeyLen || valLen > MaxValueLen {
			return n, 0
		}
		valOff := headerSize + int(keyLen)
		recLen := valOff + int(valLen)
		if len(rec) < recLen {
			return n, recLen
		}
		if crc32.ChecksumIEEE(rec[4:recLen]) != binary.BigEndian.Uint32(rec) {
			return n, 0
		}
		switch {
		case batch:
			keys, err := kv.ParseKeyBatch(rec[headerSize:recLen])
			if err != nil {
				return n, 0
			}
			if keys.Delete() {
				for _, key := range keys.All() {
					s.drop(key)
				}
				s.garbage += int64(recLen)
				break
			}
			// Cut every key into the chunk before filing any: hashing each
			// key straight after copying it made a replay ≈ 15 % slower.
			batchKeys = batchKeys[:0]
			for _, key := range keys.All() {
				batchKeys = append(batchKeys, cut(&chunk, key, len(rec)))
			}
			for i, key := range batchKeys {
				loc := entryLoc{off: s.offset, valLen: -int(kv.KeyShare(int64(recLen), len(batchKeys), i))}
				if prev, ok := s.index[key]; ok {
					s.garbage += prev.size(len(key))
				} else {
					s.enter(key)
				}
				s.index[key] = loc
			}
		case rec[4]&flagTombstone != 0:
			s.drop(rec[headerSize:valOff])
			s.garbage += int64(recLen)
		default:
			key := rec[headerSize:valOff]
			loc := entryLoc{off: s.offset + int64(valOff), valLen: int(valLen)}
			if prev, ok := s.index[string(key)]; ok {
				// An overwrite allocates its own key, as it always has.
				s.garbage += prev.size(len(key))
				s.index[string(key)] = loc
			} else {
				k := cut(&chunk, key, len(rec))
				s.index[k] = loc
				s.enter(k)
			}
		}
		n += recLen
		s.offset += int64(recLen)
	}
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

// enter notes that key, just cut, entered the directory.
func (s *logState) enter(key string) {
	if s.entered != nil {
		s.entered.keys = append(s.entered.keys, key)
	}
}

// drop replays a tombstone for key.
func (s *logState) drop(key []byte) {
	if prev, ok := s.index[string(key)]; ok {
		s.garbage += prev.size(len(key))
		delete(s.index, string(key))
		if s.entered != nil {
			s.entered.left = true
		}
	}
	s.tombs++
}

// Put stores val under key, replacing any existing value. It is the
// one-pair form of PutBatch.
func (db *DB) Put(key string, val []byte) error {
	return db.PutBatch([]kv.Pair{{Key: key, Value: val}})
}

// setLocked points key at the value just appended at loc: a superseded
// value becomes garbage, a new key enters the sorted view. Callers hold
// db.mu.
func (db *DB) setLocked(key string, loc entryLoc) {
	if prev, ok := db.index[key]; ok {
		db.garbage += prev.size(len(key))
	} else {
		db.keys.Touch(key)
	}
	db.index[key] = loc
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
// as one log entry and appends it to buf.
func appendKeyBatch(buf []byte, keys []string, del bool) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, headerSize)...)
	buf = kv.AppendKeyBatch(buf, keys, del)
	rec := buf[start:]
	rec[4] = flagKeyBatch
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

// encodeBatch encodes pairs the way PutBatch logs them: a per-key entry
// for each pair with a value, one key-batch entry for each run of
// consecutive empty-valued pairs (split only past kv.KeyBatchMax). It
// returns the entries' bytes and the key-batch runs among them, in order.
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
			buf = encodeRecord(buf, 0, pairs[i].Key, pairs[i].Value)
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
			at := len(buf)
			buf = appendKeyBatch(buf, distinct, false)
			runs = append(runs, keyRun{pairs: n, keys: distinct, size: int64(len(buf) - at)})
			run = run[n:]
		}
	}
	return buf, runs
}

// PutBatch stores several pairs with one log append. The whole batch is
// encoded before db.mu is taken, so the exclusive section is one WriteAt
// and the directory updates. A pair with a value gets a per-key entry;
// each run of consecutive empty-valued pairs (index
// postings) becomes one key-batch entry, its keys sorted, de-duplicated
// and front-coded. Entries land in slice order and each replays whole or
// not at all, so recovery after a torn tail keeps a prefix of the batch
// at entry granularity, which is what the index layer's commit-marker
// ordering relies on. Duplicate keys within a batch resolve to the last
// value.
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
			valOff := db.offset + headerSize + int64(len(p.Key))
			db.setLocked(p.Key, entryLoc{off: valOff, valLen: len(p.Value)})
			db.offset = valOff + int64(len(p.Value))
			i++
			continue
		}
		run := runs[0]
		runs = runs[1:]
		for j, k := range run.keys {
			db.setLocked(k, entryLoc{off: db.offset, valLen: -int(kv.KeyShare(run.size, len(run.keys), j))})
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
// an append to one reallocates instead of overwriting the next.
func (db *DB) GetBatch(keys []string) (values [][]byte, present []bool, err error) {
	values = make([][]byte, len(keys))
	present = make([]bool, len(keys))
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, nil, ErrClosed
	}
	fetches := make([]fetch, 0, len(keys))
	for i, k := range keys {
		if loc, ok := db.index[k]; ok {
			fetches = append(fetches, fetch{i: i, loc: loc})
			present[i] = true
		}
	}
	slices.SortFunc(fetches, func(a, b fetch) int { return cmp.Compare(a.loc.off, b.loc.off) })
	for len(fetches) > 0 {
		start := fetches[0].loc.off
		end := start + int64(fetches[0].loc.vlen())
		n := 1
		for ; n < len(fetches); n++ {
			l := fetches[n].loc
			e := max(end, l.off+int64(l.vlen()))
			if l.off-end > coalesceGap || e-start > coalesceSpan {
				break
			}
			end = e
		}
		if err := db.readRun(fetches[:n], start, end, values); err != nil {
			return nil, nil, fmt.Errorf("kvdb: batch reading %q: %w", keys[fetches[0].i], err)
		}
		fetches = fetches[n:]
	}
	return values, present, nil
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
		need += f.loc.vlen()
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
		v := slab[:f.loc.vlen():f.loc.vlen()]
		copy(v, buf[o:])
		values[f.i] = v
		slab = slab[len(v):]
	}
	return nil
}

// Get returns the value under key, or (nil, false, nil) if it is
// absent: a point miss (a dangling posting, a cross-shard probe, an
// existence check) costs no allocation.
func (db *DB) Get(key string) ([]byte, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, false, ErrClosed
	}
	loc, ok := db.index[key]
	if !ok {
		return nil, false, nil
	}
	val := make([]byte, loc.vlen())
	if _, err := db.f.ReadAt(val, loc.off); err != nil {
		return nil, false, fmt.Errorf("kvdb: reading %q: %w", key, err)
	}
	return val, true, nil
}

// Delete removes key. Deleting an absent key is a no-op. It is the
// one-element form of DeleteBatch, so the tombstone framing and the
// garbage accounting live in exactly one place.
func (db *DB) Delete(key string) error {
	return db.DeleteBatch([]string{key})
}

// DeleteBatch removes several keys with ONE log append: the tombstones
// of the keys present go into one key-batch entry (more only past
// kv.KeyBatchMax, split in slice order), which replays whole or not at
// all, so a crash mid-write keeps a prefix of the batch's deletions at
// entry granularity. Absent keys get no tombstone, matching Delete's
// no-op semantics. The keys are sorted before db.mu is taken; which of
// them are present, and so what is encoded, is known only under it.
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
	var buf []byte
	var runs []keyRun
	for rest := doomed; len(rest) > 0; {
		n := kv.FitKeyBatch(rest)
		present := rest[:0]
		for _, k := range rest[:n] {
			if _, ok := db.index[k]; ok && (len(present) == 0 || present[len(present)-1] != k) {
				present = append(present, k)
			}
		}
		if len(present) > 0 {
			at := len(buf)
			buf = appendKeyBatch(buf, present, true)
			runs = append(runs, keyRun{keys: present, size: int64(len(buf) - at)})
		}
		rest = rest[n:]
	}
	if len(runs) == 0 {
		return nil
	}
	if _, err := db.f.WriteAt(buf, db.offset); err != nil {
		return fmt.Errorf("kvdb: batch delete append: %w", err)
	}
	// The accounting is replay's (logState.drop): a key that two entries
	// tombstone is dropped by the first and counted by both.
	for _, run := range runs {
		for _, k := range run.keys {
			if prev, ok := db.index[k]; ok {
				db.garbage += prev.size(len(k))
				delete(db.index, k)
				db.keys.Touch(k)
			}
			db.tombs++
		}
		db.garbage += run.size
		db.offset += run.size
	}
	return nil
}

// Len returns the number of live keys.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.index)
}

// sortedKeys returns the sorted key snapshot, folding writes in only
// when there are any. Snapshot current, the cost is one shared-lock
// acquisition; the snapshot is immutable, so readers iterate it unlocked
// and absorb later deletions with a per-key Get.
func (db *DB) sortedKeys() (*kv.Keys, error) {
	db.mu.RLock()
	keys, ok := db.keys.Clean()
	closed := db.closed
	db.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if ok {
		return keys, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	return db.keys.Fold(db.index), nil
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
func (db *DB) ScanFrom(prefix, from string, fn func(key string, val []byte) error) error {
	keys, err := db.sortedKeys()
	if err != nil {
		return err
	}
	for k := range keys.Range(prefix, from) {
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
// Compact would reclaim, and what online compaction schedules on.
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
// afterwards. The rewrite runs against a snapshot of the index with
// writers still admitted, in three phases: (1) snapshot the
// index and append position under a brief read lock; (2) with no lock
// held, write every snapshot-live record into compact.tmp, the
// empty-valued ones as key-batch entries — the live log is append-only,
// so snapshot offsets stay readable — and fold in
// large redo windows as they accumulate; (3) under a short exclusive
// section, fold the final redo window (a verbatim byte copy of the
// appended region, parsed with recovery's logic to update the new
// index), fsync, rename, and swap. A crash at any point leaves either
// the old log or the fully renamed new log authoritative: Open discards
// a leftover compact.tmp.
func (db *DB) Compact() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()

	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return ErrClosed
	}
	snap := make(map[string]entryLoc, len(db.index))
	for k, loc := range db.index {
		snap[k] = loc
	}
	snapOff := db.offset
	db.mu.RUnlock()

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

	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Re-encoded records gather in out and reach the temp file one
	// rewriteFlush-sized WriteAt at a time; out ends at next.offset.
	const rewriteFlush = 1 << 20
	next := logState{index: make(map[string]entryLoc, len(snap))}
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
	// Keys with a value keep per-key entries. Each run of empty-valued
	// keys, sorted and distinct already, goes into key-batch entries: an
	// empty-valued key that an earlier version logged per key is rewritten
	// into this form here.
	for i := 0; i < len(keys); {
		k := keys[i]
		loc := snap[k]
		if loc.vlen() == 0 {
			end := i + 1
			for end < len(keys) && snap[keys[end]].vlen() == 0 {
				end++
			}
			for run := keys[i:end]; len(run) > 0; {
				n := kv.FitKeyBatch(run)
				at := len(out)
				out = appendKeyBatch(out, run[:n], false)
				size := int64(len(out) - at)
				for j, k := range run[:n] {
					next.index[k] = entryLoc{off: next.offset, valLen: -int(kv.KeyShare(size, n, j))}
				}
				next.offset += size
				run = run[n:]
				if err := flush(rewriteFlush); err != nil {
					return fail(err)
				}
			}
			i = end
			continue
		}
		val = append(val[:0], make([]byte, loc.vlen())...)
		if _, err := db.f.ReadAt(val, loc.off); err != nil {
			return fail(fmt.Errorf("kvdb: compaction read: %w", err))
		}
		out = encodeRecord(out, 0, k, val)
		next.index[k] = entryLoc{off: next.offset + headerSize + int64(len(k)), valLen: len(val)}
		next.offset += int64(headerSize + len(k) + len(val))
		if err := flush(rewriteFlush); err != nil {
			return fail(err)
		}
		i++
	}
	if err := flush(0); err != nil {
		return fail(err)
	}

	// Fold large redo windows without the exclusive lock so the final
	// swap section only replays the last sliver of concurrent appends.
	const redoFoldMax = 1 << 20
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
