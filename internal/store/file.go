package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"preserv/internal/kv"
	"preserv/internal/kvdb"
)

// FileBackend stores records in files under a directory, PReServ's
// "file system" backend, in one layout: every write packs its pairs into
// ONE segment file (a Put is a batch of one), so a Record call costs two
// files — its records and its postings — however many records it
// carries. Segments are written to a temp file and renamed into place,
// so a batch is visible atomically; per-entry CRCs guard recovery
// against torn segments all the same.
//
// A sidecar index file is unnecessary — the directory itself is the
// index, rebuilt into memory on open.
type FileBackend struct {
	mu  sync.RWMutex // provlint:lock-order 20
	dir string
	// keys maps storage key -> location; rebuilt on open.
	keys map[string]fileLoc
	// ordered is the sorted view of keys' key set that Count and
	// ScanFrom binary-search; guarded by mu like keys itself.
	ordered kv.Ordered[fileLoc]
	// segSeq numbers segment files; monotonically increasing so open
	// replays segments in write order (last write wins).
	segSeq uint64
	// tombstones tracks keys whose newest segment entry is a tombstone:
	// the key is dead, but its tombstone must survive until Compact has
	// removed every older segment that could resurrect it on replay. The
	// value is the sequence number of the segment holding the newest
	// tombstone entry, so an incremental compaction can tell tombstones
	// its snapshot covered (droppable at swap) from ones written during
	// the rewrite (which must survive).
	tombstones map[string]uint64
	// liveBytes / deadBytes approximate how segment bytes split between
	// entries that still back a live key and entries that are garbage
	// (superseded values, tombstones, tombstoned values) — the inputs of
	// GarbageRatio, which schedules online compaction.
	liveBytes int64
	deadBytes int64

	// compactMu serialises compactions against each other; f.mu alone
	// still serialises the swap section against writers. Ordered above
	// f.mu: Compact takes compactMu first, then f.mu in short sections.
	// provlint:lock-order 10
	compactMu sync.Mutex
	// compactBoundary is the merged segment's sequence number while an
	// incremental compaction is in flight (0 = idle). Writers use it to
	// split dead-byte accounting: garbage born in segments ABOVE the
	// boundary survives the swap and accrues in deadSinceSnap, which the
	// swap section promotes to the new deadBytes.
	compactBoundary uint64
	deadSinceSnap   int64

	// segs holds one handle per segment file, for exactly as long as the
	// file exists (see mmap.go); segBytes sums their sizes. Both are
	// guarded by mu. closed makes every operation after Close fail with
	// kvdb.ErrClosed.
	segs     map[string]*segMap
	segBytes int64
	closed   bool

	// entered is set only while NewFileBackend replays: each key as it
	// entered keys, in replay order, and whether any key left keys after
	// entering it — what open builds the sorted view from.
	entered *enteredKeys
}

// enteredKeys is the open-time key list FileBackend.entered describes,
// kept as kvdb's Open keeps its own.
type enteredKeys struct {
	keys []string
	left bool
}

// fileLoc locates one value: a byte range within a packed segment. A
// key that lives in a key-batch entry has an empty value and a negative
// vlen: minus its share of that entry's bytes (kv.KeyShare), and off is
// the entry's offset.
type fileLoc struct {
	file string
	off  int64
	vlen int
}

// size is what the key's entry costs in its segment: the whole per-key
// entry, or the key's share of a key-batch entry.
func (l fileLoc) size(key string) int64 {
	if l.vlen < 0 {
		return int64(-l.vlen)
	}
	return putEntrySize(key, l.vlen)
}

const (
	segExt = ".seg"
	// tmpExt marks a segment still being written; see publishFile.
	tmpExt = ".tmp"
	// bloomExt ends the per-segment filter sidecars (<seq>.seg.bloom)
	// that stores written by earlier versions carry. Nothing reads or
	// writes them; open removes the ones it finds.
	bloomExt = ".bloom"
	// segMagic heads every packed segment file.
	segMagic = "PSEG1\n"
	// recExt and recKeyExt end the per-record file pairs (<hash>.rec
	// body, <hash>.rec.key sidecar) that stores written by earlier
	// versions carry. Nothing writes them any more; open folds them into
	// segments (adoptRecordFiles).
	recExt    = ".rec"
	recKeyExt = ".rec.key"
	// adoptSegBytes bounds the values one adopted segment carries.
	adoptSegBytes = 4 << 20
)

// segTombstoneVal is the reserved valLen marking a segment entry as a
// tombstone: the entry carries no value and deletes its key on replay.
// A real entry's valLen is an actual byte count bounded by the segment
// size, so the sentinel can never be produced by a legitimate put —
// segments written before deletion existed parse unchanged.
const segTombstoneVal = ^uint64(0)

// segKeyBatchVal is the reserved valLen marking a key-batch entry: the
// keyLen slot holds the length of the kv.AppendKeyBatch body that
// follows, and the CRC covers the whole entry, lengths included.
const segKeyBatchVal = segTombstoneVal - 1

// uvarintLen is the encoded size of x — used to account segment entry
// bytes without re-encoding them.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// putEntrySize is the exact on-disk size of a per-key put entry, for the
// live/dead byte accounting.
func putEntrySize(key string, vlen int) int64 {
	return int64(uvarintLen(uint64(len(key))) + uvarintLen(uint64(vlen)) + len(key) + vlen + 4)
}

// NewFileBackend opens (creating if necessary) a file backend rooted at
// dir and indexes any records already present, adopting the record-file
// pairs of earlier versions into segments.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	fb := &FileBackend{
		dir:        dir,
		keys:       make(map[string]fileLoc),
		tombstones: make(map[string]uint64),
		segs:       make(map[string]*segMap),
		entered:    new(enteredKeys),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", dir, err)
	}
	// Segments replay in sequence order so that a key rewritten in a
	// later segment resolves to its newest location.
	var segs, recs []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
		case strings.HasSuffix(name, recExt), strings.HasSuffix(name, recKeyExt):
			recs = append(recs, name)
		case strings.HasSuffix(name, segExt):
			segs = append(segs, name)
		case strings.HasSuffix(name, tmpExt), strings.HasSuffix(name, bloomExt):
			// A write that crashed before its rename was never published,
			// and nothing reads a filter sidecar: no replay refers to
			// either, and no later sweep would match them.
			base := strings.TrimSuffix(strings.TrimSuffix(name, tmpExt), bloomExt)
			if _, ok := segSeqOf(base); strings.HasSuffix(base, segExt) && ok {
				_ = os.Remove(filepath.Join(dir, name))
			}
		}
	}
	sort.Strings(segs)
	for _, name := range segs {
		if seq, err := strconv.ParseUint(strings.TrimSuffix(name, segExt), 16, 64); err == nil && seq > fb.segSeq {
			fb.segSeq = seq
		}
		if err := fb.loadSegment(name); err != nil {
			fb.Close()
			return nil, err
		}
	}
	if err := fb.adoptRecordFiles(recs); err != nil {
		fb.Close()
		return nil, err
	}
	// Build the sorted key view now, from the keys in the order replay met
	// them, so that the first read finds it current instead of sorting
	// every key in hash-map order under the write lock.
	keys := fb.entered.keys
	if fb.entered.left {
		keys = slices.DeleteFunc(keys, func(k string) bool {
			_, live := fb.keys[k]
			return !live
		})
	}
	fb.entered = nil
	fb.ordered.Build(keys)
	return fb, nil
}

// adoptRecordFiles folds the record-file pairs an earlier version wrote
// (one per single Put) into segments, then removes every pair. Open-time
// only, after all segments have replayed (single goroutine, f.mu not yet
// shared).
//
// It keeps the old replay order, in which record files loaded before
// every segment: a key a segment holds or tombstones keeps its segment
// state, and its pair is dropped. A body without its sidecar is a torn
// write the old open ignored, and is dropped too. Adopted values go into
// segments of at most about adoptSegBytes each, all published before
// any pair is removed, so a crash in between reopens to the same
// contents: the adopted copies replay as segment state, and the pairs
// lose to them.
func (f *FileBackend) adoptRecordFiles(names []string) error {
	var batch []KV
	size := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := f.putBatchLocked(batch)
		batch, size = batch[:0], 0
		return err
	}
	for _, name := range names {
		if !strings.HasSuffix(name, recExt) {
			continue
		}
		key, err := os.ReadFile(filepath.Join(f.dir, name+".key"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: adopting %s: %w", name, err)
		}
		k := string(key)
		_, held := f.keys[k]
		_, dead := f.tombstones[k]
		if held || dead || k == "" {
			continue
		}
		value, err := os.ReadFile(filepath.Join(f.dir, name))
		if err != nil {
			return fmt.Errorf("store: adopting %s: %w", name, err)
		}
		batch = append(batch, KV{Key: k, Value: value})
		if size += len(value); size >= adoptSegBytes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	for _, name := range names {
		if err := os.Remove(filepath.Join(f.dir, name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: removing adopted %s: %w", name, err)
		}
	}
	return nil
}

// loadSegment maps one packed segment and indexes its entries. A corrupt
// entry ends the replay of that segment (everything after a torn write
// is unreliable) without failing the open. The parse runs straight off
// the segment's handle, which stays installed for the reads to come.
func (f *FileBackend) loadSegment(name string) error {
	m, err := openSegMap(filepath.Join(f.dir, name))
	if err != nil {
		return fmt.Errorf("store: mapping segment %s: %w", name, err)
	}
	f.addSegLocked(name, m)
	f.replaySegment(name, m.data)
	return nil
}

// replaySegment applies one segment's entries to the in-memory state.
// Open-time only (single goroutine, f.mu not yet shared).
func (f *FileBackend) replaySegment(name string, data []byte) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return // not a segment we understand; leave it alone
	}
	seq, _ := segSeqOf(name)
	off := len(segMagic)
	for off < len(data) {
		e, ok := parseSegEntry(data, off)
		if !ok {
			break
		}
		size := int64(e.size)
		switch {
		case e.batch.Len() > 0:
			for i, key := range e.batch.All() {
				share := kv.KeyShare(size, e.batch.Len(), i)
				if e.batch.Delete() {
					f.noteTombstoneLocked(string(key), seq, share)
				} else {
					f.setLocked(string(key), fileLoc{file: name, off: int64(off), vlen: -int(share)})
				}
			}
		case e.tomb:
			f.noteTombstoneLocked(e.key, seq, size)
		default:
			f.setLocked(e.key, fileLoc{file: name, off: int64(e.valOff), vlen: e.valLen})
		}
		off += e.size
	}
}

// segSeqOf parses the sequence number out of a %016x.seg name; false
// for foreign segment names.
func segSeqOf(name string) (uint64, bool) {
	seq, err := strconv.ParseUint(strings.TrimSuffix(name, segExt), 16, 64)
	return seq, err == nil
}

// noteDeadLocked records sz bytes of the segment entry in file going
// dead. While an incremental compaction is in flight, garbage born in
// segments above the snapshot boundary survives the coming swap, so it
// is tracked separately for the swap section to promote. Callers hold
// f.mu.
func (f *FileBackend) noteDeadLocked(file string, sz int64) {
	f.deadBytes += sz
	if f.compactBoundary != 0 {
		if seq, ok := segSeqOf(file); ok && seq > f.compactBoundary {
			f.deadSinceSnap += sz
		}
	}
}

// setLocked points key at loc, a put just written or replayed: a
// previous copy becomes dead, a previous tombstone stops being the key's
// newest entry, and a new key enters the sorted view (or, during open,
// the entered list) — with one lookup and one assignment in the
// directory per key, since writing postings is the ingest floor's hot
// path. Callers hold f.mu.
func (f *FileBackend) setLocked(key string, loc fileLoc) {
	if old, ok := f.keys[key]; ok {
		sz := old.size(key)
		f.liveBytes -= sz
		f.noteDeadLocked(old.file, sz)
	} else if f.entered != nil {
		f.entered.keys = append(f.entered.keys, key)
	} else {
		f.ordered.Touch(key)
	}
	if len(f.tombstones) > 0 {
		delete(f.tombstones, key)
	}
	f.liveBytes += loc.size(key)
	f.keys[key] = loc
}

// noteTombstoneLocked applies one tombstone for key, written in segment
// sequence seq and costing ts bytes (a per-key entry, or the key's share
// of a key-batch entry): the key's live copy (if any) becomes dead, the
// key leaves the directory, and the tombstone itself is garbage-to-be.
// Callers hold f.mu.
func (f *FileBackend) noteTombstoneLocked(key string, seq uint64, ts int64) {
	if old, ok := f.keys[key]; ok {
		sz := old.size(key)
		f.liveBytes -= sz
		f.noteDeadLocked(old.file, sz)
		delete(f.keys, key)
		if f.entered != nil {
			f.entered.left = true
		} else {
			f.ordered.Touch(key)
		}
	}
	f.deadBytes += ts
	if f.compactBoundary != 0 {
		// Tombstone entries always land in a post-boundary segment while
		// a compaction is in flight (the boundary sequence was claimed
		// before any concurrent write could allocate one).
		f.deadSinceSnap += ts
	}
	f.tombstones[key] = seq
}

// segEntry is one parsed segment entry of size bytes: a put of key with
// its value at data[valOff:valOff+valLen], a tombstone (tomb) for key,
// or a key batch (batch.Len() > 0, key empty).
type segEntry struct {
	key            string
	valOff, valLen int
	tomb           bool
	batch          kv.KeyBatch
	size           int
}

// Segment entry layout: uvarint keyLen, uvarint valLen, key, value,
// 4-byte big-endian CRC32 over key+value. Two reserved valLens mark the
// key-only kinds. segTombstoneVal is a tombstone: no value follows, the
// CRC covers the key alone, and replay deletes the key instead of
// locating a value. segKeyBatchVal is a key batch: keyLen bytes of
// kv key-batch body follow, and the CRC covers the entry from its first
// byte. Lengths are validated in uint64 before any int conversion so a
// corrupt varint cannot overflow the bounds check into a panic —
// corruption must parse as torn, not crash the open.
func parseSegEntry(data []byte, off int) (segEntry, bool) {
	kl, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return segEntry{}, false
	}
	vl, m := binary.Uvarint(data[off+n:])
	if m <= 0 {
		return segEntry{}, false
	}
	hdr := off + n + m
	rest := uint64(len(data) - hdr)
	switch vl {
	case segKeyBatchVal:
		if kl > rest || rest-kl < 4 {
			return segEntry{}, false
		}
		end := hdr + int(kl)
		if crc32.ChecksumIEEE(data[off:end]) != binary.BigEndian.Uint32(data[end:]) {
			return segEntry{}, false
		}
		batch, err := kv.ParseKeyBatch(data[hdr:end])
		if err != nil {
			return segEntry{}, false
		}
		return segEntry{batch: batch, size: end + 4 - off}, true
	case segTombstoneVal:
		if kl == 0 || kl > rest || rest-kl < 4 {
			return segEntry{}, false
		}
		body := data[hdr : hdr+int(kl)]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[hdr+int(kl):]) {
			return segEntry{}, false
		}
		return segEntry{key: string(body), tomb: true, size: hdr + int(kl) + 4 - off}, true
	}
	if kl == 0 || kl > rest || vl > rest-kl || rest-kl-vl < 4 {
		return segEntry{}, false
	}
	body := data[hdr : hdr+int(kl)+int(vl)]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[hdr+int(kl)+int(vl):]) {
		return segEntry{}, false
	}
	return segEntry{key: string(body[:kl]), valOff: hdr + int(kl), valLen: int(vl), size: hdr + int(kl) + int(vl) + 4 - off}, true
}

// publishFile writes data to path through a temp file and a rename, so
// the file appears whole or not at all, and returns the new segment's
// handle, mapped from the descriptor it was written through before the
// rename: a segment that cannot be mapped is never published. A failed
// step removes the temp; one stranded by a crash is swept by the next
// NewFileBackend.
func publishFile(path string, data []byte) (*segMap, error) {
	tmp := path + tmpExt
	var m *segMap
	fh, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		if _, err = fh.Write(data); err == nil {
			m, err = mapSeg(fh, int64(len(data)), data)
		}
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		m.close()
		os.Remove(tmp)
		return nil, err
	}
	return m, nil
}

func appendSegEntry(buf []byte, key string, value []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = binary.AppendUvarint(buf, uint64(len(value)))
	buf = append(buf, key...)
	buf = append(buf, value...)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf[len(buf)-len(key)-len(value):]))
	return append(buf, crc[:]...)
}

// appendSegKeyBatch frames the key-batch body of keys, sorted and
// distinct, as one segment entry and appends it to buf.
func appendSegKeyBatch(buf []byte, keys []string, del bool) []byte {
	start := len(buf)
	buf = kv.AppendKeyBatch(buf, keys, del)
	var hdr [2 * binary.MaxVarintLen64]byte
	h := binary.AppendUvarint(hdr[:0], uint64(len(buf)-start))
	h = binary.AppendUvarint(h, segKeyBatchVal)
	buf = slices.Insert(buf, start, h...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// Name implements Backend.
func (f *FileBackend) Name() string { return "file" }

// Put implements Backend: a batch of one.
func (f *FileBackend) Put(key string, value []byte) error {
	return f.PutBatch([]KV{{Key: key, Value: value}})
}

// sortedKeys returns the sorted key snapshot, folding writes in only
// when there are any. Snapshot current, the cost is one shared-lock
// acquisition: the snapshot is immutable, so readers iterate it
// concurrently; staleness is absorbed by the per-key Get.
func (f *FileBackend) sortedKeys() (*kv.Keys, error) {
	f.mu.RLock()
	keys, ok := f.ordered.Clean()
	closed := f.closed
	f.mu.RUnlock()
	if closed {
		return nil, kvdb.ErrClosed
	}
	if ok {
		return keys, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, kvdb.ErrClosed
	}
	return f.ordered.Fold(f.keys), nil
}

// PutBatch implements Backend: the whole batch lands in one packed
// segment file — two syscall-visible writes (temp file + rename) no
// matter how many pairs. The rename makes the batch visible atomically,
// and a key rewritten in a later segment resolves to the newer value on
// replay (last write wins).
func (f *FileBackend) PutBatch(kvs []KV) error {
	if len(kvs) == 0 {
		return nil
	}
	for _, p := range kvs {
		if p.Key == "" {
			return fmt.Errorf("store: empty key")
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return kvdb.ErrClosed
	}
	return f.putBatchLocked(kvs)
}

// putBatchLocked writes one packed segment for kvs: a per-key entry for
// each pair with a value, one key-batch entry for each run of
// consecutive empty-valued pairs (split only past kv.KeyBatchMax).
// Callers hold f.mu and have validated the keys.
func (f *FileBackend) putBatchLocked(kvs []KV) error {
	f.segSeq++
	name := fmt.Sprintf("%016x%s", f.segSeq, segExt)

	// A key-batch entry costs at most what its keys' per-key entries
	// would, plus a header the 32 spare bytes cover once: only a batch of
	// several runs can outgrow this.
	size := int64(len(segMagic)) + 32
	empty := 0
	for _, p := range kvs {
		size += putEntrySize(p.Key, len(p.Value))
		if len(p.Value) == 0 {
			empty++
		}
	}
	buf := append(make([]byte, 0, size), segMagic...)
	var offs []int64 // where the values of pairs with one sit
	if empty < len(kvs) {
		offs = make([]int64, len(kvs))
	}
	var keys []string
	if empty > 0 {
		keys = make([]string, 0, empty)
	}
	var runs []keyRun
	for i := 0; i < len(kvs); {
		if p := kvs[i]; len(p.Value) > 0 {
			buf = appendSegEntry(buf, p.Key, p.Value)
			// The value sits immediately before the entry's trailing CRC.
			offs[i] = int64(len(buf) - 4 - len(p.Value))
			i++
			continue
		}
		start := len(keys)
		for j := i; j < len(kvs) && len(kvs[j].Value) == 0; j++ {
			keys = append(keys, kvs[j].Key)
		}
		for run := keys[start:]; len(run) > 0; {
			n := kv.FitKeyBatch(run)
			distinct := kv.SortKeys(run[:n])
			at := len(buf)
			buf = appendSegKeyBatch(buf, distinct, false)
			runs = append(runs, keyRun{pairs: n, keys: distinct, at: at, size: len(buf) - at})
			i += n
			run = run[n:]
		}
	}

	m, err := publishFile(filepath.Join(f.dir, name), buf)
	if err != nil {
		return fmt.Errorf("store: writing segment %s: %w", name, err)
	}
	f.addSegLocked(name, m)
	for i := 0; i < len(kvs); {
		if p := kvs[i]; len(p.Value) > 0 {
			f.setLocked(p.Key, fileLoc{file: name, off: offs[i], vlen: len(p.Value)})
			i++
			continue
		}
		run := runs[0]
		runs = runs[1:]
		for j, k := range run.keys {
			share := kv.KeyShare(int64(run.size), len(run.keys), j)
			f.setLocked(k, fileLoc{file: name, off: int64(run.at), vlen: -int(share)})
		}
		i += run.pairs
	}
	return nil
}

// keyRun is one key-batch entry of a segment being written.
type keyRun struct {
	pairs    int      // how many of a put batch's pairs it covers
	keys     []string // its distinct keys, in the entry's order
	at, size int      // its place in the segment
}

// Delete implements Backend. See DeleteBatch for the durability story.
func (f *FileBackend) Delete(key string) error {
	return f.DeleteBatch([]string{key})
}

// DeleteBatch implements Backend: the present keys' tombstones go into
// one key-batch entry (more only past kv.KeyBatchMax), and the whole
// batch lands in ONE new segment file (temp file + rename, so the batch
// is visible atomically — a crash keeps either all its deletions or
// none). Absent keys are no-ops. Tombstones outlive the delete call: an
// older segment may still hold a deleted key's value, so Compact drops a
// tombstone only once it has removed every segment below it.
func (f *FileBackend) DeleteBatch(keys []string) error {
	for _, k := range keys {
		if k == "" {
			return fmt.Errorf("store: empty key")
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return kvdb.ErrClosed
	}
	var doomed []string
	for _, k := range keys {
		if _, ok := f.keys[k]; ok {
			doomed = append(doomed, k)
		}
	}
	if len(doomed) == 0 {
		return nil
	}
	buf := []byte(segMagic)
	var runs []keyRun
	for rest := doomed; len(rest) > 0; {
		n := kv.FitKeyBatch(rest)
		distinct := kv.SortKeys(rest[:n])
		at := len(buf)
		buf = appendSegKeyBatch(buf, distinct, true)
		runs = append(runs, keyRun{keys: distinct, size: len(buf) - at})
		rest = rest[n:]
	}
	f.segSeq++
	name := fmt.Sprintf("%016x%s", f.segSeq, segExt)
	m, err := publishFile(filepath.Join(f.dir, name), buf)
	if err != nil {
		return fmt.Errorf("store: writing tombstone segment %s: %w", name, err)
	}
	f.addSegLocked(name, m)
	// As replay does it: a key that two entries tombstone is dropped by
	// the first, and each entry's bytes are shared out to all its keys.
	for _, run := range runs {
		for j, k := range run.keys {
			f.noteTombstoneLocked(k, f.segSeq, kv.KeyShare(int64(run.size), len(run.keys), j))
		}
	}
	return nil
}

// GetBatch implements Backend: every lookup and every copy out of a
// segment runs under one shared lock acquisition.
func (f *FileBackend) GetBatch(keys []string) ([][]byte, []bool, error) {
	values := make([][]byte, len(keys))
	present := make([]bool, len(keys))
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return nil, nil, kvdb.ErrClosed
	}
	for i, k := range keys {
		loc, ok := f.keys[k]
		if !ok {
			continue
		}
		v, err := valueIn(f.segs[loc.file], loc)
		if err != nil {
			return nil, nil, fmt.Errorf("store: reading %s: %w", k, err)
		}
		values[i] = append([]byte{}, v...)
		present[i] = true
	}
	return values, present, nil
}

// Get implements Backend: the key's location is resolved and its bytes
// copied under one shared lock, so Compact cannot retire the segment in
// between.
func (f *FileBackend) Get(key string) ([]byte, bool, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return nil, false, kvdb.ErrClosed
	}
	loc, ok := f.keys[key]
	if !ok {
		return nil, false, nil
	}
	v, err := valueIn(f.segs[loc.file], loc)
	if err != nil {
		return nil, false, fmt.Errorf("store: reading %s: %w", key, err)
	}
	return append([]byte{}, v...), true, nil
}

// ScanFrom implements Backend: a seek on the sorted key snapshot lands
// on the first key >= max(prefix, from), so a resumed scan never
// re-walks (or re-sorts) the keys already consumed. Keys stream off the
// snapshot lazily — an early stop from fn ends the sweep without the
// remaining range ever being copied or visited.
func (f *FileBackend) ScanFrom(prefix, from string, fn func(string, []byte) error) error {
	keys, err := f.sortedKeys()
	if err != nil {
		return err
	}
	for k := range keys.Range(prefix, from) {
		data, ok, err := f.Get(k)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := fn(k, data); err != nil {
			return err
		}
	}
	return nil
}

// Count implements Backend: two seeks on the sorted key snapshot.
func (f *FileBackend) Count(prefix string) (int, error) {
	keys, err := f.sortedKeys()
	if err != nil {
		return 0, err
	}
	return keys.Count(prefix, ""), nil
}

// Len returns the number of live keys.
func (f *FileBackend) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.keys)
}

// Segments reports how many packed segment files currently back live
// keys — the quantity Compact exists to shrink.
func (f *FileBackend) Segments() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	segs := make(map[string]bool)
	for _, loc := range f.keys {
		segs[loc.file] = true
	}
	return len(segs)
}

// Compact merges every packed segment into one freshly written segment
// (the kvdb Compact analogue for the file layout): each Record call
// leaves its own two small PSEG1 files, so a long-lived store
// accumulates thousands of tiny segments that slow reopen and waste
// directory entries. Only live entries survive the merge; superseded
// values and tombstones are dropped, so deleted keys' bytes are
// reclaimed here.
//
// Crash safety: the merged segment is written to a temp file and
// renamed in under its pre-allocated sequence number, so it replays
// after (and consistently with) the segments it replaces; the old files
// are removed only after the rename. A crash in between leaves both —
// the replay resolves every key to the same bytes either way.
//
// The merge runs incrementally — the expensive rewrite works against a
// snapshot with no lock held while writers keep landing segments — in
// three phases. Phase 1 (short exclusive section, like phase 3):
// snapshot every key's location and the segment handles, and claim the
// merged segment's sequence number — the "boundary". Every segment a
// concurrent writer lands during the rewrite gets a HIGHER sequence and
// therefore replays after the merged output, which is what makes the
// on-disk state consistent at every instant without any content redo.
// Phase 2 (no lock): copy the snapshot values out of the snapshot
// handles (only Compact and Close unmap, and both hold compactMu, so
// those handles stay mapped) and write the merged segment under the
// boundary sequence. Phase 3 (short exclusive section): repoint every
// key that still resolves to
// its snapshot location — keys overwritten or deleted during the
// rewrite keep their newer location and their merged copy is born dead
// — then retire the victims (sequence below the boundary) and settle
// the byte accounting from deadSinceSnap, which tracked garbage born in
// surviving segments while the rewrite ran.
func (f *FileBackend) Compact() error {
	f.compactMu.Lock()
	defer f.compactMu.Unlock()

	type snapEntry struct {
		key string
		loc fileLoc
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return kvdb.ErrClosed
	}
	liveSegs := make(map[string]bool)
	snap := make([]snapEntry, 0, len(f.keys))
	perKeyEmpty := false // an earlier version's form, which the merge rewrites
	for k, loc := range f.keys {
		liveSegs[loc.file] = true
		perKeyEmpty = perKeyEmpty || loc.vlen == 0
		snap = append(snap, snapEntry{key: k, loc: loc})
	}
	segs := maps.Clone(f.segs)
	if len(liveSegs) <= 1 && len(f.tombstones) == 0 && f.deadBytes == 0 && !perKeyEmpty {
		f.mu.Unlock()
		return nil // nothing to merge, nothing to reclaim
	}
	f.segSeq++
	boundary := f.segSeq
	f.compactBoundary = boundary
	f.deadSinceSnap = 0
	f.mu.Unlock()

	abort := func(e error) error {
		f.mu.Lock()
		f.compactBoundary = 0
		f.deadSinceSnap = 0
		f.mu.Unlock()
		return e
	}

	sort.Slice(snap, func(i, j int) bool { return snap[i].key < snap[j].key })
	size := int64(len(segMagic))
	for _, s := range snap {
		size += s.loc.size(s.key)
	}
	name := fmt.Sprintf("%016x%s", boundary, segExt)
	buf := append(make([]byte, 0, size), segMagic...)
	type placed struct {
		key          string
		snapLoc, loc fileLoc
	}
	locs := make([]placed, 0, len(snap))
	// Keys with a value keep per-key entries; each run of empty-valued
	// keys, sorted and distinct already, goes into key-batch entries.
	var run []string
	for i := 0; i < len(snap); {
		if s := snap[i]; s.loc.vlen > 0 {
			value, err := valueIn(segs[s.loc.file], s.loc)
			if err != nil {
				return abort(fmt.Errorf("store: compacting %s: %w", s.key, err))
			}
			buf = appendSegEntry(buf, s.key, value)
			loc := fileLoc{file: name, off: int64(len(buf) - 4 - len(value)), vlen: len(value)}
			locs = append(locs, placed{key: s.key, snapLoc: s.loc, loc: loc})
			i++
			continue
		}
		start := i
		run = run[:0]
		for ; i < len(snap) && snap[i].loc.vlen <= 0; i++ {
			run = append(run, snap[i].key)
		}
		for done := 0; done < len(run); {
			n := kv.FitKeyBatch(run[done:])
			at := len(buf)
			buf = appendSegKeyBatch(buf, run[done:done+n], false)
			for j, s := range snap[start+done : start+done+n] {
				share := kv.KeyShare(int64(len(buf)-at), n, j)
				locs = append(locs, placed{key: s.key, snapLoc: s.loc, loc: fileLoc{file: name, off: int64(at), vlen: -int(share)}})
			}
			done += n
		}
	}

	merged, err := publishFile(filepath.Join(f.dir, name), buf)
	if err != nil {
		return abort(fmt.Errorf("store: writing compacted segment: %w", err))
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	f.addSegLocked(name, merged)
	// Repoint keys whose location is still exactly the snapshot one; a
	// key overwritten or deleted during the rewrite keeps its newer
	// location, and its merged copy counts straight into the new dead
	// tally (the concurrent write's own accounting already covered the
	// old copy it superseded).
	var mergedDead int64
	for _, l := range locs {
		if cur, ok := f.keys[l.key]; ok && cur == l.snapLoc {
			f.keys[l.key] = l.loc
		} else {
			mergedDead += l.loc.size(l.key)
		}
	}
	// Retire the victims: every sequence-named segment BELOW the
	// boundary — live-backed, superseded-only, or tombstone-only, all are
	// garbage now. Segments above it were written during the rewrite and
	// are live; a foreign .seg file (unknown magic, skipped at open) is
	// left alone. Removal goes in ASCENDING sequence order and stops at
	// the first failure: a put segment that refuses to go while a LATER
	// tombstone segment is removed would resurrect the deleted key on
	// replay (the tombstone outranked the put only by sequence). Stopping
	// keeps every remaining segment's replay consistent — older puts stay
	// overridden by the segments after them — and the stragglers are
	// retried by the next Compact.
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		f.compactBoundary = 0
		f.deadSinceSnap = 0
		return fmt.Errorf("store: listing %s after compaction: %w", f.dir, err)
	}
	var removeErr error
	for _, e := range entries { // ReadDir sorts: fixed-width hex names replay order
		n := e.Name()
		if !strings.HasSuffix(n, segExt) {
			continue
		}
		seq, ok := segSeqOf(n)
		if !ok || seq >= boundary {
			continue // foreign, the merged output, or written during the rewrite
		}
		if err := os.Remove(filepath.Join(f.dir, n)); err != nil && !os.IsNotExist(err) {
			removeErr = fmt.Errorf("store: removing compacted segment %s: %w", n, err)
			break
		}
		// The file is gone, so its handle goes too: no reader holds f.mu,
		// and no key points into the segment any more.
		if m := f.segs[n]; m != nil {
			delete(f.segs, n)
			f.segBytes -= int64(len(m.data))
			_ = m.close()
		}
	}
	var newLive int64
	for k, loc := range f.keys {
		newLive += loc.size(k)
	}
	f.liveBytes = newLive
	f.compactBoundary = 0
	if removeErr == nil {
		// Tombstones the snapshot covered are fully reclaimed: their
		// segments are gone, and with them every older copy of their
		// keys. Ones written during the rewrite live in surviving
		// segments and must stay.
		for k, seq := range f.tombstones {
			if seq <= boundary {
				delete(f.tombstones, k)
			}
		}
		f.deadBytes = f.deadSinceSnap + mergedDead
	}
	// On a removal failure the merged segment is authoritative and the
	// directory replays consistently — but the leftover victims (tombstone
	// segments included) are still on disk, so the tombstone set and the
	// dead-byte count MUST survive: forgetting them would make the next
	// Compact early-return instead of retrying the removal.
	f.deadSinceSnap = 0
	return removeErr
}

// GarbageRatio reports the fraction of packed-segment bytes occupied by
// dead entries (superseded values, tombstones, tombstoned values) — the
// signal online compaction schedules on. Zero when no segments exist.
func (f *FileBackend) GarbageRatio() float64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	total := f.liveBytes + f.deadBytes
	if total <= 0 {
		return 0
	}
	return float64(f.deadBytes) / float64(total)
}

// Tombstones reports how many deleted keys still have a live tombstone
// entry awaiting compaction.
func (f *FileBackend) Tombstones() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.tombstones))
}

// Close implements Backend: it waits for a running Compact, releases
// every segment handle (unmapping where mapped), and leaves every later
// operation failing with kvdb.ErrClosed, as kvdb's do. Close is
// idempotent.
func (f *FileBackend) Close() error {
	f.compactMu.Lock()
	defer f.compactMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	for name, m := range f.segs {
		if err := m.close(); err != nil && first == nil {
			first = fmt.Errorf("store: unmapping segment %s: %w", name, err)
		}
	}
	f.segs, f.segBytes, f.closed = nil, 0, true
	return first
}
