package store

// PSEG1 is the directory layout that earlier versions of the file
// backend wrote: packed segment files (<seq>.seg, %016x-named so that
// name order is write order), and before those one file pair per record
// (<hash>.rec body, <hash>.rec.key sidecar). Nothing writes it any more.
// NewKVBackend reads what such a version left in its directory once,
// into the kvdb log, and removes it (adoptFileLayout).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"preserv/internal/kv"
	"preserv/internal/kvdb"
)

const (
	segExt = ".seg"
	// tmpExt marks a segment a crash left unpublished, and bloomExt the
	// per-segment filter sidecars (<seq>.seg.bloom) of still earlier
	// versions. Neither was ever replayed; adoption removes both.
	tmpExt   = ".tmp"
	bloomExt = ".bloom"
	// segMagic heads every packed segment file.
	segMagic = "PSEG1\n"
	// recExt and recKeyExt end the per-record file pairs.
	recExt    = ".rec"
	recKeyExt = ".rec.key"
	// adoptBatchBytes bounds the values one adopting PutBatch carries.
	adoptBatchBytes = 4 << 20
)

// segTombstoneVal is the reserved valLen marking a segment entry as a
// tombstone: the entry carries no value and deletes its key.
const segTombstoneVal = ^uint64(0)

// segKeyBatchVal is the reserved valLen marking a key-batch entry: the
// keyLen slot holds the length of the kv.AppendKeyBatch body that
// follows, and the CRC covers the whole entry, lengths included.
const segKeyBatchVal = segTombstoneVal - 1

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
// CRC covers the key alone. segKeyBatchVal is a key batch: keyLen bytes
// of kv key-batch body follow, and the CRC covers the entry from its
// first byte. Lengths are validated in uint64 before any int conversion
// so a corrupt varint cannot overflow the bounds check into a panic —
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

// seqNamed reports whether name is a sequence-numbered segment name
// (%016x.seg) rather than a foreign one.
func seqNamed(name string) bool {
	_, err := strconv.ParseUint(strings.TrimSuffix(name, segExt), 16, 64)
	return err == nil && strings.HasSuffix(name, segExt)
}

// adoptFileLayout writes what an earlier version's file layout left in
// dir into db, in the order that version's open replayed it — record
// pairs first, then segments in sequence order, each entry in order —
// and then removes it.
//
// Removal waits for db.Sync and goes in the same order: leftover temps
// and filter sidecars, then pairs, then segments ascending. A crash
// part way leaves a suffix of that order beside the adopted log, and
// replaying a suffix over the adopted state changes nothing: each key's
// last writer is either in the suffix or untouched by it. The directory
// is synced before the open returns, so a power cut cannot bring removed
// segments back behind writes the log accepted after it (kvdb does not
// sync its write path).
func adoptFileLayout(db *kvdb.DB, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: listing %s: %w", dir, err)
	}
	var leftovers, pairs, segs []string
	for _, e := range entries { // ReadDir sorts: fixed-width hex names in write order
		name := e.Name()
		switch {
		case e.IsDir():
		case strings.HasSuffix(name, recExt), strings.HasSuffix(name, recKeyExt):
			pairs = append(pairs, name)
		case strings.HasSuffix(name, segExt):
			segs = append(segs, name)
		case strings.HasSuffix(name, tmpExt), strings.HasSuffix(name, bloomExt):
			if seqNamed(strings.TrimSuffix(strings.TrimSuffix(name, tmpExt), bloomExt)) {
				leftovers = append(leftovers, name)
			}
		}
	}
	if len(leftovers)+len(pairs)+len(segs) == 0 {
		return nil
	}
	if err := adoptPairs(db, dir, pairs); err != nil {
		return err
	}
	adopted := segs[:0]
	for _, name := range segs {
		ok, err := adoptSegment(db, dir, name)
		if err != nil {
			return err
		}
		if ok {
			adopted = append(adopted, name)
		}
	}
	if err := db.Sync(); err != nil {
		return fmt.Errorf("store: syncing adopted files: %w", err)
	}
	for _, names := range [][]string{leftovers, pairs, adopted} {
		for _, name := range names {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("store: removing adopted %s: %w", name, err)
			}
		}
	}
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("store: syncing %s: %w", dir, err)
	}
	return nil
}

// adoptPairs puts every whole record pair among names. A body without
// its sidecar is a torn write, which no version ever replayed.
func adoptPairs(db *kvdb.DB, dir string, names []string) error {
	var batch []KV
	size := 0
	for _, name := range names {
		if !strings.HasSuffix(name, recExt) {
			continue
		}
		key, err := os.ReadFile(filepath.Join(dir, name+".key"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: adopting %s: %w", name, err)
		}
		if len(key) == 0 {
			continue
		}
		value, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("store: adopting %s: %w", name, err)
		}
		batch = append(batch, KV{Key: string(key), Value: value})
		if size += len(value); size >= adoptBatchBytes {
			if err := db.PutBatch(batch); err != nil {
				return fmt.Errorf("store: adopting %s: %w", name, err)
			}
			batch, size = batch[:0], 0
		}
	}
	if err := db.PutBatch(batch); err != nil {
		return fmt.Errorf("store: adopting record files: %w", err)
	}
	return nil
}

// adoptSegment applies one segment's entries to db in order: puts and
// key batches as PutBatch, tombstones as DeleteBatch. A corrupt entry
// ends the segment (everything after a torn write is unreliable); a file
// without the PSEG1 magic is not a segment, and it reports false so that
// the file is left in place.
func adoptSegment(db *kvdb.DB, dir, name string) (bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return false, fmt.Errorf("store: adopting segment %s: %w", name, err)
	}
	if !strings.HasPrefix(string(data), segMagic) {
		return false, nil
	}
	var puts []KV
	size := 0
	flush := func() error {
		err := db.PutBatch(puts)
		puts, size = puts[:0], 0
		return err
	}
	for off := len(segMagic); off < len(data); {
		e, ok := parseSegEntry(data, off)
		if !ok {
			break
		}
		off += e.size
		var err error
		switch {
		case e.batch.Delete():
			keys := make([]string, 0, e.batch.Len())
			for _, key := range e.batch.All() {
				keys = append(keys, string(key))
			}
			if err = flush(); err == nil {
				err = db.DeleteBatch(keys)
			}
		case e.batch.Len() > 0:
			for _, key := range e.batch.All() {
				puts = append(puts, KV{Key: string(key)})
			}
		case e.tomb:
			if err = flush(); err == nil {
				err = db.DeleteBatch([]string{e.key})
			}
		default:
			puts = append(puts, KV{Key: e.key, Value: data[e.valOff : e.valOff+e.valLen]})
			if size += e.valLen; size >= adoptBatchBytes {
				err = flush()
			}
		}
		if err != nil {
			return false, fmt.Errorf("store: adopting segment %s: %w", name, err)
		}
	}
	if err := flush(); err != nil {
		return false, fmt.Errorf("store: adopting segment %s: %w", name, err)
	}
	return true, nil
}
