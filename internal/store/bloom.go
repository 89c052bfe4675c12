package store

// Per-segment bloom filters and the store-wide negative filter built
// from them.
//
// The in-memory key directory is exact, so blooms here are not about
// routing a key to the right segment — they are about answering "this
// key does not exist" without touching f.mu at all. Writers hold f.mu
// across segment file I/O, so a point-Get of an absent key (a dangling
// posting, a cross-shard miss, a kvdb-style existence probe) used to
// queue behind every in-flight write; the aggregate filter answers it
// lock-free.
//
// Per-segment filters are the persistence and rebuild unit: one filter
// is built per PSEG1 segment at write/compact time, persisted in a
// <segment>.bloom sidecar for large segments, and rebuilt from the
// parsed segment at open when the sidecar is missing or damaged. A
// crash-truncated segment replays a strict PREFIX of the keys its
// sidecar was built over, so a structurally valid sidecar is always a
// superset of the live keys — trustable as a bloom without per-key
// validation. All widths are powers of two, so segment filters fold
// into the wider aggregate by cyclic word replication.

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"path/filepath"
	"sync/atomic"
)

const (
	// bloomExt names a segment's bloom sidecar: <segment>.seg.bloom.
	bloomExt = ".bloom"
	// bloomMagic heads every sidecar.
	bloomMagic = "PBLM1\n"
	// bloomK is the probe count per key.
	bloomK = 6
	// bloomBitsPerKey sizes filters: ~10 bits/key at k=6 gives a design
	// false-positive rate under 1%.
	bloomBitsPerKey = 10
	// bloomMinBits floors tiny filters so the smallest segments still
	// get a useful width.
	bloomMinBits = 512
	// bloomSidecarMinKeys: segments below this skip the sidecar write —
	// re-hashing a few thousand already-parsed keys at open costs tens
	// of microseconds, while the sidecar's two extra file syscalls per
	// ingest batch measurably cut write throughput (the ingest floor is
	// a CI gate, and profiling put the sidecar at ~7% of PutBatch). The
	// threshold therefore sits above the async shipper's batch sizes;
	// large compacted segments are the sidecar's payoff.
	bloomSidecarMinKeys = 4096
)

// bloomHashes derives the double-hashing pair for key: h1 is FNV-1a,
// h2 an odd splitmix of it, so probe i lands on (h1 + i*h2) & mask — k
// probes from one pass over the key bytes.
func bloomHashes(key string) (h1, h2 uint64) {
	h1 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h1 ^= uint64(key[i])
		h1 *= 1099511628211
	}
	h2 = h1
	h2 ^= h2 >> 30
	h2 *= 0xbf58476d1ce4e5b9
	h2 ^= h2 >> 27
	h2 *= 0x94d049bb133111eb
	h2 ^= h2 >> 31
	return h1, h2 | 1
}

// bloomBitsFor picks the power-of-two bit width for n keys.
func bloomBitsFor(n int) uint64 {
	b := uint64(n) * bloomBitsPerKey
	if b < bloomMinBits {
		b = bloomMinBits
	}
	return nextPow2(b)
}

func nextPow2(x uint64) uint64 {
	if x <= 1 {
		return 1
	}
	return 1 << bits.Len64(x-1)
}

// bloomFilter is a single-writer per-segment filter, built under f.mu
// at segment write/compact time or from a parsed segment at open.
type bloomFilter struct {
	k     uint32
	words []uint64
}

func newBloomFilter(nkeys int) *bloomFilter {
	return &bloomFilter{k: bloomK, words: make([]uint64, bloomBitsFor(nkeys)/64)}
}

func (b *bloomFilter) mask() uint64 { return uint64(len(b.words))*64 - 1 }

func (b *bloomFilter) add(key string) {
	h1, h2 := bloomHashes(key)
	m := b.mask()
	for i := uint64(0); i < uint64(b.k); i++ {
		bit := (h1 + i*h2) & m
		b.words[bit>>6] |= 1 << (bit & 63)
	}
}

func (b *bloomFilter) mayContain(key string) bool {
	h1, h2 := bloomHashes(key)
	m := b.mask()
	for i := uint64(0); i < uint64(b.k); i++ {
		bit := (h1 + i*h2) & m
		if b.words[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// encodeBloomSidecar renders a sidecar: magic, uvarint probe count,
// uvarint word count, uvarint keys-at-build, little-endian words, then
// a big-endian CRC32 (IEEE) over everything after the magic.
func encodeBloomSidecar(b *bloomFilter, nkeys int) []byte {
	buf := []byte(bloomMagic)
	buf = binary.AppendUvarint(buf, uint64(b.k))
	buf = binary.AppendUvarint(buf, uint64(len(b.words)))
	buf = binary.AppendUvarint(buf, uint64(nkeys))
	for _, w := range b.words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf[len(bloomMagic):]))
	return append(buf, crc[:]...)
}

// decodeBloomSidecar parses a sidecar. Any structural damage — bad
// magic, bad CRC, zero or non-power-of-two width, absurd probe count —
// returns ok=false and the caller rebuilds from the parsed segment:
// sidecars are an optimization, never a source of truth.
func decodeBloomSidecar(data []byte) (b *bloomFilter, nkeys int, ok bool) {
	if len(data) < len(bloomMagic)+4 || string(data[:len(bloomMagic)]) != bloomMagic {
		return nil, 0, false
	}
	body := data[len(bloomMagic) : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[len(data)-4:]) {
		return nil, 0, false
	}
	k, n := binary.Uvarint(body)
	if n <= 0 || k == 0 || k > 32 {
		return nil, 0, false
	}
	body = body[n:]
	wc, n := binary.Uvarint(body)
	if n <= 0 || wc == 0 || wc > 1<<26 || wc&(wc-1) != 0 {
		return nil, 0, false
	}
	body = body[n:]
	nk, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, 0, false
	}
	body = body[n:]
	if uint64(len(body)) != wc*8 {
		return nil, 0, false
	}
	words := make([]uint64, wc)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(body[i*8:])
	}
	return &bloomFilter{k: uint32(k), words: words}, int(nk), true
}

// writeBloomSidecar persists a segment's filter, published like the
// segment itself. Best-effort: a missing sidecar only means a rebuild
// at the next open.
func (f *FileBackend) writeBloomSidecar(segName string, b *bloomFilter, nkeys int) {
	_ = publishFile(filepath.Join(f.dir, segName+bloomExt), encodeBloomSidecar(b, nkeys))
}

// negFilter is the store-wide negative filter: the lock-free aggregate
// of every live segment filter plus the record-file keys. Point-Gets
// and GetBatch consult it BEFORE f.mu, so absent keys short-circuit
// without queuing behind writers. It may over-approximate (deleted
// keys linger until the next rebuild washes them out); it never
// under-approximates a live key.
type negFilter struct {
	k    uint32
	mask uint64
	// n approximates the keys folded in since the build; past cap the
	// next writer rebuilds, keeping the false-positive rate bounded.
	n     atomic.Int64
	cap   int64
	words []atomic.Uint64
}

func newNegFilter(capKeys int) *negFilter {
	nbits := bloomBitsFor(capKeys)
	return &negFilter{
		k:     bloomK,
		mask:  nbits - 1,
		cap:   int64(nbits / bloomBitsPerKey),
		words: make([]atomic.Uint64, nbits/64),
	}
}

// add folds one key in. Callers hold f.mu (single writer); readers run
// lock-free against the atomic words.
func (nf *negFilter) add(key string) {
	h1, h2 := bloomHashes(key)
	for i := uint64(0); i < uint64(nf.k); i++ {
		bit := (h1 + i*h2) & nf.mask
		nf.words[bit>>6].Or(1 << (bit & 63))
	}
	nf.n.Add(1)
}

func (nf *negFilter) mayContain(key string) bool {
	h1, h2 := bloomHashes(key)
	for i := uint64(0); i < uint64(nf.k); i++ {
		bit := (h1 + i*h2) & nf.mask
		if nf.words[bit>>6].Load()&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// overfull reports whether enough keys were folded in that the
// false-positive rate may have drifted past the design point.
func (nf *negFilter) overfull() bool { return nf.n.Load() > nf.cap }

// orFilter folds a whole segment filter in by cyclic word replication:
// with both widths powers of two and the aggregate at least as wide,
// bit b of the segment filter maps to every aggregate bit congruent to
// b modulo the segment width — exactly the positions any hash landing
// on b can occupy under the wider mask. Returns false (nothing folded)
// when the shapes are incompatible and the caller must rebuild.
func (nf *negFilter) orFilter(b *bloomFilter, nkeys int) bool {
	if b.k != nf.k || len(b.words) > len(nf.words) {
		return false
	}
	bmask := len(b.words) - 1
	for i := range nf.words {
		if w := b.words[i&bmask]; w != 0 {
			nf.words[i].Or(w)
		}
	}
	nf.n.Add(int64(nkeys))
	return true
}
