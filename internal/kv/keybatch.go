package kv

import (
	"cmp"
	"encoding/binary"
	"errors"
	"iter"
	"math/bits"
	"slices"
	"sync"
)

// A key batch is the key-only entry kind of the kvdb log, and of the
// PSEG1 segments earlier versions wrote, which the store still reads: a
// set of keys that are all put with an
// empty value, or all deleted, in one entry. The body is
//
//	flags byte (keyBatchDelete, or 0 for a put)
//	uvarint count
//	count × (uvarint shared, uvarint restLen, rest)
//
// with the keys sorted and distinct, each written as the first shared
// bytes of the key before it followed by rest. Index postings sorted
// this way share most of their bytes with their neighbours. The backend
// that embeds a body frames it: its length and one CRC over the entry.

const keyBatchDelete = 1

// KeyBatchMax bounds the key bytes of one key-batch entry: a writer
// starts a new entry rather than take a batch past it, which bounds what
// a replay holds in memory for one entry. A single longer key still gets
// an entry of its own.
const KeyBatchMax = 1 << 20

var errKeyBatch = errors.New("kv: malformed key batch")

// SortKeys sorts keys in place and returns them without duplicates: the
// order AppendKeyBatch needs.
//
// Index postings share long prefixes, and a plain sort of a large run of
// them spends most of its time in comparisons that walk those prefixes
// through memory. So past a few dozen keys SortKeys first deals the keys,
// in one pass, into groups by the eight bytes that follow the prefix all
// of them share (for postings: one group per index dimension), and sorts
// each group on its own. On the repository benchmark's postings that cost
// 55 % less than one plain sort, and 30 % less with their identifiers
// made random. A run that differs there in more than maxGroups ways gets
// a plain sort.
func SortKeys(keys []string) []string {
	if len(keys) < 64 || !sortByGroup(keys) {
		slices.Sort(keys)
	}
	return slices.Compact(keys)
}

// maxGroups bounds the groups sortByGroup deals keys into.
const maxGroups = 32

// sortByGroup sorts keys by dealing them into groups by the word after
// their common prefix, or reports false, leaving keys as they were, if
// there are more than maxGroups such words.
func sortByGroup(keys []string) bool {
	l := len(keys[0])
	for _, k := range keys[1:] {
		l = commonPrefix(keys[0][:l], k)
	}
	type group struct {
		w        uint64
		n        int
		at, size int
	}
	var groups [maxGroups]group
	ng := 0
	find := func(k string) int {
		w, n := wordAt(k, l)
		g := 0
		for g < ng && (groups[g].w != w || groups[g].n != n) {
			g++
		}
		return g
	}
	for _, k := range keys {
		g := find(k)
		if g == ng {
			if ng == maxGroups {
				return false
			}
			groups[g].w, groups[g].n = wordAt(k, l)
			ng++
		}
		groups[g].size++
	}
	// Keys that share l bytes order by the zero-padded word after them,
	// then, on a tie, the shorter first.
	slices.SortFunc(groups[:ng], func(a, b group) int {
		if a.w != b.w {
			return cmp.Compare(a.w, b.w)
		}
		return a.n - b.n
	})
	at := 0
	for g := range groups[:ng] {
		groups[g].at = at
		at += groups[g].size
	}
	// Deal into a copy in one pass over the keys as they came, which
	// reads their bytes in the order they were allocated in and keeps
	// that order within each group.
	buf := dealBufs.Get().(*[]string)
	if cap(*buf) < len(keys) {
		*buf = make([]string, len(keys))
	}
	out := (*buf)[:len(keys)]
	for _, k := range keys {
		g := find(k)
		out[groups[g].at] = k
		groups[g].at++
	}
	for _, g := range groups[:ng] {
		slices.Sort(out[g.at-g.size : g.at])
	}
	copy(keys, out)
	clear(out)
	dealBufs.Put(buf)
	return true
}

// dealBufs holds the copies sortByGroup deals keys into, so that sorting
// a run allocates nothing once a buffer of its size has been made.
var dealBufs = sync.Pool{New: func() any { return new([]string) }}

// wordAt returns the up to eight bytes of s from d on, big-endian and
// zero-padded, and how many of them s has.
func wordAt(s string, d int) (w uint64, n int) {
	if len(s)-d >= 8 {
		s = s[d : d+8]
		return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
			uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7]), 8
	}
	n = len(s) - d
	for i := range 8 {
		w <<= 8
		if i < n {
			w |= uint64(s[d+i])
		}
	}
	return w, n
}

// commonPrefix returns how many leading bytes a and b share, comparing
// eight at a time (the compiler makes each eight one load).
func commonPrefix(a, b string) int {
	m := min(len(a), len(b))
	n := 0
	for ; n+8 <= m; n += 8 {
		if x := le64(a[n:]) ^ le64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
	}
	for n < m && a[n] == b[n] {
		n++
	}
	return n
}

// le64 is the first eight bytes of s, little-endian.
func le64(s string) uint64 {
	s = s[:8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// FitKeyBatch returns how many keys from the front of keys one entry
// takes: as many as fit in KeyBatchMax bytes of key, and at least one.
func FitKeyBatch(keys []string) int {
	raw := 0
	for i, k := range keys {
		if raw += len(k); raw > KeyBatchMax && i > 0 {
			return i
		}
	}
	return len(keys)
}

// AppendKeyBatch appends to dst the body of a batch that puts (or, with
// del, deletes) keys, which must be sorted and distinct, as SortKeys
// leaves them.
func AppendKeyBatch(dst []byte, keys []string, del bool) []byte {
	flags := byte(0)
	if del {
		flags = keyBatchDelete
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	prev := ""
	for _, k := range keys {
		shared := commonPrefix(prev, k)
		dst = binary.AppendUvarint(dst, uint64(shared))
		dst = binary.AppendUvarint(dst, uint64(len(k)-shared))
		dst = append(dst, k[shared:]...)
		prev = k
	}
	return dst
}

// KeyShare is how many of a key-batch entry's size bytes its i-th of n
// keys is charged: the size split evenly, the remainder going to the
// first keys, so the shares of all n keys sum to size exactly. kvdb
// charges a batch-resident key this share in its garbage accounting, so
// deleting every key of an entry makes all of it garbage.
func KeyShare(size int64, n, i int) int64 {
	s := size / int64(n)
	if int64(i) < size%int64(n) {
		s++
	}
	return s
}

// KeyBatch is a key-batch body that ParseKeyBatch has checked whole.
type KeyBatch struct {
	keys []byte // the coded keys, after the count
	n    int
	del  bool
}

// ParseKeyBatch checks body whole before anything is applied, so a batch
// is taken entirely or not at all: every length must stay inside the
// body, no key may share more bytes than the key before it has, no key
// may be empty, and the count must account for the body exactly.
func ParseKeyBatch(body []byte) (KeyBatch, error) {
	if len(body) == 0 || body[0]&^keyBatchDelete != 0 {
		return KeyBatch{}, errKeyBatch
	}
	n, w := binary.Uvarint(body[1:])
	if w <= 0 {
		return KeyBatch{}, errKeyBatch
	}
	keys := body[1+w:]
	// Every key takes at least its two one-byte lengths.
	if n == 0 || n > uint64(len(keys))/2 {
		return KeyBatch{}, errKeyBatch
	}
	rest := keys
	prevLen := uint64(0)
	for range n {
		shared, a := binary.Uvarint(rest)
		if a <= 0 {
			return KeyBatch{}, errKeyBatch
		}
		restLen, b := binary.Uvarint(rest[a:])
		if b <= 0 {
			return KeyBatch{}, errKeyBatch
		}
		rest = rest[a+b:]
		if shared > prevLen || restLen > uint64(len(rest)) || shared+restLen == 0 {
			return KeyBatch{}, errKeyBatch
		}
		rest = rest[restLen:]
		prevLen = shared + restLen
	}
	if len(rest) != 0 {
		return KeyBatch{}, errKeyBatch
	}
	return KeyBatch{keys: keys, n: int(n), del: body[0]&keyBatchDelete != 0}, nil
}

// Len is how many keys the batch holds.
func (b KeyBatch) Len() int { return b.n }

// Delete reports whether the batch deletes its keys rather than puts them.
func (b KeyBatch) Delete() bool { return b.del }

// All yields each key with its position in the batch. The key's bytes
// are reused from one yield to the next: a caller that keeps a key
// copies it.
func (b KeyBatch) All() iter.Seq2[int, []byte] {
	return func(yield func(int, []byte) bool) {
		var key []byte
		rest := b.keys
		for i := range b.n {
			shared, a := binary.Uvarint(rest)
			restLen, c := binary.Uvarint(rest[a:])
			rest = rest[a+c:]
			key = append(key[:shared], rest[:restLen]...)
			rest = rest[restLen:]
			if !yield(i, key) {
				return
			}
		}
	}
}
