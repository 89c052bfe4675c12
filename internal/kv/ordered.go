package kv

import (
	"iter"
	"slices"
	"sort"
	"strings"
)

// chunkMax caps the length of a Keys chunk. A fold copies every chunk its
// delta reaches and re-lists the others, so it costs about touched chunks
// × chunkMax + n/chunkMax. At 128, a 100-key batch spread over 200k keys
// folds in under an eighth of a whole-snapshot copy; at 512 it would not.
const chunkMax = 128

// Keys is an immutable sorted key set: sorted chunks of at most chunkMax
// keys, none empty, and the cumulative count after each. A fold rebuilds
// only the chunks it touches and shares every other one with the snapshot
// before it, so readers iterate a Keys with no lock held.
type Keys struct {
	chunks [][]string
	ends   []int // ends[c] = keys in chunks[:c+1]
}

func newKeys(chunks [][]string) *Keys {
	ends := make([]int, len(chunks))
	n := 0
	for c, chunk := range chunks {
		n += len(chunk)
		ends[c] = n
	}
	return &Keys{chunks: chunks, ends: ends}
}

func (s *Keys) size() int {
	if len(s.ends) == 0 {
		return 0
	}
	return s.ends[len(s.ends)-1]
}

// seek returns the chunk and offset of the first key ok accepts, or
// (len(chunks), 0) when it accepts none: a binary search over the chunks'
// last keys, then one within a chunk. ok must be false up to some key and
// true from there on.
func (s *Keys) seek(ok func(string) bool) (c, i int) {
	c = sort.Search(len(s.chunks), func(c int) bool {
		chunk := s.chunks[c]
		return ok(chunk[len(chunk)-1])
	})
	if c < len(s.chunks) {
		chunk := s.chunks[c]
		i = sort.Search(len(chunk), func(i int) bool { return ok(chunk[i]) })
	}
	return c, i
}

// rank is the position in the whole set of chunk c's key i.
func (s *Keys) rank(c, i int) int {
	if c == 0 {
		return i
	}
	return s.ends[c-1] + i
}

// Count returns how many keys carry prefix and are >= from: two seeks,
// no copy.
func (s *Keys) Count(prefix, from string) int {
	lo := max(prefix, from)
	// Keys carrying the prefix are contiguous from lo on: any key at or
	// past a from that lacks the prefix lacks it too.
	end := s.rank(s.seek(func(k string) bool { return k >= lo && !strings.HasPrefix(k, prefix) }))
	return end - s.rank(s.seek(func(k string) bool { return k >= lo }))
}

// Range yields in order the keys that carry prefix and are >= from: one
// seek, then a walk along the chunks that ends at the first key without
// the prefix, or as soon as the caller stops.
func (s *Keys) Range(prefix, from string) iter.Seq[string] {
	return func(yield func(string) bool) {
		lo := max(prefix, from)
		c, i := s.seek(func(k string) bool { return k >= lo })
		for ; c < len(s.chunks); c, i = c+1, 0 {
			for _, k := range s.chunks[c][i:] {
				if !strings.HasPrefix(k, prefix) || !yield(k) {
					return
				}
			}
		}
	}
}

// Ordered keeps a sorted snapshot of the key set of a map its owner
// holds, so prefix counts and seeks are binary searches instead of a
// sort per call. It takes no lock of its own: the owner's RWMutex guards
// it, and every method names the side of that lock it needs. V is the
// owner's map value type; Ordered never looks at the values.
//
// A published snapshot is immutable — Fold replaces it, never edits it —
// so readers keep iterating a Keys they got from Clean or Fold after
// releasing the lock, and re-check each key against the owner's map.
//
// The zero value has no snapshot and tracks nothing: writes cost one nil
// check until Build, or the first Fold, makes one. A persistent owner
// calls Build as it opens, with the keys its replay met.
type Ordered[V any] struct {
	keys *Keys // nil = no snapshot
	// delta lists keys that entered or left the map since keys was
	// built, in touch order and possibly repeated; which way a key went
	// is not recorded — Fold asks the map.
	delta []string
}

// deltaFirstCap is delta's first capacity. It grows by doubling from
// here: append's ≈1.25× growth on large slices allocates ≈5× the final
// size in total, doubling 2×.
const deltaFirstCap = 64

// Touch records that key was added to or removed from the owner's map.
// Once more than a quarter of the snapshot (plus 64) has changed, a
// rebuild is cheaper than a fold: the snapshot is dropped and tracking
// stops, so a pure write phase pays nothing further. The owner's write
// lock must be held.
func (o *Ordered[V]) Touch(key string) {
	if o.keys == nil {
		return
	}
	if len(o.delta) > o.keys.size()/4+64 {
		o.keys, o.delta = nil, nil
		return
	}
	if len(o.delta) == cap(o.delta) {
		grown := make([]string, len(o.delta), max(2*cap(o.delta), deltaFirstCap))
		copy(grown, o.delta)
		o.delta = grown
	}
	o.delta = append(o.delta, key)
}

// Clean returns the snapshot and whether it is current. The owner's read
// lock must be held; when it reports false the caller takes the write
// lock and calls Fold.
func (o *Ordered[V]) Clean() (*Keys, bool) {
	return o.keys, o.keys != nil && len(o.delta) == 0
}

// Build makes the snapshot from scratch and returns it: keys must be the
// owner's live keys, in any order and possibly repeated. It sorts them in
// place with SortKeys, which also drops the repeats, and the snapshot's
// chunks share keys' array. Keys handed over in the order they were
// allocated in sort faster than the same keys in hash-map order: most of
// a large sort's time goes to reaching the keys' bytes, and the map
// scatters them. The owner's write lock must be held.
func (o *Ordered[V]) Build(keys []string) *Keys {
	keys = SortKeys(keys)
	o.keys = newKeys(split(make([][]string, 0, (len(keys)+chunkMax-1)/chunkMax), keys))
	o.delta = nil
	return o.keys
}

// Fold brings the snapshot up to date with live — the owner's map — and
// returns it: Build over live's keys when there is no snapshot; otherwise
// a new snapshot that rebuilds only the chunks the touched keys reach.
// The owner's write lock must be held.
func (o *Ordered[V]) Fold(live map[string]V) *Keys {
	if o.keys == nil {
		all := make([]string, 0, len(live))
		for k := range live {
			all = append(all, k)
		}
		return o.Build(all)
	}
	if len(o.delta) == 0 {
		return o.keys
	}
	sort.Strings(o.delta)
	o.keys = fold(o.keys, slices.Compact(o.delta), live)
	clear(o.delta) // release the key strings, keep the buffer
	o.delta = o.delta[:0]
	return o.keys
}

// fold returns s with the sorted, distinct touched keys delta applied.
// Each delta key goes to the first chunk whose last key is >= it, and the
// last chunk takes the rest. A chunk that received keys is rebuilt, live
// deciding whether each of its keys is in; one that ends up under
// chunkMax/4 joins its neighbour, and anything over chunkMax is split.
// Every other chunk is shared with s.
func fold[V any](s *Keys, delta []string, live map[string]V) *Keys {
	old := s.chunks
	if len(old) == 0 {
		old = [][]string{nil}
	}
	last := len(old) - 1
	out := make([][]string, 0, len(old)+min(len(delta), len(old)))
	var carry []string // a rebuilt first chunk too small to stand alone
	for c := 0; c <= last; c++ {
		if len(carry) == 0 {
			if len(delta) == 0 {
				out = append(out, old[c:]...)
				break
			}
			// Share every chunk before the one delta's first key goes to.
			to := c + sort.Search(last-c, func(i int) bool {
				chunk := old[c+i]
				return chunk[len(chunk)-1] >= delta[0]
			})
			out = append(out, old[c:to]...)
			c = to
		}
		chunk, n := old[c], len(delta)
		if c < last {
			n = sort.Search(n, func(j int) bool { return delta[j] > chunk[len(chunk)-1] })
		}
		keys := merge(append(make([]string, 0, len(carry)+len(chunk)+n), carry...), chunk, delta[:n], live)
		delta, carry = delta[n:], nil
		if len(keys) > 0 && len(keys) < chunkMax/4 {
			if len(out) == 0 && c < last {
				carry = keys // no chunk before it: it joins the next one
				continue
			}
			if len(out) > 0 {
				prev := out[len(out)-1]
				out = out[:len(out)-1]
				keys = append(append(make([]string, 0, len(prev)+len(keys)), prev...), keys...)
			}
		}
		out = split(out, keys)
	}
	return newKeys(out)
}

// merge appends to dst the ordered merge of chunk with its sorted,
// distinct touched keys: a touched key is in if live holds it, whether
// or not chunk had it.
func merge[V any](dst, chunk, touched []string, live map[string]V) []string {
	i := 0
	for _, k := range touched {
		j := i + sort.SearchStrings(chunk[i:], k)
		dst = append(dst, chunk[i:j]...)
		if j < len(chunk) && chunk[j] == k {
			j++ // in the old chunk: kept or dropped by the probe below
		}
		if _, ok := live[k]; ok {
			dst = append(dst, k)
		}
		i = j
	}
	return append(dst, chunk[i:]...)
}

// split appends keys to out as the fewest even chunks of at most
// chunkMax, none if keys is empty. The chunks share keys' array, each
// capped at its own end.
func split(out [][]string, keys []string) [][]string {
	for p := (len(keys) + chunkMax - 1) / chunkMax; p > 0; p-- {
		n := len(keys) / p
		out = append(out, keys[:n:n])
		keys = keys[n:]
	}
	return out
}
