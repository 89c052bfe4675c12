package kv

import (
	"iter"
	"sort"
	"strings"
)

// chunkMax caps the length of a Keys chunk. A fold copies every chunk its
// writes reach and re-lists the others, so it costs about touched chunks
// × chunkMax + n/chunkMax. At 128, a 100-key batch spread over 200k keys
// folds in under an eighth of a whole-snapshot copy; at 512 it would not.
const chunkMax = 128

// entry is one key of a Keys snapshot and the value its owner keeps
// with it.
type entry[V any] struct {
	key string
	val V
}

// Keys is an immutable sorted key set, each key with a value of type V:
// sorted chunks of at most chunkMax keys, none empty, and the cumulative
// count after each. A fold rebuilds only the chunks it touches and shares
// every other one with the snapshot before it, so readers iterate a Keys
// with no lock held.
type Keys[V any] struct {
	chunks [][]entry[V]
	ends   []int // ends[c] = keys in chunks[:c+1]
}

func newKeys[V any](chunks [][]entry[V]) *Keys[V] {
	ends := make([]int, len(chunks))
	n := 0
	for c, chunk := range chunks {
		n += len(chunk)
		ends[c] = n
	}
	return &Keys[V]{chunks: chunks, ends: ends}
}

// Len is how many keys the set holds.
func (s *Keys[V]) Len() int {
	if len(s.ends) == 0 {
		return 0
	}
	return s.ends[len(s.ends)-1]
}

// seek returns the chunk and offset of the first key ok accepts, or
// (len(chunks), 0) when it accepts none: a binary search over the chunks'
// last keys, then one within a chunk. ok must be false up to some key and
// true from there on.
func (s *Keys[V]) seek(ok func(string) bool) (c, i int) {
	c = sort.Search(len(s.chunks), func(c int) bool {
		chunk := s.chunks[c]
		return ok(chunk[len(chunk)-1].key)
	})
	if c < len(s.chunks) {
		chunk := s.chunks[c]
		i = sort.Search(len(chunk), func(i int) bool { return ok(chunk[i].key) })
	}
	return c, i
}

// rank is the position in the whole set of chunk c's key i.
func (s *Keys[V]) rank(c, i int) int {
	if c == 0 {
		return i
	}
	return s.ends[c-1] + i
}

// Get returns the value kept with key, and whether the set holds key.
func (s *Keys[V]) Get(key string) (V, bool) {
	c, i := s.seek(func(k string) bool { return k >= key })
	if c < len(s.chunks) && s.chunks[c][i].key == key {
		return s.chunks[c][i].val, true
	}
	var zero V
	return zero, false
}

// Count returns how many keys carry prefix and are >= from: two seeks,
// no copy.
func (s *Keys[V]) Count(prefix, from string) int {
	lo := max(prefix, from)
	// Keys carrying the prefix are contiguous from lo on: any key at or
	// past a from that lacks the prefix lacks it too.
	end := s.rank(s.seek(func(k string) bool { return k >= lo && !strings.HasPrefix(k, prefix) }))
	return end - s.rank(s.seek(func(k string) bool { return k >= lo }))
}

// Range yields in order the keys that carry prefix and are >= from, each
// with its value: one seek, then a walk along the chunks that ends at the
// first key without the prefix, or as soon as the caller stops.
func (s *Keys[V]) Range(prefix, from string) iter.Seq2[string, V] {
	return func(yield func(string, V) bool) {
		lo := max(prefix, from)
		c, i := s.seek(func(k string) bool { return k >= lo })
		for ; c < len(s.chunks); c, i = c+1, 0 {
			for _, e := range s.chunks[c][i:] {
				if !strings.HasPrefix(e.key, prefix) || !yield(e.key, e.val) {
					return
				}
			}
		}
	}
}

// Ordered is an owner's sorted key set: a published snapshot, so prefix
// counts and seeks are binary searches instead of a sort per call, and
// the writes made since, in write order, which the next Fold applies. It
// takes no lock of its own: the owner's RWMutex guards it, and every
// method names the side of that lock it needs. Each key carries a value
// of type V, which the owner chooses and Ordered only stores.
//
// A published snapshot is immutable — Fold replaces it, never edits it —
// so readers keep iterating a Keys they got from Clean or Fold after
// releasing the lock.
//
// The zero value is an empty set with no snapshot; the first Fold builds
// one from the writes, which is how a persistent owner builds its set as
// it opens: it replays its log into Put and Delete calls and folds.
type Ordered[V any] struct {
	keys *Keys[V] // nil until the first Fold
	// pending lists the writes since keys was built, in write order and
	// possibly several to a key; the last write to a key decides.
	pending []op[V]
	// spare is the other buffer sortOps merges through, kept between
	// folds like pending's.
	spare []op[V]
}

// op is one pending write: a put of key with val, or its deletion.
type op[V any] struct {
	entry[V]
	// tag's lowest bit is opDelete. Its seven bytes above hold, while
	// sortOps sorts the op, the first seven bytes of the key's word: the
	// bytes after the prefix every key it is sorted with shares, as
	// wordAt reads them. They decide most comparisons without reading
	// the key.
	tag uint64
}

// opDelete marks an op that deletes its key.
const opDelete = 1

func (w *op[V]) del() bool { return w.tag&opDelete != 0 }

// setWord puts the seven leading bytes of word in w's tag.
func (w *op[V]) setWord(word uint64) { w.tag = word&^0xff | w.tag&opDelete }

// less orders ops by key. Both must hold their words from one sort.
func (w *op[V]) less(x *op[V]) bool {
	if a, b := w.tag>>8, x.tag>>8; a != b {
		return a < b
	}
	return w.key < x.key
}

// pendingFirstCap is pending's first capacity. It grows by doubling from
// here: append's ≈1.25× growth on large slices allocates ≈5× the final
// size in total, doubling 2×.
const pendingFirstCap = 64

// Put records that key is in the set with val, whether or not it was
// before. A write costs one append. The owner's write lock must be held.
func (o *Ordered[V]) Put(key string, val V) {
	o.push(op[V]{entry: entry[V]{key: key, val: val}})
}

// Delete records that key is not in the set, whether or not it was
// before. The owner's write lock must be held.
func (o *Ordered[V]) Delete(key string) {
	o.push(op[V]{entry: entry[V]{key: key}, tag: opDelete})
}

func (o *Ordered[V]) push(w op[V]) {
	if len(o.pending) == cap(o.pending) {
		o.Reserve(max(2*cap(o.pending), pendingFirstCap))
	}
	o.pending = append(o.pending, w)
}

// Reserve makes room for n pending writes in all, so that an owner that
// can tell about how many writes are coming — a replay, from the part of
// the log it has read — appends them without regrowing the list. The
// owner's write lock must be held.
func (o *Ordered[V]) Reserve(n int) {
	if n > cap(o.pending) {
		grown := make([]op[V], len(o.pending), n)
		copy(grown, o.pending)
		o.pending = grown
	}
}

// Pending is how many writes the next Fold applies. The owner's read
// lock must be held.
func (o *Ordered[V]) Pending() int { return len(o.pending) }

// Clean returns the snapshot and whether it is current. The owner's read
// lock must be held; when it reports false the caller takes the write
// lock and calls Fold.
func (o *Ordered[V]) Clean() (*Keys[V], bool) {
	return o.keys, o.keys != nil && len(o.pending) == 0
}

// Fold applies the pending writes and returns the current snapshot. It
// sorts them by key, keeping write order among a key's writes, so the
// last write to each key decides whether it is in and with what value.
// Each value a write takes out of the set — a pending put that a later
// write to its key supersedes, or a snapshot key that a pending write
// reaches — goes to replaced, if it is not nil: the owner's accounting of
// what a value cost. With no snapshot the writes build one; otherwise the
// new snapshot rebuilds only the chunks they reach. The owner's write
// lock must be held.
func (o *Ordered[V]) Fold(replaced func(V)) *Keys[V] {
	if o.keys != nil && len(o.pending) == 0 {
		return o.keys
	}
	ops, spare := sortOps(o.pending, o.spare)
	base := o.keys
	if base == nil {
		base = &Keys[V]{}
	}
	o.keys = fold(base, settle(ops, replaced), replaced)
	// Keep both buffers for the next window unless they outgrew what a
	// fold's worth of writes needs: a build from a long write phase would
	// otherwise pin its pending list for good.
	if max(cap(ops), cap(spare)) > o.keys.Len()/4+pendingFirstCap {
		o.pending, o.spare = nil, nil
	} else {
		clear(ops) // release the key strings, keep the buffers
		clear(spare)
		o.pending, o.spare = ops[:0], spare[:0]
	}
	return o.keys
}

// sortOps sorts ops by key, keeping write order among equal keys, using
// spare (grown to len(ops) if need be) as its other buffer. It returns
// the sorted ops and the other buffer, which may be either of the two it
// was given.
//
// Pending writes arrive as sorted runs (a batch of an owner's keys comes
// sorted), interleaved: a replay meets each record's key, then its
// postings, one run per record. So past smallList ops sortOps first deals
// the ops, in one stable pass, into groups by the word after their common
// prefix, as SortKeys does — for a store's keys, one group per index
// dimension and one per record kind — which turns each dimension's
// postings into a few long runs. Then it merges each group's natural runs
// in Powersort's order, so the work tracks how unequal the runs' lengths
// are rather than how many runs there are. A sorted list costs one pass
// to find out that it is sorted; a list whose keys have more than
// maxGroups words is merged as one group.
func sortOps[V any](ops, spare []op[V]) (sorted, other []op[V]) {
	i := 1
	for i < len(ops) && ops[i].key >= ops[i-1].key {
		i++
	}
	if i >= len(ops) {
		return ops, spare
	}
	if cap(spare) < len(ops) {
		spare = make([]op[V], len(ops))
	}
	spare = spare[:len(ops)]
	d := dealer{shares: true}
	if len(ops) >= smallList && d.plan(len(ops), func(i int) string { return ops[i].key }) {
		for _, w := range ops {
			at, shared := d.deal(w.key)
			word, _ := wordAt(w.key, shared)
			w.setWord(word)
			spare[at] = w
		}
		start := 0
		for _, g := range d.groups[:d.n] {
			powersort(spare[start:g.at], ops[start:g.at])
			start = g.at
		}
		return spare, ops
	}
	setWords(ops)
	powersort(ops, spare)
	return ops, spare
}

// setWords sets each op's word, from the first byte at which the keys
// of ops differ.
func setWords[V any](ops []op[V]) {
	l := sharedPrefix(len(ops), func(i int) string { return ops[i].key })
	for i := range ops {
		word, _ := wordAt(ops[i].key, l)
		ops[i].setWord(word)
	}
}

// smallList is the shortest list sortOps deals into groups: the read
// path's folds are mostly a batch or two, which the run merge alone
// sorts faster.
const smallList = 64

// powersort sorts ops stably by key, merging adjacent natural runs as
// Munro and Wild's Powersort does (ESA 2018): each boundary between two
// runs gets a power, the depth at which a perfectly balanced merge tree
// over the whole list would first separate the runs' midpoints, and a
// run on the stack is merged with the one after it as soon as a later
// boundary has a lower power. The stack's powers only rise, so it holds
// at most one run per power. tmp, as long as ops, is the buffer a merge
// copies its first run into.
func powersort[V any](ops, tmp []op[V]) {
	n := len(ops)
	var stack [64]stackRun
	top := 0
	a, b := 0, nextRun(ops, 0)
	for b < n {
		c := nextRun(ops, b)
		p := nodePower(a, b, c, n)
		for top > 0 && stack[top-1].power > p {
			top--
			mergeRuns(ops, tmp, stack[top].start, a, b)
			a = stack[top].start
		}
		stack[top] = stackRun{a, p}
		top++
		a, b = b, c
	}
	for top > 0 {
		top--
		mergeRuns(ops, tmp, stack[top].start, a, n)
		a = stack[top].start
	}
}

// stackRun is a run on powersort's stack: where it starts, and the power
// of the boundary after it.
type stackRun struct{ start, power int }

// nextRun returns where the natural run of ops that starts at start
// ends.
func nextRun[V any](ops []op[V], start int) int {
	end := start + 1
	for end < len(ops) && !ops[end].less(&ops[end-1]) {
		end++
	}
	return end
}

// nodePower is the power of the boundary between the adjacent runs
// [a, b) and [b, c) of a list of n: the first bit at which the runs'
// midpoints, as fractions of n, differ.
func nodePower(a, b, c, n int) int {
	// Twice each midpoint, so that they stay integers; each step
	// compares the next bit of both fractions.
	x, y := a+b, b+c
	p := 0
	for {
		p++
		switch {
		case x >= n:
			x, y = x-n, y-n
		case y >= n:
			return p
		}
		x, y = 2*x, 2*y
	}
}

// mergeRuns merges the adjacent sorted runs ops[a:b] and ops[b:c] in
// place, taking the first run's op first among equal keys: it copies the
// first run into tmp, at the same positions, and merges from there.
func mergeRuns[V any](ops, tmp []op[V], a, b, c int) {
	lo := tmp[a:b]
	copy(lo, ops[a:b])
	i, j, k := 0, b, a
	for i < len(lo) && j < c {
		if ops[j].less(&lo[i]) {
			ops[k] = ops[j]
			j++
		} else {
			ops[k] = lo[i]
			i++
		}
		k++
	}
	copy(ops[k:], lo[i:])
}

// settle keeps the last of each key's sorted ops, and hands replaced the
// value of every put it drops.
func settle[V any](ops []op[V], replaced func(V)) []op[V] {
	out := ops[:0]
	for i, w := range ops {
		if i+1 < len(ops) && ops[i+1].key == w.key {
			if !w.del() && replaced != nil {
				replaced(w.val)
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// fold returns s with ops — sorted, one to a key — applied. Each op goes
// to the first chunk whose last key is >= its key, and the last chunk
// takes the rest. A chunk that received ops is rebuilt; one that ends up
// under chunkMax/4 joins its neighbour, and anything over chunkMax is
// split. Every other chunk is shared with s.
func fold[V any](s *Keys[V], ops []op[V], replaced func(V)) *Keys[V] {
	if len(ops) == 0 {
		return s
	}
	old := s.chunks
	if len(old) == 0 {
		old = [][]entry[V]{nil}
	}
	last := len(old) - 1
	out := make([][]entry[V], 0, len(old)+min(len(ops), len(old)))
	var carry []entry[V] // a rebuilt first chunk too small to stand alone
	for c := 0; c <= last; c++ {
		if len(carry) == 0 {
			if len(ops) == 0 {
				out = append(out, old[c:]...)
				break
			}
			// Share every chunk before the one the first op goes to.
			to := c + sort.Search(last-c, func(i int) bool {
				chunk := old[c+i]
				return chunk[len(chunk)-1].key >= ops[0].key
			})
			out = append(out, old[c:to]...)
			c = to
		}
		chunk, n := old[c], len(ops)
		if c < last {
			n = sort.Search(n, func(j int) bool { return ops[j].key > chunk[len(chunk)-1].key })
		}
		keys := merge(append(make([]entry[V], 0, len(carry)+len(chunk)+n), carry...), chunk, ops[:n], replaced)
		ops, carry = ops[n:], nil
		if len(keys) > 0 && len(keys) < chunkMax/4 {
			if len(out) == 0 && c < last {
				carry = keys // no chunk before it: it joins the next one
				continue
			}
			if len(out) > 0 {
				prev := out[len(out)-1]
				out = out[:len(out)-1]
				keys = append(append(make([]entry[V], 0, len(prev)+len(keys)), prev...), keys...)
			}
		}
		out = split(out, keys)
	}
	return newKeys(out)
}

// merge appends to dst the ordered merge of chunk with its sorted ops,
// one to a key: a put is in with its value, a delete is out, and a chunk
// key an op reaches goes to replaced.
func merge[V any](dst, chunk []entry[V], ops []op[V], replaced func(V)) []entry[V] {
	i := 0
	for _, w := range ops {
		j := i + sort.Search(len(chunk)-i, func(j int) bool { return chunk[i+j].key >= w.key })
		dst = append(dst, chunk[i:j]...)
		if j < len(chunk) && chunk[j].key == w.key {
			if replaced != nil {
				replaced(chunk[j].val)
			}
			j++
		}
		if !w.del() {
			dst = append(dst, w.entry)
		}
		i = j
	}
	return append(dst, chunk[i:]...)
}

// split appends keys to out as the fewest even chunks of at most
// chunkMax, none if keys is empty. The chunks share keys' array, each
// capped at its own end.
func split[V any](out [][]entry[V], keys []entry[V]) [][]entry[V] {
	for p := (len(keys) + chunkMax - 1) / chunkMax; p > 0; p-- {
		n := len(keys) / p
		out = append(out, keys[:n:n])
		keys = keys[n:]
	}
	return out
}
