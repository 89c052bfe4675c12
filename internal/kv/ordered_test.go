package kv

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// owner is the smallest thing that can own an Ordered: a model map, a
// lock, and the two writes that change the key set. Each put gives its
// key a new value, so the model can name every value a write takes out
// of the set, which Fold must hand to its callback once each.
type owner struct {
	mu      sync.RWMutex
	live    map[string]int
	keys    Ordered[int]
	seq     int
	removed []int // values the writes since the last fold took out
}

func newOwner() *owner { return &owner{live: make(map[string]int)} }

func (w *owner) put(k string) {
	if old, ok := w.live[k]; ok {
		w.removed = append(w.removed, old)
	}
	w.seq++
	w.live[k] = w.seq
	w.keys.Put(k, w.seq)
}

// del deletes k, which need not be in the set: replay names keys a
// writer's tombstone held, whatever the view holds.
func (w *owner) del(k string) {
	if old, ok := w.live[k]; ok {
		w.removed = append(w.removed, old)
		delete(w.live, k)
	}
	w.keys.Delete(k)
}

// oracle is the key set sorted from scratch.
func (w *owner) oracle() []string {
	return slices.Sorted(maps.Keys(w.live))
}

// entries lists what a snapshot holds, in order.
func entries[V any](s *Keys[V]) (keys []string, vals []V) {
	for k, v := range s.Range("", "") {
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return keys, vals
}

// check folds and requires the snapshot to equal the oracle, values
// included, its chunks to hold their bounds and its counts to add up,
// and the values the fold reported replaced to be exactly those the
// writes took out. A fold over an existing snapshot must also have shared
// every chunk that neither its writes nor a neighbour's coalescing
// reached.
func (w *owner) check(t *testing.T, step int) *Keys[int] {
	t.Helper()
	before := w.keys.keys
	var touched []string
	for _, o := range w.keys.pending {
		touched = append(touched, o.key)
	}
	touched = slices.Compact(slices.Sorted(slices.Values(touched)))
	var replaced []int
	got := w.keys.Fold(func(v int) { replaced = append(replaced, v) })
	want := w.oracle()
	keys, vals := entries(got)
	if !slices.Equal(keys, want) {
		t.Fatalf("step %d: snapshot (%d keys) differs from the sorted key set (%d keys)\n got %q\nwant %q", step, len(keys), len(want), keys, want)
	}
	for i, k := range keys {
		if vals[i] != w.live[k] {
			t.Fatalf("step %d: %q holds %d, its last put %d", step, k, vals[i], w.live[k])
		}
	}
	slices.Sort(replaced)
	slices.Sort(w.removed)
	if !slices.Equal(replaced, w.removed) {
		t.Fatalf("step %d: the fold reported %v replaced, the writes took out %v", step, replaced, w.removed)
	}
	w.removed = w.removed[:0]
	checkShape(t, step, got)
	if clean, ok := w.keys.Clean(); !ok || clean != got {
		t.Fatalf("step %d: Clean() = %p, %v right after Fold returned %p", step, clean, ok, got)
	}
	if before != nil && before != got && len(before.chunks) > 0 {
		checkShared(t, step, before, got, touched)
	}
	return got
}

// checkShape holds a snapshot to its layout: no chunk empty or over
// chunkMax, none under chunkMax/4 unless it is the only one, and ends
// the running total of the chunk lengths.
func checkShape[V any](t *testing.T, step int, s *Keys[V]) {
	t.Helper()
	if len(s.ends) != len(s.chunks) {
		t.Fatalf("step %d: %d counts for %d chunks", step, len(s.ends), len(s.chunks))
	}
	least := chunkMax / 4
	if len(s.chunks) == 1 {
		least = 1
	}
	n := 0
	for c, chunk := range s.chunks {
		if len(chunk) < least || len(chunk) > chunkMax {
			t.Fatalf("step %d: chunk %d of %d holds %d keys, want %d..%d", step, c, len(s.chunks), len(chunk), least, chunkMax)
		}
		n += len(chunk)
		if s.ends[c] != n {
			t.Fatalf("step %d: ends[%d] = %d, want %d", step, c, s.ends[c], n)
		}
	}
	if s.Count("", "") != n || s.Len() != n {
		t.Fatalf("step %d: Count = %d, Len = %d over %d keys", step, s.Count("", ""), s.Len(), n)
	}
}

// checkShared routes touched over prev's chunks as fold does — each key
// to the first chunk whose last key is >= it, the last chunk taking the
// rest — and requires every chunk that neither it nor a neighbour
// received keys to appear in next with its backing array unchanged.
func checkShared[V any](t *testing.T, step int, prev, next *Keys[V], touched []string) {
	t.Helper()
	hit := make([]bool, len(prev.chunks))
	for _, k := range touched {
		c := sort.Search(len(prev.chunks), func(c int) bool {
			chunk := prev.chunks[c]
			return chunk[len(chunk)-1].key >= k
		})
		hit[min(c, len(prev.chunks)-1)] = true
	}
	kept := make(map[*entry[V]]int, len(next.chunks))
	for _, chunk := range next.chunks {
		kept[&chunk[0]] = len(chunk)
	}
	for c, chunk := range prev.chunks {
		if hit[c] || c > 0 && hit[c-1] || c+1 < len(hit) && hit[c+1] {
			continue
		}
		if n, ok := kept[&chunk[0]]; !ok || n != len(chunk) {
			t.Fatalf("step %d: chunk %d of %d got no keys and no coalescing neighbour, yet was copied", step, c, len(prev.chunks))
		}
	}
}

// snapshotOf lists a snapshot's keys and values, to tell later whether
// it was edited.
type snapshotOf struct {
	keys []string
	vals []int
}

func copyOf(s *Keys[int]) snapshotOf {
	keys, vals := entries(s)
	return snapshotOf{keys, vals}
}

// TestOrderedProperty is the one property test of the type every backend
// keeps its keys in: after any interleaving of puts, deletes, runs of
// either and repeated writes to one key, folded at random intervals, the
// snapshot equals the key set sorted from scratch with each key's last
// value, the fold reports every value a write took out exactly once, the
// snapshot keeps its chunk layout and shares what the writes did not
// reach, and snapshots published earlier never change. The key space
// spans dozens of chunks, so folds split chunks, coalesce small ones (the
// first chunk included) and route keys past the end to the last chunk.
// Single puts and deletes arrive out of order, so a fold's sort merges
// many runs; the runs of case 5 arrive sorted.
func TestOrderedProperty(t *testing.T) {
	const space = 4000
	rng := rand.New(rand.NewSource(41))
	w := newOwner()
	name := func(i int) string { return fmt.Sprintf("i/ov/%04d", i) }
	key := func() string { return name(rng.Intn(space)) }
	// Fold the empty set first, so the steps below run the fold path
	// over a snapshot rather than the build.
	prev := w.check(t, 0)
	prevCopy := copyOf(prev)

	for step := 1; step <= 1500; step++ {
		switch rng.Intn(8) {
		case 0, 1: // a batch of puts: new keys and overwrites
			for n := 1 + rng.Intn(5); n > 0; n-- {
				w.put(key())
			}
		case 2: // a batch of deletes: live and absent keys mixed
			for n := 1 + rng.Intn(5); n > 0; n-- {
				w.del(key())
			}
		case 3: // one key flipped back and forth inside one window
			k := key()
			w.del(k)
			w.put(k)
			if rng.Intn(2) == 0 {
				w.del(k)
			}
		case 4: // one key put again and again: the last value stands
			k := key()
			for n := 2 + rng.Intn(3); n > 0; n-- {
				w.put(k)
			}
		case 5: // a run of puts: one chunk overflows into several
			from := rng.Intn(space)
			for i, to := from, min(space, from+1+rng.Intn(300)); i < to; i++ {
				w.put(name(i))
			}
		case 6: // a run of deletes: chunks shrink below a quarter or empty
			from := rng.Intn(space)
			for i, to := from, min(space, from+1+rng.Intn(150)); i < to; i++ {
				w.del(name(i))
			}
		case 7: // the lowest keys go, as a store's oldest session does
			for _, k := range w.oracle()[:min(len(w.live), rng.Intn(100))] {
				w.del(k)
			}
		}
		if _, ok := w.keys.Clean(); ok && len(w.keys.pending) != 0 {
			t.Fatalf("step %d: Clean reports current with %d writes waiting", step, len(w.keys.pending))
		}
		if rng.Intn(3) != 0 {
			continue // let the window grow over several steps
		}
		next := w.check(t, step)
		if !reflect.DeepEqual(copyOf(prev), prevCopy) {
			t.Fatalf("step %d: a published snapshot was edited in place", step)
		}
		prev, prevCopy = next, copyOf(next)
	}
}

// TestOrderedSortProperty holds Fold's sort to a stable sort by key, and
// Fold to the model, on pending lists made to reach every path of it:
// lists under and over smallList; keys in few groups and in more than
// maxGroups, which are merged as one; keys that prefix other keys, end
// inside the word they are dealt by, or differ from another key only by
// zero bytes that the word's padding must not confuse with its end; one
// key put, put again and deleted inside one window; and runs that come
// sorted, reversed or scrambled, short and long.
func TestOrderedSortProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	dims := []string{"actor", "data", "grp", "int", "kind", "sess", "svc", "time", "state"}
	universe := func(shape int) []string {
		var keys []string
		switch shape {
		case 0: // postings: a few groups, long shared prefixes
			for range 200 {
				keys = append(keys, fmt.Sprintf("x/%s/urn:pasoa:%06x/i/%04d", dims[rng.Intn(len(dims))], rng.Intn(40), rng.Intn(30)))
			}
		case 1: // keys that end inside the word, prefix one another, pad alike
			prefix := strings.Repeat("p", rng.Intn(12))
			heads := []string{"", "\x00", "a", "a\x00", "a\x00\x00\x00\x00\x00\x00\x00", "ab", "abcdefgh", "abcdefghi", "b"}
			for range 120 {
				tail := make([]byte, rng.Intn(4))
				for j := range tail {
					tail[j] = "\x00\x01a"[rng.Intn(3)]
				}
				keys = append(keys, prefix+heads[rng.Intn(len(heads))]+string(tail))
			}
		case 2: // about maxGroups words: either side of the fallback
			words := make([]string, maxGroups-2+rng.Intn(5))
			for i := range words {
				words[i] = fmt.Sprintf("%c%07d", 'a'+i, rng.Intn(1e7))
			}
			for range 300 {
				keys = append(keys, fmt.Sprintf("k/%s/%d", words[rng.Intn(len(words))], rng.Intn(20)))
			}
		default: // far more words than groups
			for range 300 {
				keys = append(keys, fmt.Sprintf("k/%08x", rng.Intn(1<<20)))
			}
		}
		return keys
	}
	var dealt, merged int // lists sorted by groups, and as one
	for trial := range 400 {
		keys := universe(trial % 4)
		w := newOwner()
		for window := range 2 {
			// Runs of writes, each run's keys sorted, reversed or as drawn.
			for size := []int{1 + rng.Intn(smallList), smallList + rng.Intn(900)}[rng.Intn(2)]; len(w.keys.pending) < size; {
				run := make([]string, 1+rng.Intn([]int{3, 40, 300}[rng.Intn(3)]))
				for i := range run {
					run[i] = keys[rng.Intn(len(keys))]
				}
				switch rng.Intn(3) {
				case 0:
					slices.Sort(run)
				case 1:
					slices.Sort(run)
					slices.Reverse(run)
				}
				for _, k := range run {
					switch rng.Intn(10) {
					case 0:
						w.del(k)
					case 1: // a key rewritten inside the window
						w.put(k)
						w.del(k)
						if rng.Intn(2) == 0 {
							w.put(k)
						}
					default:
						w.put(k)
					}
				}
			}
			pending := w.keys.pending
			var d dealer
			if len(pending) >= smallList && d.plan(len(pending), func(i int) string { return pending[i].key }) {
				dealt++
			} else {
				merged++
			}
			want := slices.Clone(pending)
			slices.SortStableFunc(want, func(a, b op[int]) int { return strings.Compare(a.key, b.key) })
			got, _ := sortOps(slices.Clone(pending), nil)
			for i := range want {
				if got[i].entry != want[i].entry || got[i].del() != want[i].del() {
					t.Fatalf("trial %d, window %d: sorted op %d of %d is %q (value %d), a stable sort has %q (value %d)",
						trial, window, i, len(want), got[i].key, got[i].val, want[i].key, want[i].val)
				}
			}
			w.check(t, trial)
		}
	}
	if dealt == 0 || merged == 0 {
		t.Fatalf("%d lists sorted by groups and %d as one: the trials miss a path", dealt, merged)
	}
}

// TestOrderedFoldShares pins the fold's cost on a snapshot built in one
// pass: keys landing in a few chunks rebuild those chunks, and every
// other chunk of the old snapshot is the same slice in the new one.
func TestOrderedFoldShares(t *testing.T) {
	w := newOwner()
	for i := 0; i < 100*chunkMax; i++ {
		w.put(fmt.Sprintf("k/%06d", 2*i))
	}
	prev := w.check(t, 0)
	if len(prev.chunks) != 100 {
		t.Fatalf("the build cut %d chunks from %d keys, want 100", len(prev.chunks), 100*chunkMax)
	}
	// One key into chunks 10 and 50, two past the end.
	for _, i := range []int{10*chunkMax + 5, 50*chunkMax + 5, 200 * chunkMax, 200*chunkMax + 2} {
		w.put(fmt.Sprintf("k/%06d", 2*i+1))
	}
	next := w.check(t, 1)
	if len(next.chunks) != 103 {
		t.Fatalf("%d chunks after three full chunks took keys, want each split in two: 103", len(next.chunks))
	}
	shared := 0
	for c, chunk := range prev.chunks {
		for _, n := range next.chunks {
			if &n[0] == &chunk[0] && len(n) == len(chunk) {
				shared++
				if c == 10 || c == 50 || c == 99 {
					t.Errorf("chunk %d took a key but was shared", c)
				}
			}
		}
	}
	if shared != 97 {
		t.Fatalf("%d of the 97 untouched chunks shared", shared)
	}
}

// TestOrderedBuild writes to an Ordered with no snapshot the way an
// owner's replay does: keys scrambled, some put again, some deleted and
// put back. The first Fold builds a snapshot from the writes that is
// current, holds each live key once in order with its last value, keeps
// the chunk layout, and folds later writes like any other.
func TestOrderedBuild(t *testing.T) {
	w := newOwner()
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 20*chunkMax; i++ {
		k := fmt.Sprintf("x/dim%d/%06d", i%9, rng.Intn(10*chunkMax))
		w.put(k)
		if rng.Intn(8) == 0 {
			w.del(k)
			if rng.Intn(2) == 0 {
				w.put(k)
			}
		}
	}
	if keys, ok := w.keys.Clean(); keys != nil || ok {
		t.Fatalf("Clean() = %p, %v before any Fold; want no snapshot", keys, ok)
	}
	w.check(t, 0)
	w.put("x/dim3/new")
	w.del(w.oracle()[7])
	w.check(t, 1)
}

// TestOrderedPendingBuffers holds the pending list to its growth and
// retention: it doubles from pendingFirstCap, a fold keeps it (and the
// merge buffer) for the next window, and a fold that built from a write
// phase longer than a quarter of the set lets both go.
func TestOrderedPendingBuffers(t *testing.T) {
	w := newOwner()
	for i := 0; i < 300; i++ {
		w.put(fmt.Sprintf("base/%04d", 299-i)) // descending: 300 runs of one
	}
	if c := cap(w.keys.pending); c != 512 {
		t.Fatalf("pending capacity %d after 300 writes, want 512", c)
	}
	w.check(t, 0)
	if w.keys.pending != nil || w.keys.spare != nil {
		t.Fatalf("a build from 300 writes kept buffers of %d and %d", cap(w.keys.pending), cap(w.keys.spare))
	}
	for i := 0; i < 40; i++ {
		w.put(fmt.Sprintf("base/%04d", 39-i))
	}
	w.check(t, 1)
	if cap(w.keys.pending) != pendingFirstCap || len(w.keys.pending) != 0 || cap(w.keys.spare) < 40 {
		t.Fatalf("after a small fold: pending %d/%d, spare %d; want both kept for the next window",
			len(w.keys.pending), cap(w.keys.pending), cap(w.keys.spare))
	}
	w.put("base/9999")
	w.check(t, 2)
}

// TestOrderedReaderIteratesWhileWriterFolds runs the owner contract
// under the race detector: readers take the snapshot under the read
// lock (or fold under the write lock) and iterate it with no lock held
// while a writer keeps mutating and folding.
func TestOrderedReaderIteratesWhileWriterFolds(t *testing.T) {
	w := newOwner()
	for i := 0; i < 300; i++ {
		w.put(fmt.Sprintf("k/%04d", i))
	}
	snapshot := func() *Keys[int] {
		w.mu.RLock()
		keys, ok := w.keys.Clean()
		w.mu.RUnlock()
		if ok {
			return keys
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.keys.Fold(nil)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				keys := snapshot()
				var all []string
				for k := range keys.Range("k/", "") {
					all = append(all, k)
				}
				if !sort.StringsAreSorted(all) {
					t.Error("reader saw an unsorted snapshot")
					return
				}
				if n := keys.Count("k/", ""); n != len(all) {
					t.Errorf("reader counted %d keys under k/ and ranged over %d", n, len(all))
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 2000; step++ {
		w.mu.Lock()
		k := fmt.Sprintf("k/%04d", rng.Intn(600))
		if rng.Intn(2) == 0 {
			w.put(k)
		} else {
			w.del(k)
		}
		if step%7 == 0 {
			w.keys.Fold(nil)
			w.removed = w.removed[:0]
		}
		w.mu.Unlock()
	}
	close(stop)
	wg.Wait()
	w.removed = nil
	w.keys.Fold(nil)
	w.check(t, 0)
}

// TestPrefixRange checks Keys' seek/count arithmetic against a linear
// filter, for a from below the prefix, inside its run, past it, and past
// it without carrying it — under every way of cutting the keys into
// chunks, so chunk boundaries fall both inside and between prefix runs.
func TestPrefixRange(t *testing.T) {
	keys := []string{"a/1", "a/2", "b", "b/1", "b/2", "b/3", "c/1"}
	for cuts := 0; cuts < 1<<(len(keys)-1); cuts++ {
		var chunks [][]entry[int]
		start := 0
		for i := 1; i <= len(keys); i++ {
			if i == len(keys) || cuts&(1<<(i-1)) != 0 {
				var chunk []entry[int]
				for j, k := range keys[start:i] {
					chunk = append(chunk, entry[int]{k, start + j})
				}
				chunks = append(chunks, chunk)
				start = i
			}
		}
		s := newKeys(chunks)
		for i, k := range append(keys, "", "a", "b/0", "b/4", "z") {
			if v, ok := s.Get(k); ok != (i < len(keys)) || ok && v != i {
				t.Errorf("chunks %q: Get(%q) = %d, %v", chunks, k, v, ok)
			}
		}
		for _, prefix := range []string{"", "a", "a/", "b", "b/", "b/2", "c/", "d", "0"} {
			for _, from := range []string{"", "a/2", "b", "b/2", "b/25", "b0", "c", "z"} {
				var want []string
				for _, k := range keys {
					if strings.HasPrefix(k, prefix) && k >= from {
						want = append(want, k)
					}
				}
				var got []string
				for k, v := range s.Range(prefix, from) {
					got = append(got, k)
					if keys[v] != k {
						t.Errorf("chunks %q: Range yields %q with the value of %q", chunks, k, keys[v])
					}
				}
				if !slices.Equal(got, want) {
					t.Errorf("chunks %q: Range(%q, from %q) = %q, want %q", chunks, prefix, from, got, want)
				}
				if got := s.Count(prefix, from); got != len(want) {
					t.Errorf("chunks %q: Count(%q, from %q) = %d, want %d", chunks, prefix, from, got, len(want))
				}
				for k := range s.Range(prefix, from) {
					if k != want[0] {
						t.Errorf("chunks %q: Range(%q, from %q) starts at %q, want %q", chunks, prefix, from, k, want[0])
					}
					break // a caller stopping early ends the walk
				}
			}
		}
	}
	empty := newKeys[int](nil)
	if got, _ := entries(empty); len(got) != 0 || empty.Count("a", "") != 0 || empty.Len() != 0 {
		t.Errorf("empty Keys: Range = %q, Count = %d, Len = %d", got, empty.Count("a", ""), empty.Len())
	}
	if _, ok := empty.Get("a"); ok {
		t.Error("empty Keys: Get found a key")
	}
}
