package kv

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// owner is the smallest thing that can own an Ordered: a map, a lock,
// and the two mutations that change the key set.
type owner struct {
	mu   sync.RWMutex
	live map[string]int
	keys Ordered[int]
}

func newOwner() *owner { return &owner{live: make(map[string]int)} }

func (w *owner) put(k string) {
	if _, ok := w.live[k]; !ok {
		w.keys.Touch(k)
	}
	w.live[k]++
}

func (w *owner) del(k string) {
	if _, ok := w.live[k]; ok {
		delete(w.live, k)
		w.keys.Touch(k)
	}
}

// oracle is the key set sorted from scratch.
func (w *owner) oracle() []string {
	want := make([]string, 0, len(w.live))
	for k := range w.live {
		want = append(want, k)
	}
	sort.Strings(want)
	return want
}

// check folds and requires the snapshot to equal the oracle, its chunks
// to hold their bounds and its counts to add up. A fold over an existing
// snapshot must also have shared every chunk that neither its delta nor
// a neighbour's coalescing reached.
func (w *owner) check(t *testing.T, step int) *Keys {
	t.Helper()
	before := w.keys.keys
	touched := slices.Compact(slices.Sorted(slices.Values(w.keys.delta)))
	got := w.keys.Fold(w.live)
	if want, keys := w.oracle(), slices.Collect(got.Range("", "")); !slices.Equal(keys, want) {
		t.Fatalf("step %d: snapshot (%d keys) differs from the sorted key set (%d keys)\n got %q\nwant %q", step, len(keys), len(want), keys, want)
	}
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
func checkShape(t *testing.T, step int, s *Keys) {
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
	if s.Count("", "") != n || s.size() != n {
		t.Fatalf("step %d: Count = %d, size = %d over %d keys", step, s.Count("", ""), s.size(), n)
	}
}

// checkShared routes touched over prev's chunks as fold does — each key
// to the first chunk whose last key is >= it, the last chunk taking the
// rest — and requires every chunk that neither it nor a neighbour
// received keys to appear in next with its backing array unchanged.
func checkShared(t *testing.T, step int, prev, next *Keys, touched []string) {
	t.Helper()
	hit := make([]bool, len(prev.chunks))
	for _, k := range touched {
		c := sort.Search(len(prev.chunks), func(c int) bool {
			chunk := prev.chunks[c]
			return chunk[len(chunk)-1] >= k
		})
		hit[min(c, len(prev.chunks)-1)] = true
	}
	kept := make(map[*string]int, len(next.chunks))
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

// TestOrderedProperty is the one property test of the type every backend
// keeps its keys in: after any interleaving of puts, deletes, runs of
// either and repeated touches, folded at random intervals, the snapshot
// equals the key set sorted from scratch, keeps its chunk layout, shares
// what the delta did not reach, and snapshots published earlier never
// change. The key space spans dozens of chunks, so folds split chunks,
// coalesce small ones (the first chunk included) and route keys past the
// end to the last chunk.
func TestOrderedProperty(t *testing.T) {
	const space = 4000
	rng := rand.New(rand.NewSource(41))
	w := newOwner()
	name := func(i int) string { return fmt.Sprintf("i/ov/%04d", i) }
	key := func() string { return name(rng.Intn(space)) }
	// Build the snapshot first, so the steps below run the fold path
	// rather than the no-snapshot one.
	prev := w.check(t, 0)
	prevCopy := slices.Collect(prev.Range("", ""))

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
		case 4: // touches that changed nothing must be harmless
			k := key()
			w.keys.Touch(k)
			w.keys.Touch(k)
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
		if _, ok := w.keys.Clean(); ok && len(w.keys.delta) != 0 {
			t.Fatalf("step %d: Clean reports current with %d touches waiting", step, len(w.keys.delta))
		}
		if rng.Intn(3) != 0 {
			continue // let the window grow over several steps
		}
		next := w.check(t, step)
		if !slices.Equal(slices.Collect(prev.Range("", "")), prevCopy) {
			t.Fatalf("step %d: a published snapshot was edited in place", step)
		}
		prev, prevCopy = next, slices.Collect(next.Range("", ""))
	}
}

// TestOrderedFoldShares pins the fold's cost on a snapshot built in one
// sort: keys landing in a few chunks rebuild those chunks, and every
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

// TestOrderedBuild hands Build the live keys in an owner's replay order:
// scrambled, some repeated. The snapshot it makes is current, holds each
// key once in order, keeps the chunk layout, and folds later writes like
// any other.
func TestOrderedBuild(t *testing.T) {
	w := newOwner()
	rng := rand.New(rand.NewSource(34))
	var replayed []string
	for i := 0; i < 20*chunkMax; i++ {
		k := fmt.Sprintf("x/dim%d/%06d", i%9, rng.Intn(10*chunkMax))
		w.put(k)
		replayed = append(replayed, k) // a key put again is listed again
	}
	w.keys.delta = []string{"stale"} // Build empties the delta
	got := w.keys.Build(replayed)
	if clean, ok := w.keys.Clean(); !ok || clean != got {
		t.Fatalf("Clean() = %p, %v right after Build returned %p", clean, ok, got)
	}
	if want, keys := w.oracle(), slices.Collect(got.Range("", "")); !slices.Equal(keys, want) {
		t.Fatalf("built %d keys, want the %d distinct ones sorted", len(keys), len(want))
	}
	checkShape(t, 0, got)
	w.put("x/dim3/new")
	w.del(w.oracle()[7])
	w.check(t, 1)
}

// TestOrderedThresholdDropsSnapshot crosses the fold-vs-rebuild
// threshold: the snapshot is dropped, later touches are not tracked at
// all (the write-phase fast path), and the next Fold rebuilds wholesale.
func TestOrderedThresholdDropsSnapshot(t *testing.T) {
	w := newOwner()
	if w.keys.Touch("early"); w.keys.delta != nil {
		t.Fatal("a zero Ordered tracked a touch with no snapshot to maintain")
	}
	for i := 0; i < 1000; i++ {
		w.put(fmt.Sprintf("base/%04d", i))
	}
	if _, ok := w.keys.Clean(); ok {
		t.Fatal("Clean reports current before any Fold")
	}
	w.check(t, 0)

	threshold := 1000/4 + 64
	for i := 0; i <= threshold; i++ {
		w.put(fmt.Sprintf("new/%04d", i))
	}
	if keys, ok := w.keys.Clean(); keys == nil || ok {
		t.Fatalf("at the threshold: Clean() = %p, %v; want the stale snapshot, false", keys, ok)
	}
	// Doubling from deltaFirstCap: the buffer is a power-of-two multiple
	// of it, under twice what was needed.
	if c := cap(w.keys.delta); c != 512 {
		t.Fatalf("delta capacity %d after %d touches, want 512", c, threshold+1)
	}
	w.check(t, 1) // still a fold

	threshold = (1000+threshold+1)/4 + 64 // of the folded snapshot
	for i := 0; i <= threshold+1; i++ {
		w.del(fmt.Sprintf("base/%04d", i))
	}
	if keys, ok := w.keys.Clean(); keys != nil || ok {
		t.Fatalf("past the threshold: Clean() = %p, %v; want no snapshot", keys, ok)
	}
	w.put("after/drop")
	if w.keys.delta != nil {
		t.Fatal("touches are still tracked after the snapshot was dropped")
	}
	w.check(t, 2) // wholesale rebuild
	w.del("after/drop")
	w.check(t, 3) // and tracking is back
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
	snapshot := func() *Keys {
		w.mu.RLock()
		keys, ok := w.keys.Clean()
		w.mu.RUnlock()
		if ok {
			return keys
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.keys.Fold(w.live)
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
				all := slices.Collect(keys.Range("k/", ""))
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
			w.keys.Fold(w.live)
		}
		w.mu.Unlock()
	}
	close(stop)
	wg.Wait()
	w.check(t, 0)
}

// TestPrefixRange checks Keys' seek/count arithmetic against a linear
// filter, for a from below the prefix, inside its run, past it, and past
// it without carrying it — under every way of cutting the keys into
// chunks, so chunk boundaries fall both inside and between prefix runs.
func TestPrefixRange(t *testing.T) {
	keys := []string{"a/1", "a/2", "b", "b/1", "b/2", "b/3", "c/1"}
	for cuts := 0; cuts < 1<<(len(keys)-1); cuts++ {
		var chunks [][]string
		start := 0
		for i := 1; i <= len(keys); i++ {
			if i == len(keys) || cuts&(1<<(i-1)) != 0 {
				chunks = append(chunks, keys[start:i])
				start = i
			}
		}
		s := newKeys(chunks)
		for _, prefix := range []string{"", "a", "a/", "b", "b/", "b/2", "c/", "d", "0"} {
			for _, from := range []string{"", "a/2", "b", "b/2", "b/25", "b0", "c", "z"} {
				var want []string
				for _, k := range keys {
					if strings.HasPrefix(k, prefix) && k >= from {
						want = append(want, k)
					}
				}
				if got := slices.Collect(s.Range(prefix, from)); !slices.Equal(got, want) {
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
	empty := newKeys(nil)
	if got := slices.Collect(empty.Range("a", "")); len(got) != 0 || empty.Count("a", "") != 0 {
		t.Errorf("empty Keys: Range = %q, Count = %d", got, empty.Count("a", ""))
	}
}
