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

func (w *owner) check(t *testing.T, step int) []string {
	t.Helper()
	got := w.keys.Fold(w.live)
	if want := w.oracle(); !slices.Equal(got, want) {
		t.Fatalf("step %d: snapshot (%d keys) differs from the sorted key set (%d keys)\n got %q\nwant %q", step, len(got), len(want), got, want)
	}
	if clean, ok := w.keys.Clean(); !ok || len(clean) != len(got) {
		t.Fatalf("step %d: Clean() = %d keys, %v right after Fold", step, len(clean), ok)
	}
	return got
}

// TestOrderedProperty is the one property test of the type every backend
// keeps its keys in: after any interleaving of puts, deletes and repeated
// touches, folded at random intervals, the snapshot equals the key set
// sorted from scratch, and snapshots published earlier never change.
func TestOrderedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	w := newOwner()
	key := func() string { return fmt.Sprintf("i/ov/%03d", rng.Intn(220)) }
	// Build the snapshot first, so the steps below run the delta path
	// rather than the no-snapshot one.
	prev := w.check(t, 0)
	prevCopy := slices.Clone(prev)

	for step := 1; step <= 400; step++ {
		switch rng.Intn(5) {
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
		}
		if _, ok := w.keys.Clean(); ok && len(w.keys.delta) != 0 {
			t.Fatalf("step %d: Clean reports current with %d touches waiting", step, len(w.keys.delta))
		}
		if rng.Intn(3) != 0 {
			continue // let the window grow over several steps
		}
		next := w.check(t, step)
		if !slices.Equal(prev, prevCopy) {
			t.Fatalf("step %d: a published snapshot was edited in place", step)
		}
		prev, prevCopy = next, slices.Clone(next)
	}
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
		t.Fatalf("at the threshold: Clean() = %d keys, %v; want the stale snapshot, false", len(keys), ok)
	}
	// Doubling from deltaFirstCap: the buffer is a power-of-two multiple
	// of it, under twice what was needed.
	if c := cap(w.keys.delta); c != 512 {
		t.Fatalf("delta capacity %d after %d touches, want 512", c, threshold+1)
	}
	w.check(t, 1) // still a merge

	threshold = (1000+threshold+1)/4 + 64 // of the merged snapshot
	for i := 0; i <= threshold+1; i++ {
		w.del(fmt.Sprintf("base/%04d", i))
	}
	if keys, ok := w.keys.Clean(); keys != nil || ok {
		t.Fatalf("past the threshold: Clean() = %d keys, %v; want no snapshot", len(keys), ok)
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
	snapshot := func() []string {
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
				if !sort.StringsAreSorted(keys) {
					t.Error("reader saw an unsorted snapshot")
					return
				}
				if n := len(PrefixRange(keys, "k/", "")); n != len(keys) {
					t.Errorf("reader counted %d of %d keys under k/", n, len(keys))
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

// TestPrefixRange checks the seek/count arithmetic against a linear
// filter, including a from below the prefix, inside its run, past it,
// and past it without carrying it.
func TestPrefixRange(t *testing.T) {
	keys := []string{"a/1", "a/2", "b", "b/1", "b/2", "b/3", "c/1"}
	for _, prefix := range []string{"", "a", "a/", "b", "b/", "b/2", "c/", "d", "0"} {
		for _, from := range []string{"", "a/2", "b", "b/2", "b/25", "b0", "c", "z"} {
			var want []string
			for _, k := range keys {
				if strings.HasPrefix(k, prefix) && k >= from {
					want = append(want, k)
				}
			}
			if got := PrefixRange(keys, prefix, from); !slices.Equal(got, want) {
				t.Errorf("PrefixRange(%q, from %q) = %q, want %q", prefix, from, got, want)
			}
		}
	}
	if got := PrefixRange(nil, "a", ""); len(got) != 0 {
		t.Errorf("PrefixRange(nil) = %q", got)
	}
}
