package kv

import (
	"sort"
	"strings"
)

// Ordered keeps a sorted snapshot of the key set of a map its owner
// holds, so prefix counts and seeks are binary searches instead of a
// sort per call. It takes no lock of its own: the owner's RWMutex guards
// it, and every method names the side of that lock it needs. V is the
// owner's map value type; Ordered never looks at the values.
//
// A published snapshot is immutable — Fold replaces it, never edits it —
// so readers keep iterating a slice they got from Clean or Fold after
// releasing the lock, and re-check each key against the owner's map.
//
// The zero value has no snapshot and tracks nothing: writes cost one nil
// check until the first Fold builds one.
type Ordered[V any] struct {
	sorted []string // nil = no snapshot
	// delta lists keys that entered or left the map since sorted was
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
// rebuild is cheaper than a merge: the snapshot is dropped and tracking
// stops, so a pure write phase pays nothing further. The owner's write
// lock must be held.
func (o *Ordered[V]) Touch(key string) {
	if o.sorted == nil {
		return
	}
	if len(o.delta) > len(o.sorted)/4+64 {
		o.sorted, o.delta = nil, nil
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
func (o *Ordered[V]) Clean() ([]string, bool) {
	return o.sorted, o.sorted != nil && len(o.delta) == 0
}

// Fold brings the snapshot up to date with live — the owner's map — and
// returns it: a sort of all of live's keys when there is no snapshot,
// otherwise one ordered merge of the touched keys into a fresh slice.
// The owner's write lock must be held.
func (o *Ordered[V]) Fold(live map[string]V) []string {
	if o.sorted == nil {
		keys := make([]string, 0, len(live))
		for k := range live {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		o.sorted = keys
		return keys
	}
	if len(o.delta) == 0 {
		return o.sorted
	}
	sort.Strings(o.delta)
	merged := make([]string, 0, len(o.sorted)+len(o.delta))
	i := 0
	for n, k := range o.delta {
		if n > 0 && k == o.delta[n-1] {
			continue
		}
		j := i + sort.SearchStrings(o.sorted[i:], k)
		merged = append(merged, o.sorted[i:j]...)
		if j < len(o.sorted) && o.sorted[j] == k {
			j++ // in the old snapshot: kept or dropped by the probe below
		}
		if _, ok := live[k]; ok {
			merged = append(merged, k)
		}
		i = j
	}
	o.sorted = append(merged, o.sorted[i:]...)
	clear(o.delta) // release the key strings, keep the buffer
	o.delta = o.delta[:0]
	return o.sorted
}

// PrefixRange returns the run of sorted keys that carry prefix and are
// >= from: two binary searches, no copy. Its length is the prefix count;
// ranging over it is a seek-then-scan.
func PrefixRange(keys []string, prefix, from string) []string {
	keys = keys[sort.SearchStrings(keys, max(prefix, from)):]
	// Keys carrying the prefix are contiguous from the start: any key at
	// or past a from that lacks the prefix lacks it too.
	return keys[:sort.Search(len(keys), func(n int) bool {
		return !strings.HasPrefix(keys[n], prefix)
	})]
}
