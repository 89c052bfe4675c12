package kv

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// lruModel is the oracle for LRU: a map of live entries plus a slice of
// their keys, most recently used first.
type lruModel struct {
	capacity     int
	hits, misses int64
	order        []string
	live         map[string]lruModelEntry
}

type lruModelEntry struct {
	stamp uint64
	val   int
}

func (m *lruModel) reset(capacity int) {
	m.capacity, m.hits, m.misses = capacity, 0, 0
	m.order, m.live = nil, make(map[string]lruModelEntry)
}

func (m *lruModel) remove(key string) {
	if _, ok := m.live[key]; ok {
		delete(m.live, key)
		m.order = slices.DeleteFunc(m.order, func(k string) bool { return k == key })
	}
}

func (m *lruModel) insert(key string, e lruModelEntry) {
	m.live[key] = e
	m.order = append([]string{key}, m.order...)
}

func (m *lruModel) get(key string, stamp uint64) (int, bool) {
	e, ok := m.live[key]
	m.remove(key)
	if !ok || e.stamp != stamp {
		m.misses++
		return 0, false
	}
	m.hits++
	m.insert(key, e)
	return e.val, true
}

func (m *lruModel) put(key string, stamp uint64, val int) {
	m.remove(key)
	if m.capacity <= 0 {
		return
	}
	m.insert(key, lruModelEntry{stamp, val})
	for len(m.live) > m.capacity {
		m.remove(m.order[len(m.order)-1])
	}
}

// recency lists the cache's keys most recently used first.
func recency[S comparable, V any](c *LRU[S, V]) []string {
	var keys []string
	for e := c.root.next; e != &c.root; e = e.next {
		keys = append(keys, e.key)
	}
	return keys
}

// TestLRUModel runs random get/put/reset sequences against the cache and
// the map-plus-slice oracle, and after every step compares the recency
// order and the counters. Stamps come from a small range so that
// mismatches — which must evict and count a miss — are frequent; a
// quarter of the resets pick a zero capacity, which must retain
// nothing.
func TestLRUModel(t *testing.T) {
	t.Run("per-entry", func(t *testing.T) {
		const capacity = 6
		rng := rand.New(rand.NewSource(25))
		c := NewLRU[uint64, int](capacity)
		var m lruModel
		m.reset(capacity)
		var sawStale, sawZero bool
		for step := 0; step < 20000; step++ {
			key := fmt.Sprintf("k%02d", rng.Intn(24))
			stamp := uint64(rng.Intn(3))
			var op string
			switch r := rng.Intn(100); {
			case r < 50:
				op = "get"
				if e, ok := m.live[key]; ok && e.stamp != stamp {
					sawStale = true
				}
				v, ok := c.Get(key, stamp)
				if wv, wok := m.get(key, stamp); v != wv || ok != wok {
					t.Fatalf("step %d: Get(%s, %d) = %d, %v; oracle %d, %v", step, key, stamp, v, ok, wv, wok)
				}
			case r < 99:
				op = "put"
				val := rng.Intn(1000)
				c.Put(key, stamp, val)
				m.put(key, stamp, val)
			default:
				op = "reset"
				capacity := rng.Intn(4) * capacity / 2
				sawZero = sawZero || capacity == 0
				c.Reset(capacity)
				m.reset(capacity)
			}
			if got := recency(c); !slices.Equal(got, m.order) {
				t.Fatalf("step %d (%s %s): recency %q, oracle %q", step, op, key, got, m.order)
			}
			want := LRUStats{Hits: m.hits, Misses: m.misses, Entries: int64(len(m.live))}
			if got := c.Stats(); got != want {
				t.Fatalf("step %d (%s %s): stats %+v, oracle %+v", step, op, key, got, want)
			}
		}
		if !sawStale || !sawZero {
			t.Fatalf("sequence missed a case: stale get %v, zero capacity %v", sawStale, sawZero)
		}
	})
}
