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
	cost         func(val int) int64
	budget, used int64
	hits, misses int64
	order        []string
	live         map[string]lruModelEntry
}

type lruModelEntry struct {
	stamp uint64
	val   int
}

func (m *lruModel) reset(budget int64) {
	m.budget, m.used, m.hits, m.misses = budget, 0, 0, 0
	m.order, m.live = nil, make(map[string]lruModelEntry)
}

func (m *lruModel) remove(key string) {
	if e, ok := m.live[key]; ok {
		delete(m.live, key)
		m.used -= m.cost(e.val)
		m.order = slices.DeleteFunc(m.order, func(k string) bool { return k == key })
	}
}

func (m *lruModel) insert(key string, e lruModelEntry) {
	m.live[key] = e
	m.used += m.cost(e.val)
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
	if m.budget <= 0 || m.cost(val) > m.budget {
		return
	}
	m.insert(key, lruModelEntry{stamp, val})
	for m.used > m.budget {
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
// order, the charged budget and the counters. It runs once charging each
// value its own size (the block cache's shape) and once with no cost
// function, 1 per entry (the result caches'). Stamps come from a small
// range so that mismatches — which must evict and count a miss — are
// frequent; values reach past the budget so that puts larger than the
// whole budget occur while other entries are resident; a quarter of the
// resets pick a zero budget, which must retain nothing.
func TestLRUModel(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cost   func(string, int) int64
		budget int64
	}{
		{"sized", func(_ string, v int) int64 { return int64(v) }, 40},
		{"per-entry", nil, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(25))
			c := NewLRU[uint64](tc.budget, tc.cost)
			m := lruModel{cost: func(v int) int64 { return 1 }}
			if tc.cost != nil {
				m.cost = func(v int) int64 { return tc.cost("", v) }
			}
			m.reset(tc.budget)
			var sawBig, sawStale, sawZero bool
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
					val := 1 + rng.Intn(int(max(m.budget, 1))+8)
					if m.cost(val) > m.budget && len(m.live) > 0 {
						sawBig = true
					}
					c.Put(key, stamp, val)
					m.put(key, stamp, val)
				default:
					op = "reset"
					budget := int64(rng.Intn(4)) * tc.budget / 2
					sawZero = sawZero || budget == 0
					c.Reset(budget)
					m.reset(budget)
				}
				if got := recency(c); !slices.Equal(got, m.order) {
					t.Fatalf("step %d (%s %s): recency %q, oracle %q", step, op, key, got, m.order)
				}
				want := LRUStats{Hits: m.hits, Misses: m.misses, Used: m.used, Entries: int64(len(m.live))}
				if got := c.Stats(); got != want {
					t.Fatalf("step %d (%s %s): stats %+v, oracle %+v", step, op, key, got, want)
				}
			}
			if !sawStale || !sawZero || (tc.cost != nil && !sawBig) {
				t.Fatalf("sequence missed a case: stale get %v, zero budget %v, larger-than-budget put %v", sawStale, sawZero, sawBig)
			}
		})
	}
}
