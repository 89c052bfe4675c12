package crashtest

// Randomized lifecycle property test: a random interleaving of
// Record / DeleteRecords / DeleteSession / Query / Compact runs against
// all three backends, concurrently, with a plain-map oracle tracking
// the records that must exist. At every quiesce point the three views —
// cost-based planner, scan path, oracle — must agree byte for byte.
// CI runs this under -race; the concurrent phase is where the striped
// commit locks, the batched tombstone writes and the online compaction
// earn their keep.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/query"
	"preserv/internal/store"
)

// oracle is the plain-map model: storage key -> canonical encoding.
type oracle struct {
	mu   sync.Mutex
	recs map[string]core.Record
}

func newOracle() *oracle { return &oracle{recs: make(map[string]core.Record)} }

func (o *oracle) record(recs []core.Record) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, r := range recs {
		o.recs[r.StorageKey()] = r
	}
}

func (o *oracle) delete(key string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.recs, key)
}

func (o *oracle) deleteSession(sid ids.ID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for k, r := range o.recs {
		if g, ok := r.GroupID(core.GroupSession); ok && g == sid {
			delete(o.recs, k)
		}
	}
}

// expect computes the query's reference answer: Matches-filtered
// records in storage-key order, Total before Limit.
func (o *oracle) expect(q *prep.Query) ([]core.Record, int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	keys := make([]string, 0, len(o.recs))
	for k, r := range o.recs {
		if q.Matches(&r) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	total := len(keys)
	if q.Limit > 0 && len(keys) > q.Limit {
		keys = keys[:q.Limit]
	}
	out := make([]core.Record, 0, len(keys))
	for _, k := range keys {
		out = append(out, o.recs[k])
	}
	return out, total
}

// worker owns a disjoint slice of the key space: its own sessions, its
// own recorded keys. Disjointness is what makes the oracle's final
// state deterministic under concurrency — workers' operations commute.
type worker struct {
	id       int
	rng      *rand.Rand
	sessions []ids.ID
	keys     []string // storage keys this worker has recorded and not deleted
}

func (w *worker) newSession() ids.ID {
	sid := seq.NewID()
	w.sessions = append(w.sessions, sid)
	return sid
}

func (w *worker) pickSession() ids.ID {
	return w.sessions[w.rng.Intn(len(w.sessions))]
}

func TestRandomizedLifecycleAllBackends(t *testing.T) {
	flavours := []struct {
		name string
		open func(t *testing.T) store.Backend
	}{
		{"memory", func(t *testing.T) store.Backend { return store.NewMemoryBackend() }},
		{"file", func(t *testing.T) store.Backend {
			b, err := store.NewFileBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"kvdb", func(t *testing.T) store.Backend {
			b, err := store.NewKVBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			return b
		}},
	}
	const (
		workers      = 4
		rounds       = 5
		opsPerWorker = 10
	)
	for _, fl := range flavours {
		t.Run(fl.name, func(t *testing.T) {
			s := store.New(fl.open(t))
			o := newOracle()
			ws := make([]*worker, workers)
			for i := range ws {
				ws[i] = &worker{id: i, rng: rand.New(rand.NewSource(int64(1000 + i)))}
				ws[i].sessions = []ids.ID{seq.NewID()}
			}

			for round := 0; round < rounds; round++ {
				var wg sync.WaitGroup
				errs := make(chan error, workers+1)
				for _, w := range ws {
					wg.Add(1)
					go func(w *worker) {
						defer wg.Done()
						for op := 0; op < opsPerWorker; op++ {
							if err := w.step(s, o); err != nil {
								errs <- fmt.Errorf("worker %d: %w", w.id, err)
								return
							}
						}
					}(w)
				}
				// One concurrent reader hammers the planner while the
				// writers mutate: results cannot be oracle-checked
				// mid-flight, but they must never error and never
				// contain a record the oracle never knew.
				wg.Add(1)
				go func() {
					defer wg.Done()
					e := query.New(s)
					for i := 0; i < opsPerWorker; i++ {
						if _, _, _, err := e.Query(&prep.Query{Asserter: "svc:enactor"}); err != nil {
							errs <- fmt.Errorf("concurrent reader: %w", err)
							return
						}
					}
				}()
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				quiesceCheck(t, s, o, ws, fmt.Sprintf("round %d", round))
			}

			// Final compaction must not change any answer.
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			quiesceCheck(t, s, o, ws, "after final compaction")
		})
	}
}

// step applies one random operation: mostly records, a healthy share of
// deletions, the occasional whole-session retraction, compaction or
// read.
func (w *worker) step(s *store.Store, o *oracle) error {
	switch p := w.rng.Intn(10); {
	case p < 4: // record a small batch into one of our sessions
		sid := w.pickSession()
		if w.rng.Intn(4) == 0 {
			sid = w.newSession()
		}
		n := 1 + w.rng.Intn(3)
		recs := make([]core.Record, 0, n)
		for i := 0; i < n; i++ {
			recs = append(recs, mkInteraction(sid, core.ActorID(fmt.Sprintf("svc:stage-%d", w.rng.Intn(3))), i))
		}
		acc, rejects, err := s.Record("svc:enactor", recs)
		if err != nil {
			return err
		}
		if acc != n || len(rejects) != 0 {
			return fmt.Errorf("record accepted %d/%d, rejects %v", acc, n, rejects)
		}
		o.record(recs)
		for _, r := range recs {
			w.keys = append(w.keys, r.StorageKey())
		}
	case p < 7: // delete one of our records
		if len(w.keys) == 0 {
			return nil
		}
		i := w.rng.Intn(len(w.keys))
		key := w.keys[i]
		w.keys = append(w.keys[:i], w.keys[i+1:]...)
		n, err := s.DeleteRecords([]string{key})
		if err != nil {
			return err
		}
		if n != 1 {
			return fmt.Errorf("delete of recorded key %s deleted %d records", key, n)
		}
		o.delete(key)
	case p < 8: // retract one of our sessions wholesale
		if len(w.sessions) < 2 {
			return nil
		}
		i := w.rng.Intn(len(w.sessions))
		sid := w.sessions[i]
		w.sessions = append(w.sessions[:i], w.sessions[i+1:]...)
		if _, err := s.DeleteSession(sid); err != nil {
			return err
		}
		o.deleteSession(sid)
		// Drop our bookkeeping for that session's keys.
		kept := w.keys[:0]
		o.mu.Lock()
		for _, k := range w.keys {
			if _, alive := o.recs[k]; alive {
				kept = append(kept, k)
			}
		}
		o.mu.Unlock()
		w.keys = kept
	case p < 9: // compact online, concurrently with everything else
		if err := s.Compact(); err != nil {
			return err
		}
	default: // read one of our sessions through the store scan path
		if _, _, err := s.Query(&prep.Query{SessionID: w.pickSession()}); err != nil {
			return err
		}
	}
	return nil
}

// quiesceCheck asserts, with all writers joined, that planner == scan
// == oracle for a sweep of predicates at the current generation.
func quiesceCheck(t *testing.T, s *store.Store, o *oracle, ws []*worker, label string) {
	t.Helper()
	var sessions []ids.ID
	for _, w := range ws {
		sessions = append(sessions, w.sessions...)
	}
	e := query.New(s)
	for qi, q := range standardQueries(sessions) {
		wantRecs, wantTotal := o.expect(q)
		scanRecs, scanTotal, err := s.Query(q)
		if err != nil {
			t.Fatalf("%s: scan query %d: %v", label, qi, err)
		}
		compareToOracle(t, wantRecs, wantTotal, scanRecs, scanTotal, label, qi, "scan")
		planRecs, planTotal, _, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: planned query %d: %v", label, qi, err)
		}
		compareToOracle(t, wantRecs, wantTotal, planRecs, planTotal, label, qi, "planner")
	}
}

func compareToOracle(t *testing.T, want []core.Record, wantTotal int, got []core.Record, gotTotal int, label string, qi int, path string) {
	t.Helper()
	if gotTotal != wantTotal || len(got) != len(want) {
		t.Fatalf("%s: query %d: %s %d/%d vs oracle %d/%d",
			label, qi, path, len(got), gotTotal, len(want), wantTotal)
	}
	for i := range want {
		w := want[i]
		wb, err := core.EncodeRecord(&w)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := core.EncodeRecord(&got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Fatalf("%s: query %d: %s record %d (%s) differs from oracle (%s)",
				label, qi, path, i, got[i].StorageKey(), w.StorageKey())
		}
	}
}
