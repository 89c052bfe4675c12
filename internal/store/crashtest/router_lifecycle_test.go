package crashtest

// Randomized lifecycle property test for the sharded topology: the same
// random Record / DeleteRecords / DeleteSession / Query / Compact
// interleaving as TestRandomizedLifecycleAllBackends, but run through a
// shard.Router over three children of each backend flavour. At every
// quiesce point the sharded planner, the sharded scan path and the
// plain-map oracle must agree byte for byte.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/shard"
	"preserv/internal/store"
)

// routerWorker mirrors worker but drives a Router.
type routerWorker struct {
	id       int
	rng      *rand.Rand
	sessions []ids.ID
	keys     []string
}

func (w *routerWorker) newSession() ids.ID {
	sid := seq.NewID()
	w.sessions = append(w.sessions, sid)
	return sid
}

func (w *routerWorker) pickSession() ids.ID {
	return w.sessions[w.rng.Intn(len(w.sessions))]
}

func (w *routerWorker) step(rt *shard.Router, o *oracle) error {
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
		acc, rejects, err := rt.Record("svc:enactor", recs)
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
	case p < 7: // delete one of our records (fans out across shards)
		if len(w.keys) == 0 {
			return nil
		}
		i := w.rng.Intn(len(w.keys))
		key := w.keys[i]
		w.keys = append(w.keys[:i], w.keys[i+1:]...)
		n, err := rt.DeleteRecords([]string{key})
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
		if _, err := rt.DeleteSession(sid); err != nil {
			return err
		}
		o.deleteSession(sid)
		kept := w.keys[:0]
		o.mu.Lock()
		for _, k := range w.keys {
			if _, alive := o.recs[k]; alive {
				kept = append(kept, k)
			}
		}
		o.mu.Unlock()
		w.keys = kept
	case p < 9: // compact every shard, concurrently with everything else
		if err := rt.Compact(); err != nil {
			return err
		}
	default: // read one of our sessions through the sharded scan path
		if _, _, err := rt.Query(&prep.Query{SessionID: w.pickSession()}); err != nil {
			return err
		}
	}
	return nil
}

func TestRouterRandomizedLifecycleAllBackends(t *testing.T) {
	flavours := []struct {
		name string
		open func(t *testing.T) store.Backend
	}{
		{"memory", func(t *testing.T) store.Backend { return store.NewMemoryBackend() }},
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
		shards       = 3
		workers      = 4
		rounds       = 4
		opsPerWorker = 10
	)
	for _, fl := range flavours {
		t.Run(fl.name, func(t *testing.T) {
			children := make([]shard.Shard, shards)
			for i := range children {
				children[i] = shard.NewLocal(store.New(fl.open(t)))
			}
			rt, err := shard.NewRouter(children...)
			if err != nil {
				t.Fatal(err)
			}
			o := newOracle()
			ws := make([]*routerWorker, workers)
			for i := range ws {
				ws[i] = &routerWorker{id: i, rng: rand.New(rand.NewSource(int64(7000 + i)))}
				ws[i].sessions = []ids.ID{seq.NewID()}
			}

			for round := 0; round < rounds; round++ {
				var wg sync.WaitGroup
				errs := make(chan error, workers)
				for _, w := range ws {
					wg.Add(1)
					go func(w *routerWorker) {
						defer wg.Done()
						for op := 0; op < opsPerWorker; op++ {
							if err := w.step(rt, o); err != nil {
								errs <- fmt.Errorf("worker %d: %w", w.id, err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				routerQuiesceCheck(t, rt, o, ws, fmt.Sprintf("round %d", round))
			}

			// Final compaction fan-out must not change any answer.
			if err := rt.Compact(); err != nil {
				t.Fatal(err)
			}
			routerQuiesceCheck(t, rt, o, ws, "after final compaction")
		})
	}
}

// routerQuiesceCheck asserts, with all writers joined, that the sharded
// planner == sharded scan == oracle for the standard predicate sweep.
func routerQuiesceCheck(t *testing.T, rt *shard.Router, o *oracle, ws []*routerWorker, label string) {
	t.Helper()
	var sessions []ids.ID
	for _, w := range ws {
		sessions = append(sessions, w.sessions...)
	}
	for qi, q := range standardQueries(sessions) {
		wantRecs, wantTotal := o.expect(q)
		scanRecs, scanTotal, err := rt.Query(q)
		if err != nil {
			t.Fatalf("%s: sharded scan query %d: %v", label, qi, err)
		}
		compareToOracle(t, wantRecs, wantTotal, scanRecs, scanTotal, label, qi, "sharded-scan")
		planRecs, planTotal, _, err := rt.QueryPlanned(q)
		if err != nil {
			t.Fatalf("%s: sharded planned query %d: %v", label, qi, err)
		}
		compareToOracle(t, wantRecs, wantTotal, planRecs, planTotal, label, qi, "sharded-planner")
	}
}
