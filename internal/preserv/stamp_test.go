package preserv

// The result cache's exactness, as a property: over seeded random
// interleavings of writes to new and existing sessions, deletions and
// session retractions, every query answered through a router's result
// cache — a single store's service and a 4-shard router — equals what a
// store with no cache in front answers. Some writes pause inside their
// commit section and run queries there, before the batch applies: an
// answer cached in that window is stamped with what the store reported
// before the write, and must not outlive it.

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/shard"
	"preserv/internal/store"
)

// pausingBackend runs hook, when set, just before each batch it is given
// applies: the writer holds its commit section then, and the store still
// reads as it was before the write.
type pausingBackend struct {
	store.Backend
	hook func()
}

func (b *pausingBackend) PutBatch(kvs []store.KV) error {
	if b.hook != nil {
		b.hook()
	}
	return b.Backend.PutBatch(kvs)
}

func (b *pausingBackend) DeleteBatch(keys []string) error {
	if b.hook != nil {
		b.hook()
	}
	return b.Backend.DeleteBatch(keys)
}

// cachedSystem is one topology under test, with the backends its
// stores write through.
type cachedSystem struct {
	name  string
	p     shard.Shard
	backs []*pausingBackend
}

func newCachedSystems(t *testing.T) []cachedSystem {
	t.Helper()
	// Each store's index is opened here, so that its schema marker is
	// written before any hook is set: the open holds the lock that
	// queries take first.
	newStore := func(b store.Backend) *store.Store {
		s := store.New(b)
		if _, err := s.Index(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	single := &pausingBackend{Backend: store.NewMemoryBackend()}
	systems := []cachedSystem{{name: "single", p: NewService(newStore(single)).Provenance(), backs: []*pausingBackend{single}}}
	var kids []shard.Shard
	var backs []*pausingBackend
	for i := 0; i < 4; i++ {
		b := &pausingBackend{Backend: store.NewMemoryBackend()}
		backs = append(backs, b)
		kids = append(kids, shard.NewLocal(newStore(b)))
	}
	rt, err := shard.NewRouter(kids...)
	if err != nil {
		t.Fatal(err)
	}
	return append(systems, cachedSystem{name: "4-shard", p: rt, backs: backs})
}

// stampRecord is a one-record interaction of the given session groups
// (none, one, or several).
func stampRecord(sessions ...ids.ID) core.Record {
	r := mkRecord(ids.Nil, "svc:a")
	r.Interaction.Groups = r.Interaction.Groups[:0]
	for i, s := range sessions {
		r.Interaction.Groups = append(r.Interaction.Groups, core.GroupRef{Type: core.GroupSession, ID: s, Seq: uint64(i + 1)})
	}
	return r
}

func recordKeys(recs []core.Record) []string {
	keys := make([]string, len(recs))
	for i := range recs {
		keys[i] = recs[i].StorageKey()
	}
	return keys
}

// answers runs q every way a router caches it — Query, QueryPlanned, and
// a walk of 3-record pages — and returns each way's storage keys and
// total, the walk's under "page".
func answers(p shard.Shard, q *prep.Query) (map[string][]string, map[string]int, error) {
	keys, totals := map[string][]string{}, map[string]int{}
	recs, total, err := p.Query(q)
	if err != nil {
		return nil, nil, err
	}
	keys["query"], totals["query"] = recordKeys(recs), total
	recs, total, _, err = p.QueryPlanned(q)
	if err != nil {
		return nil, nil, err
	}
	keys["planned"], totals["planned"] = recordKeys(recs), total
	after := ""
	var walked []string
	for pages := 0; ; pages++ {
		recs, next, done, _, err := p.QueryPage(q, after, 3)
		if err != nil {
			return nil, nil, err
		}
		walked = append(walked, recordKeys(recs)...)
		if done || next == "" || pages > 1000 {
			break
		}
		after = next
	}
	keys["page"], totals["page"] = walked, len(walked)
	return keys, totals, nil
}

// describe names a pooled query in a failure message.
func describe(q *prep.Query) string {
	switch {
	case q.SessionID.Valid():
		return "session " + q.SessionID.String()
	case q.Asserter != "":
		return "asserter " + string(q.Asserter)
	}
	return "kind " + q.Kind
}

func TestResultCacheMatchesUncachedStore(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkCacheAgainstStore(t, seed, 30) })
	}
}

func checkCacheAgainstStore(t *testing.T, seed uint64, steps int) {
	rng := rand.New(rand.NewPCG(seed, 48))
	oracle := shard.NewLocal(store.New(store.NewMemoryBackend())) // store.Query, no cache
	systems := newCachedSystems(t)
	var sessions []ids.ID

	pool := func() []*prep.Query {
		qs := []*prep.Query{{Asserter: "svc:enactor"}, {Kind: core.KindInteraction.String()}}
		for _, s := range sessions {
			qs = append(qs, &prep.Query{SessionID: s})
		}
		return qs
	}
	pick := func() ids.ID { return sessions[rng.IntN(len(sessions))] }
	// warm runs every pooled query through every system, caching it.
	warm := func() {
		for _, sys := range systems {
			for _, q := range pool() {
				if _, _, err := answers(sys.p, q); err != nil {
					t.Error(err)
				}
			}
		}
	}
	mutate := func(op string, apply func(p shard.Shard) error) {
		paused := rng.IntN(2) == 0
		if err := apply(oracle); err != nil {
			t.Fatalf("%s on the oracle: %v", op, err)
		}
		for _, sys := range systems {
			for _, b := range sys.backs {
				if paused {
					b.hook = warm
				}
			}
			err := apply(sys.p)
			for _, b := range sys.backs {
				b.hook = nil
			}
			if err != nil {
				t.Fatalf("%s on %s: %v", op, sys.name, err)
			}
		}
	}
	record := func(recs ...core.Record) {
		mutate("record", func(p shard.Shard) error {
			_, rejects, err := p.Record("svc:enactor", recs)
			if err == nil && len(rejects) > 0 {
				err = fmt.Errorf("rejects %v", rejects)
			}
			return err
		})
	}

	for step := 0; step < steps; step++ {
		switch op := rng.IntN(6); {
		case op == 0 || len(sessions) < 2:
			s := seq.NewID()
			sessions = append(sessions, s)
			var recs []core.Record
			for n := 1 + rng.IntN(4); len(recs) < n; {
				recs = append(recs, stampRecord(s))
			}
			record(recs...)
		case op == 1:
			s := pick()
			var recs []core.Record
			for n := 1 + rng.IntN(3); len(recs) < n; {
				recs = append(recs, stampRecord(s))
			}
			record(recs...)
		case op == 2:
			// Records in two sessions: a batch across two, a record
			// carrying both, and a record in none.
			a, b := pick(), pick()
			record(stampRecord(a), stampRecord(b), stampRecord(a, b), stampRecord())
		case op == 3:
			all, _, err := oracle.Query(&prep.Query{})
			if err != nil {
				t.Fatal(err)
			}
			keys := []string{"i/absent"}
			for n := 1 + rng.IntN(3); len(keys) <= n && len(all) > 0; {
				keys = append(keys, all[rng.IntN(len(all))].StorageKey())
			}
			mutate("delete", func(p shard.Shard) error { _, err := p.DeleteRecords(keys); return err })
		case op == 4:
			s := pick()
			mutate("delete-session", func(p shard.Shard) error { _, err := p.DeleteSession(s); return err })
		default:
			warm()
		}

		// Every pooled query, twice (the second a hit where the first
		// filled), must answer as the oracle does.
		for _, q := range pool() {
			want, total, err := oracle.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			wantKeys := recordKeys(want)
			for _, sys := range systems {
				for pass := 0; pass < 2; pass++ {
					keys, totals, err := answers(sys.p, q)
					if err != nil {
						t.Fatal(err)
					}
					for way, got := range keys {
						wantTotal := total
						if way == "page" {
							wantTotal = len(wantKeys)
						}
						if !slices.Equal(got, wantKeys) || totals[way] != wantTotal {
							t.Fatalf("step %d, %s, %s of %s (pass %d): %d records (total %d), the store holds %d (total %d)",
								step, sys.name, way, describe(q), pass, len(got), totals[way], len(wantKeys), total)
						}
					}
				}
			}
		}
	}
	// The cache must have served: a property that held only because
	// every lookup missed would show nothing.
	for _, sys := range systems {
		if hits := sys.p.EngineStats().CacheHits; hits == 0 {
			t.Errorf("%s: no query was answered from the cache", sys.name)
		}
	}
}
