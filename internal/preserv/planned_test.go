package preserv

// Wire-level tests for the planned-query and sessions actions: the
// predicate (including its time-range bounds) and the plan must survive
// the XML round trip, and the indexed read side must agree with the
// scan read side end-to-end over HTTP.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/query"
	"preserv/internal/shard"
	"preserv/internal/store"
)

func TestPlannedQueryOverHTTP(t *testing.T) {
	client, _ := startServer(t)
	s1, s2 := seq.NewID(), seq.NewID()
	for _, session := range []ids.ID{s1, s2} {
		r := mkRecord(session, "svc:gzip")
		if _, err := client.Record("svc:enactor", []core.Record{r}); err != nil {
			t.Fatal(err)
		}
	}

	q := &prep.Query{SessionID: s1, Kind: core.KindInteraction.String()}
	wantRecs, wantTotal, err := client.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	recs, total, plan, err := client.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal || len(recs) != len(wantRecs) {
		t.Fatalf("planned %d/%d vs scan %d/%d", len(recs), total, len(wantRecs), wantTotal)
	}
	if recs[0].StorageKey() != wantRecs[0].StorageKey() {
		t.Errorf("planned and scan paths returned different records")
	}
	if plan.Strategy != prep.PlanIndex {
		t.Errorf("plan strategy = %q, want index", plan.Strategy)
	}
	if len(plan.Dims) == 0 || plan.Candidates == 0 {
		t.Errorf("plan not populated over the wire: %+v", plan)
	}

	// A repeat of the same predicate is served from the result cache.
	_, _, plan2, err := client.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if !plan2.Cached {
		t.Errorf("repeat plan = %+v, want cache hit", plan2)
	}
}

func TestPlannedQueryTimeRangeOverHTTP(t *testing.T) {
	// Since/Until must survive XML marshalling (time.Time text form).
	client, _ := startServer(t)
	session := seq.NewID()
	r := mkRecord(session, "svc:gzip")
	if _, err := client.Record("svc:enactor", []core.Record{r}); err != nil {
		t.Fatal(err)
	}
	ts := r.Interaction.Timestamp
	recs, total, plan, err := client.QueryPlanned(&prep.Query{
		Since: ts.Add(-time.Minute),
		Until: ts.Add(time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 || len(recs) != 1 {
		t.Fatalf("time-range query: %d/%d, want the one record", len(recs), total)
	}
	if len(plan.Dims) != 1 || plan.Dims[0] != "time" {
		t.Errorf("plan dims = %v, want the time index", plan.Dims)
	}
	if _, total, _, err = client.QueryPlanned(&prep.Query{Until: ts.Add(-time.Hour)}); err != nil || total != 0 {
		t.Errorf("out-of-range query: total=%d err=%v", total, err)
	}
}

func TestSessionsOverHTTP(t *testing.T) {
	client, _ := startServer(t)
	if sessions, err := client.Sessions(); err != nil || len(sessions) != 0 {
		t.Fatalf("empty store sessions = %v err=%v", sessions, err)
	}
	s1, s2 := seq.NewID(), seq.NewID()
	for _, session := range []ids.ID{s1, s2, s1} {
		r := mkRecord(session, "svc:gzip")
		if _, err := client.Record("svc:enactor", []core.Record{r}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := client.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	want := []ids.ID{s1, s2}
	if s2.Compare(s1) < 0 {
		want = []ids.ID{s2, s1}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sessions = %v, want %v", got, want)
	}
}

// TestRecordInTwoSessionsMatchesEach records one record grouped under
// two sessions, on one store and on four: every read path returns it
// for either session, as Sessions lists both and DeleteSession of either
// would delete it.
func TestRecordInTwoSessionsMatchesEach(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			stores := make([]*store.Store, n)
			children := make([]shard.Shard, n)
			for i := range stores {
				stores[i] = store.New(store.NewMemoryBackend())
				children[i] = shard.NewLocal(stores[i])
			}
			rt, err := shard.NewRouter(children...)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := Serve(NewShardedService(rt), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			client := NewClient(srv.URL, nil)

			s1, s2 := seq.NewID(), seq.NewID()
			rec := mkRecord(s1, "svc:gzip")
			rec.Interaction.Groups = append(rec.Interaction.Groups, core.GroupRef{Type: core.GroupSession, ID: s2, Seq: 1})
			if resp, err := client.Record("svc:enactor", []core.Record{rec, mkRecord(s2, "svc:gzip")}); err != nil || resp.Accepted != 2 {
				t.Fatalf("Record: %+v, %v", resp, err)
			}
			if sessions, err := client.Sessions(); err != nil || len(sessions) != 2 {
				t.Fatalf("Sessions = %v (%v), want both", sessions, err)
			}
			home := stores[shard.Affinity(&rec, n)]
			engine := query.New(home)
			for _, sid := range []ids.ID{s1, s2} {
				q := &prep.Query{SessionID: sid}
				holds := func(path string, recs []core.Record) {
					t.Helper()
					for _, r := range recs {
						if r.StorageKey() == rec.StorageKey() {
							return
						}
					}
					t.Errorf("session %v: %s returned %d records, none of them the one in both sessions", sid, path, len(recs))
				}
				got, _, err := home.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				holds("Store.Query", got)
				got, _, _, err = engine.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				holds("Engine.Query", got)
				got, _, _, _, err = engine.QueryPage(q, "", 10)
				if err != nil {
					t.Fatal(err)
				}
				holds("Engine.QueryPage", got)
				got, _, _, err = rt.QueryPlanned(q)
				if err != nil {
					t.Fatal(err)
				}
				holds("Router.QueryPlanned", got)
				got = got[:0]
				if _, err := client.QueryStream(q, 1, func(r *core.Record) error {
					got = append(got, *r)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				holds("Client.QueryStream", got)
			}
		})
	}
}
