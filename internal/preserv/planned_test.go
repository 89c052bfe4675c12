package preserv

// Wire-level tests for the planned-query and sessions actions: the
// predicate (including its time-range bounds) and the plan must survive
// the XML round trip, and the indexed read side must agree with the
// scan read side end-to-end over HTTP.

import (
	"reflect"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
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
