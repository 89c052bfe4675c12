package preserv

// Wire-level tests for the cursor-paged query action: the cursor, page
// size and done flag must survive the XML round trip, a paged stream
// must reassemble exactly what one planned query returns, and the
// planner telemetry must surface in Stats.

import (
	"reflect"
	"testing"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
)

func TestQueryPageOverHTTP(t *testing.T) {
	client, _ := startServer(t)
	session := seq.NewID()
	var records []core.Record
	for i := 0; i < 9; i++ {
		records = append(records, mkRecord(session, "svc:gzip"))
	}
	if resp, err := client.Record("svc:enactor", records); err != nil || resp.Accepted != len(records) {
		t.Fatalf("record: %+v err=%v", resp, err)
	}

	q := &prep.Query{SessionID: session}
	want, _, _, err := client.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}

	var got []core.Record
	after := ""
	pages := 0
	for {
		resp, err := client.QueryPage(q, after, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Records) > 4 {
			t.Fatalf("page carries %d records, asked for 4", len(resp.Records))
		}
		if resp.Plan.Strategy != prep.PlanIndex {
			t.Errorf("page plan strategy = %q, want index", resp.Plan.Strategy)
		}
		got = append(got, resp.Records...)
		pages++
		if pages > 5 {
			t.Fatal("paging did not terminate")
		}
		if resp.Done || resp.Next == "" {
			break
		}
		after = resp.Next
	}
	if pages < 3 {
		t.Errorf("9 records over size-4 pages took %d pages, want >= 3", pages)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paged stream (%d) differs from planned query (%d)", len(got), len(want))
	}
}

func TestQueryStreamOverHTTP(t *testing.T) {
	client, _ := startServer(t)
	s1, s2 := seq.NewID(), seq.NewID()
	for _, session := range []ids.ID{s1, s2} {
		var records []core.Record
		for i := 0; i < 5; i++ {
			records = append(records, mkRecord(session, "svc:ppmz"))
		}
		if _, err := client.Record("svc:enactor", records); err != nil {
			t.Fatal(err)
		}
	}
	q := &prep.Query{SessionID: s2}
	want, _, _, err := client.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	var got []core.Record
	plan, err := client.QueryStream(q, 2, func(r *core.Record) error {
		got = append(got, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || plan.Strategy != prep.PlanIndex {
		t.Errorf("stream plan = %+v, want index strategy", plan)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed records (%d) differ from planned query (%d)", len(got), len(want))
	}

	// A stream over an empty result set ends immediately.
	calls := 0
	if _, err := client.QueryStream(&prep.Query{SessionID: seq.NewID()}, 2, func(*core.Record) error {
		calls++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("empty stream invoked fn %d times", calls)
	}
}

func TestStatsSurfacePlannerCounters(t *testing.T) {
	client, svc := startServer(t)
	session := seq.NewID()
	if _, err := client.Record("svc:enactor", []core.Record{mkRecord(session, "svc:gzip")}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := client.QueryPlanned(&prep.Query{SessionID: session}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Query(&prep.Query{}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.QueryPage(&prep.Query{SessionID: session}, "", 2); err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, svc)
	if st.Engine.IndexPlans < 2 {
		t.Errorf("Engine.IndexPlans = %d, want >= 2 (planned + page)", st.Engine.IndexPlans)
	}
	if st.Engine.PagedQueries != 1 {
		t.Errorf("Engine.PagedQueries = %d, want 1", st.Engine.PagedQueries)
	}
	if st.Engine.CostProbes == 0 || st.Engine.PostingsRead == 0 || st.Engine.CandidatesFetched == 0 {
		t.Errorf("planner counters not surfaced: %+v", st)
	}
}
