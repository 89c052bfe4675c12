package query

// Planner-vs-scan differential tests for time-window queries: the window
// joins the plan as a posting list when it is no longer than the
// driving list, and must then answer exactly what the scan path does.

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/index"
	"preserv/internal/prep"
	"preserv/internal/store"
)

// recordAt records one interaction received by service at ts, its
// request carrying data (unless ids.Nil), grouped under sessions in the
// given order (Matches compares the first).
func recordAt(t testing.TB, s *store.Store, service core.ActorID, ts time.Time, data ids.ID, sessions ...ids.ID) core.Record {
	t.Helper()
	var groups []core.GroupRef
	for i, sid := range sessions {
		groups = append(groups, core.GroupRef{Type: core.GroupSession, ID: sid, Seq: uint64(i + 1)})
	}
	req := core.Message{Name: "invoke"}
	if data.Valid() {
		req.Parts = []core.MessagePart{{Name: "in", DataID: data}}
	}
	rec := *core.NewInteractionRecord(&core.InteractionPAssertion{
		LocalID:     "at",
		Asserter:    "svc:enactor",
		Interaction: core.Interaction{ID: seq.NewID(), Sender: "svc:enactor", Receiver: service, Operation: "run"},
		View:        core.SenderView,
		Request:     req,
		Response:    core.Message{Name: "result"},
		Groups:      groups,
		Timestamp:   ts,
	})
	if _, rejects, err := s.Record("svc:enactor", []core.Record{rec}); err != nil || len(rejects) > 0 {
		t.Fatalf("record: err=%v rejects=%v", err, rejects)
	}
	return rec
}

// minutes is t0 plus n minutes.
func minutes(n int) time.Time { return t0.Add(time.Duration(n) * time.Minute) }

func TestTimedPlansMatchScanAcrossBackends(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			// 8 sessions x 10 activities, two records a minute from t0:
			// svc:stage-0 receives 64 records, stage-1 and stage-2 48 each.
			sessions := populateSessions(t, s, 8, 10)
			target := sessions[1] // minutes 10-19
			// A record posted under two sessions, the target second: the
			// session posting is inexact, so it must be decoded and refused.
			recordAt(t, s, "svc:stage-0", minutes(12), ids.Nil, seq.NewID(), target.id)
			// A reference input read by six runs, one a minute from 100:
			// its data list outgrows a one-minute window.
			ref := seq.NewID()
			for m := 100; m < 106; m++ {
				recordAt(t, s, "svc:ref", minutes(m), ref, seq.NewID())
			}
			e := New(s)

			stage0, stage1 := core.ActorID("svc:stage-0"), core.ActorID("svc:stage-1")
			inter, state := core.KindInteraction.String(), core.KindActorState.String()
			cases := []struct {
				q     prep.Query
				drive bool // the window must drive (false: it must stay out of the plan)
			}{
				{prep.Query{Service: stage0, Since: minutes(10), Until: minutes(14)}, true},
				{prep.Query{Service: stage0, Since: minutes(75)}, true},
				{prep.Query{Service: stage0, Until: minutes(4)}, true},
				{prep.Query{Asserter: "svc:enactor", Since: minutes(30), Until: minutes(33)}, true},
				{prep.Query{StateKind: core.StateScript, Since: minutes(30), Until: minutes(33)}, true},
				{prep.Query{DataID: ref, Since: minutes(102), Until: minutes(103)}, true},
				{prep.Query{SessionID: target.id, Since: minutes(10), Until: minutes(14)}, true},
				{prep.Query{SessionID: target.id, Since: minutes(10), Until: minutes(14), Limit: 1}, true},
				{prep.Query{Service: stage0, Kind: inter, Since: minutes(10), Until: minutes(20)}, true},
				{prep.Query{Asserter: "svc:enactor", Kind: state, Since: minutes(40), Until: minutes(45)}, true},
				{prep.Query{Service: stage0, Since: minutes(20), Until: minutes(35), Limit: 2}, true},
				{prep.Query{Service: stage0, Since: minutes(20), Until: minutes(35), Limit: 100}, true},
				{prep.Query{Service: stage0, Since: minutes(1000)}, true}, // empty on this store
				{prep.Query{Service: stage0, Until: minutes(-1)}, true},   // empty on this store
				// Wider than the driving list: the window stays a residual.
				{prep.Query{Service: stage1, Since: minutes(0), Until: minutes(60)}, false},
				{prep.Query{Service: stage1, Since: minutes(0), Until: minutes(60), Limit: 3}, false},
				{prep.Query{DataID: target.dataOut, Since: minutes(10), Until: minutes(19)}, false},
				{prep.Query{SessionID: target.id, Since: minutes(0)}, false},
				// Time only: the window is the one list.
				{prep.Query{Since: minutes(5), Until: minutes(9)}, true},
				{prep.Query{Since: minutes(5), Until: minutes(9), Kind: state, Limit: 3}, true},
				{prep.Query{Until: minutes(2)}, true},
			}
			for _, c := range cases {
				q := c.q
				want, wantTotal, err := s.Query(&q)
				if err != nil {
					t.Fatal(err)
				}
				got, total, plan, err := e.Query(&q)
				if err != nil {
					t.Fatal(err)
				}
				if total != wantTotal || !reflect.DeepEqual(got, want) {
					t.Errorf("%+v: planner %d/%d, scan %d/%d", q, len(got), total, len(want), wantTotal)
				}
				if c.drive && (len(plan.Dims) == 0 || plan.Dims[0] != index.DimTime) {
					t.Errorf("%+v: dims %v %v, want the window driving", q, plan.Dims, plan.DimCounts)
				}
				if !c.drive && slices.Contains(plan.Dims, index.DimTime) {
					t.Errorf("%+v: dims %v %v, want the wide window left out", q, plan.Dims, plan.DimCounts)
				}
			}
		})
	}
}

func TestTimedQueryPageMatchesQuery(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			sessions := populateSessions(t, s, 6, 10)
			e := New(s)
			for _, q := range []*prep.Query{
				{Service: "svc:stage-0", Since: minutes(10), Until: minutes(25)},
				{Service: "svc:stage-2", Kind: core.KindActorState.String(), Since: minutes(3)},
				{SessionID: sessions[2].id, Since: minutes(22), Until: minutes(26)},
				{Service: "svc:stage-1", Since: minutes(0), Until: minutes(59)}, // wide: residual
			} {
				want, _, _, err := e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, size := range []int{1, 3, 1000} {
					var got []core.Record
					after := ""
					for pages := 0; ; pages++ {
						if pages > len(want)+2 {
							t.Fatalf("%+v size %d: paging did not terminate", q, size)
						}
						recs, next, done, _, err := e.QueryPage(q, after, size)
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, recs...)
						if done || next == "" {
							break
						}
						after = next
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%+v size %d: pages hold %d records, Query %d", q, size, len(got), len(want))
					}
				}
			}
		})
	}
}

func TestServiceWindowCountsByPresence(t *testing.T) {
	// The batch benchmarks' tail query: what one service did in a window,
	// Limit 50. The window drives, time plus the exact service list
	// covers every constraint, so past the Limit the rest of Total is
	// counted by presence: every candidate is a match.
	s := store.New(store.NewMemoryBackend())
	populateSessions(t, s, 40, 10) // stage-0: 320 records over 400 minutes
	e := New(s)
	q := &prep.Query{Service: "svc:stage-0", Since: minutes(100), Until: minutes(249), Limit: 50}
	want, wantTotal, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, total, plan, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal || !reflect.DeepEqual(got, want) {
		t.Fatalf("planner %d/%d, scan %d/%d", len(got), total, len(want), wantTotal)
	}
	if total <= q.Limit {
		t.Fatalf("Total %d does not exceed the Limit; the test proves nothing", total)
	}
	if len(plan.Dims) != 2 || plan.Dims[0] != index.DimTime {
		t.Errorf("dims = %v %v, want time driving the service list", plan.Dims, plan.DimCounts)
	}
	if plan.Candidates != total {
		t.Errorf("candidates = %d, Total = %d: want one candidate per match", plan.Candidates, total)
	}
	// The window (300 keys) and the service list's seeks are all that is
	// read — not the service's 320 postings plus their records.
	if plan.Postings > 2*plan.DimCounts[0] {
		t.Errorf("postings read = %d for a %d-key window", plan.Postings, plan.DimCounts[0])
	}
}

func TestYear10000TimestampRejected(t *testing.T) {
	// The time index sorts terms as strings: a year-10000 term would sort
	// before "2005…" and vanish from {Since: 2000-01-01} on the planner
	// while the scan path still matched it. Record refuses it instead.
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			ok := recordAt(t, s, "svc:gzip", time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC), ids.Nil, seq.NewID())
			p := *ok.Interaction
			p.LocalID = "far"
			p.Timestamp = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
			accepted, rejects, err := s.Record("svc:enactor", []core.Record{*core.NewInteractionRecord(&p)})
			if err != nil || accepted != 0 || len(rejects) != 1 || !strings.Contains(rejects[0].Reason, core.ErrInvalid.Error()) {
				t.Fatalf("year-10000 record: accepted=%d rejects=%v err=%v, want one ErrInvalid reject", accepted, rejects, err)
			}
			e := New(s)
			for _, q := range []*prep.Query{
				{Since: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)},
				{Service: "svc:gzip", Since: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)},
				{Until: time.Date(20000, 1, 1, 0, 0, 0, 0, time.UTC)},
				{Since: time.Date(-5, 1, 1, 0, 0, 0, 0, time.UTC), Until: time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)},
				{Since: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
			} {
				_, wantTotal, err := s.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				_, total, _, err := e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if total != wantTotal {
					t.Errorf("%+v: planner Total %d, scan %d", q, total, wantTotal)
				}
			}
		})
	}
}

// BenchmarkServiceWindow times the batch benchmarks' tail query —
// Service + a window + Limit 50 — over a ≈20k-record kvdb store. The
// engine keeps no result cache, so every iteration plans and executes.
func BenchmarkServiceWindow(b *testing.B) {
	kb, err := store.NewKVBackend(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer kb.Close()
	s := store.New(kb)
	populateSessions(b, s, 1000, 10) // 20k records over 10k minutes
	e := New(s)
	qs := make([]*prep.Query, 16)
	for i := range qs {
		from := 500 * i
		qs[i] = &prep.Query{Service: core.ActorID(fmt.Sprintf("svc:stage-%d", i%3)), Since: minutes(from), Until: minutes(from + 40), Limit: 50}
	}
	for i := 0; b.Loop(); i++ {
		if _, _, _, err := e.Query(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}
