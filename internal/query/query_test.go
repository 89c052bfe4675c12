package query

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/store"
)

var seq = &ids.SeqSource{Prefix: 0xE1}

var t0 = time.Date(2026, 7, 1, 9, 0, 0, 0, time.UTC)

// sessionData remembers what populateSessions wrote, for predicates.
type sessionData struct {
	id       ids.ID
	dataOut  ids.ID // last produced datum
	services []core.ActorID
}

// populateSessions records n sessions of perSession activities each
// (one interaction + one script actor-state per activity) through the
// Store layer, so the write-through index is maintained.
func populateSessions(t testing.TB, s *store.Store, n, perSession int) []sessionData {
	t.Helper()
	var out []sessionData
	for i := 0; i < n; i++ {
		sd := sessionData{id: seq.NewID()}
		var records []core.Record
		prev := seq.NewID() // workflow input
		for a := 0; a < perSession; a++ {
			service := core.ActorID(fmt.Sprintf("svc:stage-%d", a%3))
			sd.services = append(sd.services, service)
			in := core.Interaction{ID: seq.NewID(), Sender: "svc:enactor", Receiver: service, Operation: "run"}
			produced := seq.NewID()
			groups := []core.GroupRef{{Type: core.GroupSession, ID: sd.id, Seq: uint64(a + 1)}}
			ts := t0.Add(time.Duration(i*perSession+a) * time.Minute)
			records = append(records,
				*core.NewInteractionRecord(&core.InteractionPAssertion{
					LocalID:     fmt.Sprintf("e%d", a),
					Asserter:    "svc:enactor",
					Interaction: in,
					View:        core.SenderView,
					Request:     core.Message{Name: "invoke", Parts: []core.MessagePart{{Name: "in", DataID: prev}}},
					Response:    core.Message{Name: "result", Parts: []core.MessagePart{{Name: "out", DataID: produced}}},
					Groups:      groups,
					Timestamp:   ts,
				}),
				*core.NewActorStateRecord(&core.ActorStatePAssertion{
					LocalID:     fmt.Sprintf("s%d", a),
					Asserter:    "svc:enactor",
					Interaction: in,
					View:        core.SenderView,
					StateKind:   core.StateScript,
					Content:     core.Bytes("script " + string(service)),
					Groups:      groups,
					Timestamp:   ts,
				}),
			)
			prev = produced
			sd.dataOut = produced
		}
		if _, rejects, err := s.Record("svc:enactor", records); err != nil || len(rejects) > 0 {
			t.Fatalf("populate: err=%v rejects=%v", err, rejects)
		}
		out = append(out, sd)
	}
	return out
}

// countingBackend wraps a Backend and counts Scan invocations by prefix.
type countingBackend struct {
	store.Backend
	mu    sync.Mutex
	scans map[string]int
}

func newCountingBackend(b store.Backend) *countingBackend {
	return &countingBackend{Backend: b, scans: make(map[string]int)}
}

// ScanFrom counts every scan, keyed by prefix: it is the backend's one
// scan, so a full-store sweep cannot hide from the record-scan assertion.
func (c *countingBackend) ScanFrom(prefix, from string, fn func(string, []byte) error) error {
	c.mu.Lock()
	c.scans[prefix]++
	c.mu.Unlock()
	return c.Backend.ScanFrom(prefix, from, fn)
}

// recordScans reports how many scans hit the record keyspace
// ("i/", "s/" or any prefix thereof) — the full-store scans the planner
// must avoid.
func (c *countingBackend) recordScans() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for prefix, count := range c.scans {
		if strings.HasPrefix(prefix, "i/") || strings.HasPrefix(prefix, "s/") || prefix == "" {
			n += count
		}
	}
	return n
}

func (c *countingBackend) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scans = make(map[string]int)
}

func TestSessionQueriesAvoidRecordScans(t *testing.T) {
	// The acceptance check of the subsystem: session-scoped lineage and
	// categorize queries must be answered from posting lists and point
	// Gets — zero Scan calls over the record keyspace — and still agree
	// exactly with the scan path.
	cb := newCountingBackend(store.NewMemoryBackend())
	s := store.New(cb)
	sessions := populateSessions(t, s, 50, 6)
	e := newSized(s, 0) // cache off: every query must hit the planner
	if _, err := s.Index(); err != nil {
		t.Fatal(err)
	}

	target := sessions[17]
	queries := []*prep.Query{
		// trace.Build's lineage fetch.
		{Kind: core.KindInteraction.String(), SessionID: target.id},
		// compare.CategorizeSessions' two fetches.
		{Kind: core.KindActorState.String(), StateKind: core.StateScript, SessionID: target.id},
		// data-scoped lookup.
		{DataID: target.dataOut},
	}
	for _, q := range queries {
		want, wantTotal, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		cb.reset()
		got, total, plan, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if n := cb.recordScans(); n != 0 {
			t.Errorf("query %+v: %d record-keyspace scans, want 0 (plan %+v)", q, n, plan)
		}
		if plan.Strategy != prep.PlanIndex {
			t.Errorf("query %+v: strategy = %s, want index", q, plan.Strategy)
		}
		if total != wantTotal || !reflect.DeepEqual(got, want) {
			t.Errorf("query %+v: planner results differ from scan path (%d vs %d records)", q, len(got), len(want))
		}
	}
}

func TestPlannerIntersectsPostingLists(t *testing.T) {
	cb := newCountingBackend(store.NewMemoryBackend())
	s := store.New(cb)
	sessions := populateSessions(t, s, 10, 6)
	e := newSized(s, 0)

	q := &prep.Query{
		SessionID: sessions[3].id,
		Service:   sessions[3].services[0],
		Kind:      core.KindInteraction.String(),
	}
	want, wantTotal, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, total, plan, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Dims) != 2 {
		t.Errorf("dims = %v, want a two-way intersection", plan.Dims)
	}
	if total != wantTotal || !reflect.DeepEqual(got, want) {
		t.Errorf("intersection results differ from scan path")
	}
	// The candidates actually fetched must be the intersection, not the
	// union: no more than the session's record count.
	if plan.Candidates > 12 {
		t.Errorf("candidates = %d, want at most the session's records", plan.Candidates)
	}
}

// backends yields a fresh store over each backend flavour.
func backends(t *testing.T) map[string]*store.Store {
	t.Helper()
	fb, err := store.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	kb, err := store.NewKVBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kb.Close() })
	return map[string]*store.Store{
		"memory": store.New(store.NewMemoryBackend()),
		"file":   store.New(fb),
		"kvdb":   store.New(kb),
	}
}

func TestPlannerMatchesScanAcrossBackends(t *testing.T) {
	// Identical results to the scan path, for a matrix of predicates,
	// over memory, file and kvdb.
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			sessions := populateSessions(t, s, 6, 4)
			e := newSized(s, 0)
			target := sessions[2]
			queries := []*prep.Query{
				{},
				{SessionID: target.id},
				{SessionID: target.id, Kind: core.KindInteraction.String()},
				{SessionID: target.id, Kind: core.KindActorState.String(), StateKind: core.StateScript},
				{GroupID: target.id},
				{Asserter: "svc:enactor", SessionID: target.id},
				{Service: target.services[1]},
				{DataID: target.dataOut},
				{DataID: seq.NewID()},
				{SessionID: target.id, Limit: 3},
				{Since: t0.Add(5 * time.Minute), Until: t0.Add(10 * time.Minute)},
				{Since: t0.Add(5 * time.Minute), Until: t0.Add(10 * time.Minute), Kind: core.KindInteraction.String()},
				{SessionID: seq.NewID()},
				// Combined time-range + equality dimensions: the time
				// bound applies residually over the intersected lists.
				{SessionID: target.id, Since: t0, Until: t0.Add(time.Hour)},
				{SessionID: target.id, Until: t0.Add(-time.Hour)},
				{Asserter: "svc:enactor", Since: t0.Add(3 * time.Minute), Kind: core.KindActorState.String()},
				{SessionID: target.id, Service: target.services[0], Since: t0, Limit: 2},
				{StateKind: core.StateScript, Since: t0, Until: t0.Add(8 * time.Minute), Limit: 4},
			}
			for _, q := range queries {
				want, wantTotal, err := s.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				got, total, _, err := e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if total != wantTotal {
					t.Errorf("%s %+v: total %d, scan path %d", name, q, total, wantTotal)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %+v: records differ from scan path (%d vs %d)", name, q, len(got), len(want))
				}
			}
		})
	}
}

func TestResultCacheHitsAndInvalidation(t *testing.T) {
	s := store.New(store.NewMemoryBackend())
	sessions := populateSessions(t, s, 3, 4)
	e := New(s)

	q := &prep.Query{SessionID: sessions[0].id}
	first, total1, plan1, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan1.Cached {
		t.Error("first query reported a cache hit")
	}
	second, total2, plan2, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !plan2.Cached {
		t.Error("repeat query missed the cache")
	}
	if total1 != total2 || !reflect.DeepEqual(first, second) {
		t.Error("cached result differs from computed result")
	}

	// Appending to a returned slice must not corrupt the cache.
	_ = append(second, second[0])
	third, _, _, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, third) {
		t.Error("caller mutation leaked into the cache")
	}

	// Recording anything bumps the generation and invalidates the entry.
	populateSessions(t, s, 1, 1)
	_, _, plan3, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan3.Cached {
		t.Error("cache served a stale generation")
	}

	// An idempotent re-record also bumps the generation: its posting
	// re-puts may have repaired an index deficit the cached results
	// were computed against.
	gen := s.Generation()
	recs, _, err := s.Query(&prep.Query{SessionID: sessions[0].id})
	if err != nil {
		t.Fatal(err)
	}
	if _, rejects, err := s.Record("svc:enactor", recs); err != nil || len(rejects) > 0 {
		t.Fatalf("re-record: err=%v rejects=%v", err, rejects)
	}
	if s.Generation() == gen {
		t.Error("idempotent re-record did not advance the generation")
	}
}

func TestResultCacheEvicts(t *testing.T) {
	s := store.New(store.NewMemoryBackend())
	sessions := populateSessions(t, s, 5, 2)
	e := newSized(s, 2)
	for _, sd := range sessions {
		if _, _, _, err := e.Query(&prep.Query{SessionID: sd.id}); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.cache.Stats().Entries; n != 2 {
		t.Errorf("cache holds %d entries, want capacity 2", n)
	}
}

func TestEngineSessions(t *testing.T) {
	s := store.New(store.NewMemoryBackend())
	sessions := populateSessions(t, s, 4, 2)
	e := New(s)
	got, err := e.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sessions) {
		t.Fatalf("sessions = %d, want %d", len(got), len(sessions))
	}
	want := make(map[ids.ID]bool)
	for _, sd := range sessions {
		want[sd.id] = true
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected session %v", id)
		}
	}
}

func TestZeroTimestampRecordsExcludedFromTimeQueries(t *testing.T) {
	// A record without a timestamp is absent from the time index; the
	// scan path must agree (Matches excludes it), keeping the two paths
	// identical.
	s := store.New(store.NewMemoryBackend())
	session := seq.NewID()
	in := core.Interaction{ID: seq.NewID(), Sender: "svc:enactor", Receiver: "svc:gzip", Operation: "run"}
	rec := *core.NewInteractionRecord(&core.InteractionPAssertion{
		LocalID:     "e0",
		Asserter:    "svc:enactor",
		Interaction: in,
		View:        core.SenderView,
		Request:     core.Message{Name: "invoke"},
		Response:    core.Message{Name: "result"},
		Groups:      []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: 1}},
		// Timestamp deliberately zero.
	})
	if _, rejects, err := s.Record("svc:enactor", []core.Record{rec}); err != nil || len(rejects) > 0 {
		t.Fatalf("record: err=%v rejects=%v", err, rejects)
	}
	e := newSized(s, 0)
	for _, q := range []*prep.Query{
		{Until: t0},
		{Since: t0.Add(-time.Hour), Until: t0},
		{SessionID: session, Until: t0},
	} {
		want, wantTotal, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, total, _, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if wantTotal != 0 || total != 0 || len(want) != 0 || len(got) != 0 {
			t.Errorf("%+v: zero-timestamp record matched a time query (scan %d, planner %d)", q, wantTotal, total)
		}
	}
	// Without a time bound both paths still return it.
	got, total, _, err := e.Query(&prep.Query{SessionID: session})
	if err != nil || total != 1 || len(got) != 1 {
		t.Errorf("untimed query: %d/%d err=%v", len(got), total, err)
	}
}

// faultyBackend fails backend batches while armed: with failPostings,
// any batch carrying a posting key (Store.Record's index flush); with
// failRecords, a batch carrying record keys ("i/", "s/"), after durably
// writing its first pair — the prefix a failed write may leave.
type faultyBackend struct {
	store.Backend
	failPostings, failRecords bool
}

func (f *faultyBackend) PutBatch(kvs []store.KV) error {
	for _, p := range kvs {
		if f.failPostings && strings.HasPrefix(p.Key, "x/") {
			return fmt.Errorf("injected posting failure")
		}
		if f.failRecords && (strings.HasPrefix(p.Key, "i/") || strings.HasPrefix(p.Key, "s/")) {
			if err := f.Backend.PutBatch(kvs[:1]); err != nil {
				return err
			}
			return fmt.Errorf("injected record failure")
		}
	}
	return f.Backend.PutBatch(kvs)
}

func TestIndexSelfHealsAfterFailedAdd(t *testing.T) {
	// A record committed whose posting writes then fail must not stay
	// invisible to the planner for the process lifetime: the store
	// drops its index handle, and the next use re-runs the Open-time
	// deficit check, which rebuilds.
	fb := &faultyBackend{Backend: store.NewMemoryBackend()}
	s := store.New(fb)
	sessions := populateSessions(t, s, 1, 2)

	fb.failPostings = true
	target := seq.NewID()
	in := core.Interaction{ID: seq.NewID(), Sender: "svc:enactor", Receiver: "svc:gzip", Operation: "run"}
	rec := *core.NewInteractionRecord(&core.InteractionPAssertion{
		LocalID:     "e0",
		Asserter:    "svc:enactor",
		Interaction: in,
		View:        core.SenderView,
		Request:     core.Message{Name: "invoke"},
		Response:    core.Message{Name: "result"},
		Groups:      []core.GroupRef{{Type: core.GroupSession, ID: target, Seq: 1}},
		Timestamp:   t0,
	})
	if _, _, err := s.Record("svc:enactor", []core.Record{rec}); err == nil {
		t.Fatal("Record succeeded despite injected posting failure")
	}
	fb.failPostings = false

	// The record is committed (scan sees it); the planner must too,
	// without any client retry.
	e := newSized(s, 0)
	_, scanTotal, err := s.Query(&prep.Query{SessionID: target})
	if err != nil {
		t.Fatal(err)
	}
	got, total, _, err := e.Query(&prep.Query{SessionID: target})
	if err != nil {
		t.Fatal(err)
	}
	if scanTotal != 1 || total != 1 || len(got) != 1 {
		t.Fatalf("after failed Add: scan=%d planner=%d, want both 1 (index not healed)", scanTotal, total)
	}
	_ = sessions
}

// TestRecordBatchFailureThenRetry fails the backend batch that carries
// a Record call's records, after its first record is durable, on every
// backend: Record errors and the generation still advances (a cached
// result must not outlive the prefix). Once the fault is disarmed, a
// retry of the call succeeds and the planner finds every record.
func TestRecordBatchFailureThenRetry(t *testing.T) {
	opens := map[string]func(dir string) (store.Backend, error){
		"memory": func(string) (store.Backend, error) { return store.NewMemoryBackend(), nil },
		"file":   func(dir string) (store.Backend, error) { return store.NewFileBackend(dir) },
		"kvdb":   func(dir string) (store.Backend, error) { return store.NewKVBackend(dir) },
	}
	for name, open := range opens {
		t.Run(name, func(t *testing.T) {
			b, err := open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			fb := &faultyBackend{Backend: b}
			s := store.New(fb)
			defer s.Close()
			if _, err := s.Index(); err != nil {
				t.Fatal(err)
			}
			session := seq.NewID()
			var recs []core.Record
			for i := 0; i < 3; i++ {
				in := core.Interaction{ID: seq.NewID(), Sender: "svc:enactor", Receiver: "svc:gzip", Operation: "run"}
				recs = append(recs, *core.NewInteractionRecord(&core.InteractionPAssertion{
					LocalID:     "e0",
					Asserter:    "svc:enactor",
					Interaction: in,
					View:        core.SenderView,
					Request:     core.Message{Name: "invoke"},
					Response:    core.Message{Name: "result"},
					Groups:      []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: 1}},
					Timestamp:   t0,
				}))
			}
			gen := s.Generation()
			fb.failRecords = true
			if _, _, err := s.Record("svc:enactor", recs); err == nil {
				t.Fatal("Record succeeded despite an injected record-batch failure")
			}
			if s.Generation() == gen {
				t.Error("generation did not advance after a failed record batch")
			}
			fb.failRecords = false
			if acc, rej, err := s.Record("svc:enactor", recs); err != nil || acc != len(recs) || len(rej) != 0 {
				t.Fatalf("retry: acc=%d rej=%v err=%v", acc, rej, err)
			}
			got, total, _, err := newSized(s, 0).Query(&prep.Query{SessionID: session})
			if err != nil || total != len(recs) || len(got) != len(recs) {
				t.Fatalf("planner after retry: %d/%d err=%v, want %d", len(got), total, err, len(recs))
			}
		})
	}
}

func TestQueryValidateRejected(t *testing.T) {
	e := New(store.New(store.NewMemoryBackend()))
	if _, _, _, err := e.Query(&prep.Query{Kind: "bogus"}); err == nil {
		t.Error("invalid query accepted")
	}
	if _, _, _, err := e.Query(&prep.Query{Since: t0, Until: t0.Add(-time.Hour)}); err == nil {
		t.Error("empty time range accepted")
	}
}

// recordStateKind records one actor-state record with the given state
// kind into the session.
func recordStateKind(t *testing.T, s *store.Store, session ids.ID, kind, localID string) {
	t.Helper()
	in := core.Interaction{ID: seq.NewID(), Sender: "svc:enactor", Receiver: "svc:gzip", Operation: "run"}
	rec := *core.NewActorStateRecord(&core.ActorStatePAssertion{
		LocalID:     localID,
		Asserter:    "svc:enactor",
		Interaction: in,
		View:        core.SenderView,
		StateKind:   kind,
		Content:     core.Bytes("cfg"),
		Groups:      []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: 1}},
		Timestamp:   t0,
	})
	if _, rejects, err := s.Record("svc:enactor", []core.Record{rec}); err != nil || len(rejects) > 0 {
		t.Fatalf("record state: err=%v rejects=%v", err, rejects)
	}
}

func TestCostBasedPlannerPicksSmallerList(t *testing.T) {
	// The acceptance case for cost-based planning: a query constraining
	// session (a big list) and a rare state kind (a tiny one). The old
	// fixed priority ordered session before state and drove the
	// intersection from the big list; the cost-based planner must probe
	// the cardinalities and drive from the small one.
	s := store.New(store.NewMemoryBackend())
	sessions := populateSessions(t, s, 4, 10) // big session lists (~20 records each)
	target := sessions[1].id
	for i := 0; i < 3; i++ {
		recordStateKind(t, s, target, "rare-config", fmt.Sprintf("cfg%d", i))
	}
	e := newSized(s, 0)

	q := &prep.Query{SessionID: target, StateKind: "rare-config"}
	want, wantTotal, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, total, plan, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal || !reflect.DeepEqual(got, want) {
		t.Fatalf("cost-based results differ from scan path (%d vs %d)", len(got), len(want))
	}
	if len(plan.Dims) < 1 || plan.Dims[0] != "state" {
		t.Errorf("driving dim = %v, want state first (fixed priority would pick sess)", plan.Dims)
	}
	if len(plan.DimCounts) != len(plan.Dims) {
		t.Fatalf("DimCounts %v misaligned with Dims %v", plan.DimCounts, plan.Dims)
	}
	for i := 1; i < len(plan.DimCounts); i++ {
		if plan.DimCounts[i] < plan.DimCounts[i-1] {
			t.Errorf("DimCounts not ascending: %v", plan.DimCounts)
		}
	}
	if plan.EstCandidates != 3 {
		t.Errorf("EstCandidates = %d, want the driving list's 3", plan.EstCandidates)
	}
	// The whole point: execution cost tracks the small list, not the
	// session's. Driving from sess would have read ~20+ postings.
	if plan.Postings > 10 {
		t.Errorf("postings read = %d; cost-based order should stay near the rare list's 3", plan.Postings)
	}
}

func TestCostCutoffExcludesUnselectiveList(t *testing.T) {
	// An interaction id pins ~2 records while the asserter covers the
	// whole store: the actor list is beyond intersectCostRatio of the
	// driving list, so it must be filtered residually, not intersected.
	s := store.New(store.NewMemoryBackend())
	sessions := populateSessions(t, s, 20, 8)
	e := newSized(s, 0)

	// Find one interaction id via a session query.
	recs, _, err := s.Query(&prep.Query{SessionID: sessions[3].id, Kind: core.KindInteraction.String()})
	if err != nil || len(recs) == 0 {
		t.Fatalf("seed query: %d records, err=%v", len(recs), err)
	}
	q := &prep.Query{InteractionID: recs[0].InteractionID(), Asserter: "svc:enactor"}
	want, wantTotal, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, total, plan, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal || !reflect.DeepEqual(got, want) {
		t.Fatalf("results differ from scan path")
	}
	if len(plan.Dims) != 1 || plan.Dims[0] != "int" {
		t.Errorf("dims = %v, want the interaction list alone (actor list beyond the cost cutoff)", plan.Dims)
	}
}

func TestLimitTotalSemanticsAtPlannerBoundaries(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			sessions := populateSessions(t, s, 5, 6)
			e := newSized(s, 0)
			target := sessions[2]
			cases := []*prep.Query{
				// Limit below, at, and above the match count; with an
				// exact covered dim (actor), an inexact one (session),
				// a residual (time) constraint, and the scan fallback.
				{SessionID: target.id, Limit: 5},
				{SessionID: target.id, Limit: 12},
				{SessionID: target.id, Limit: 500},
				{Asserter: "svc:enactor", Limit: 7},
				{Asserter: "svc:enactor", Kind: core.KindInteraction.String(), Limit: 4},
				{SessionID: target.id, Since: t0, Limit: 3},
				{Limit: 9},
				{Since: t0, Limit: 6},
			}
			for _, q := range cases {
				want, wantTotal, err := s.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				got, total, _, err := e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if total != wantTotal {
					t.Errorf("%+v: total %d, scan %d", q, total, wantTotal)
				}
				if q.Limit > 0 && len(got) > q.Limit {
					t.Errorf("%+v: %d records exceed limit", q, len(got))
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%+v: limited records differ from scan path", q)
				}
			}
		})
	}
}

func TestDanglingPostingsSkippedOnIteratorPath(t *testing.T) {
	// A posting whose record never landed (crash between the posting
	// batch and a retried record put, or a rebuild racing a writer) must
	// be skipped silently by the streaming path on every backend —
	// results stay identical to the scan path, which never sees it.
	fileB, err := store.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	kvB, err := store.NewKVBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kvB.Close() })
	for name, backend := range map[string]store.Backend{
		"memory": store.NewMemoryBackend(),
		"file":   fileB,
		"kvdb":   kvB,
	} {
		t.Run(name, func(t *testing.T) {
			s := store.New(backend)
			sessions := populateSessions(t, s, 3, 4)
			if _, err := s.Index(); err != nil {
				t.Fatal(err)
			}
			e := newSized(s, 0)
			target := sessions[1]

			// Plant postings whose record never landed: in the session
			// list (single-dim path) and the same ghost key in the actor
			// list too (intersection path). Only non-kind dims, so the
			// Open-time consistency check stays satisfied.
			ghost := "i/" + seq.NewID().String() + "/sender/svc:enactor/ghost"
			for _, dead := range []string{
				"x/sess/" + target.id.String() + "/" + ghost,
				"x/actor/svc:enactor/" + ghost,
			} {
				if err := backend.Put(dead, nil); err != nil {
					t.Fatal(err)
				}
			}

			for _, q := range []*prep.Query{
				{SessionID: target.id},
				{SessionID: target.id, Kind: core.KindInteraction.String()},
				{SessionID: target.id, Asserter: "svc:enactor"},
				{SessionID: target.id, Limit: 3},
			} {
				want, wantTotal, err := s.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				got, total, plan, err := e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if plan.Strategy != prep.PlanIndex {
					t.Fatalf("%+v: strategy %s, want index", q, plan.Strategy)
				}
				if total != wantTotal || !reflect.DeepEqual(got, want) {
					t.Errorf("%+v: dangling posting leaked into results (%d vs scan %d)", q, total, wantTotal)
				}
			}
		})
	}
}

func TestQueryPagePagination(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			sessions := populateSessions(t, s, 4, 6)
			e := newSized(s, 0)
			target := sessions[1]
			queries := []*prep.Query{
				{SessionID: target.id}, // indexed
				{SessionID: target.id, Kind: core.KindInteraction.String()}, // indexed + kind
				{},                                    // scan fallback
				{Since: t0, Until: t0.Add(time.Hour)}, // time index
			}
			for _, q := range queries {
				want, _, _, err := e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, pageSize := range []int{1, 5, 7, 1000} {
					var got []core.Record
					after := ""
					pages := 0
					for {
						recs, next, done, plan, err := e.QueryPage(q, after, pageSize)
						if err != nil {
							t.Fatal(err)
						}
						if plan == nil {
							t.Fatal("page without plan")
						}
						if len(recs) > pageSize {
							t.Fatalf("page of %d exceeds size %d", len(recs), pageSize)
						}
						got = append(got, recs...)
						pages++
						if pages > len(want)+2 {
							t.Fatalf("%+v size %d: paging did not terminate", q, pageSize)
						}
						if done || next == "" {
							break
						}
						after = next
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%+v size %d: paged stream (%d recs) differs from Query (%d)",
							q, pageSize, len(got), len(want))
					}
				}
			}
		})
	}
}

func TestQueryPageBoundaries(t *testing.T) {
	s := store.New(store.NewMemoryBackend())
	sessions := populateSessions(t, s, 2, 3) // 6 records in the target session
	e := newSized(s, 0)
	q := &prep.Query{SessionID: sessions[0].id}

	// A page larger than the result set is complete and done.
	recs, next, done, _, err := e.QueryPage(q, "", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 || !done || next != "" {
		t.Errorf("oversized page: %d recs done=%v next=%q, want 6/true/empty", len(recs), done, next)
	}

	// An exact-multiple page may report done=false; the follow-up page
	// must then come back empty with done=true.
	recs, next, done, _, err = e.QueryPage(q, "", 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("exact page: %d recs, want 6", len(recs))
	}
	if !done {
		empty, _, done2, _, err := e.QueryPage(q, next, 6)
		if err != nil {
			t.Fatal(err)
		}
		if len(empty) != 0 || !done2 {
			t.Errorf("follow-up page after exact multiple: %d recs done=%v, want 0/true", len(empty), done2)
		}
	}

	// Limit is ignored by the paged path.
	q2 := &prep.Query{SessionID: sessions[0].id, Limit: 2}
	recs, _, _, _, err = e.QueryPage(q2, "", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Errorf("paged query honoured Limit: %d recs, want 5", len(recs))
	}

	// An invalid query is rejected.
	if _, _, _, _, err := e.QueryPage(&prep.Query{Kind: "bogus"}, "", 10); err == nil {
		t.Error("invalid paged query accepted")
	}
}

func TestPlannerStatsAccumulate(t *testing.T) {
	s := store.New(store.NewMemoryBackend())
	sessions := populateSessions(t, s, 3, 4)
	e := newSized(s, 0)

	if _, _, _, err := e.Query(&prep.Query{SessionID: sessions[0].id}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := e.Query(&prep.Query{}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := e.QueryPage(&prep.Query{SessionID: sessions[1].id}, "", 3); err != nil {
		t.Fatal(err)
	}
	st := e.PlannerStats()
	if st.IndexPlans != 2 || st.ScanPlans != 1 || st.PagedQueries != 1 {
		t.Errorf("plans = %+v, want 2 index / 1 scan / 1 paged", st)
	}
	if st.CostProbes < 2 {
		t.Errorf("cost probes = %d, want at least one per indexed query", st.CostProbes)
	}
	if st.PostingsRead == 0 || st.CandidatesFetched == 0 {
		t.Errorf("postings/candidates not accumulated: %+v", st)
	}
}
