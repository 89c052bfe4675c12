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
	"preserv/internal/index"
	"preserv/internal/obs"
	"preserv/internal/prep"
	"preserv/internal/store"
)

var seq = &ids.SeqSource{Prefix: 0xE1}

var t0 = time.Date(2026, 7, 1, 9, 0, 0, 0, time.UTC)

// sessionData remembers what populateSessions wrote, for predicates.
type sessionData struct {
	id           ids.ID
	dataOut      ids.ID // last produced datum
	services     []core.ActorID
	interactions []ids.ID // one per activity, in order
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
			sd.interactions = append(sd.interactions, in.ID)
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
	e := New(s)
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
	e := New(s)

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
			e := New(s)
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

			// Interaction-scoped queries read the interaction's storage-key
			// prefixes, whole and one record a page, whatever else they
			// constrain.
			iid, at := target.interactions[1], t0.Add(9*time.Minute)
			for _, q := range []*prep.Query{
				{InteractionID: iid},
				{InteractionID: seq.NewID()},
				{InteractionID: iid, Kind: core.KindInteraction.String()},
				{InteractionID: iid, Kind: core.KindActorState.String(), StateKind: core.StateScript},
				{InteractionID: iid, Asserter: "svc:enactor"},
				{InteractionID: iid, Asserter: "svc:other"},
				{InteractionID: iid, Since: at, Until: at},
				{InteractionID: iid, Since: at.Add(time.Nanosecond)},
				{InteractionID: iid, Kind: core.KindActorState.String(), Asserter: "svc:enactor", Since: t0, Until: at},
				{InteractionID: iid, SessionID: target.id, DataID: target.dataOut},
				{InteractionID: iid, SessionID: target.id, Limit: 1},
			} {
				want, wantTotal, err := s.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				got, total, plan, err := e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if plan.Strategy != prep.PlanScan || total != wantTotal || !reflect.DeepEqual(got, want) {
					t.Errorf("%s %+v: %s plan, %d records (total %d), scan path %d (total %d)",
						name, q, plan.Strategy, len(got), total, len(want), wantTotal)
				}
				whole := *q
				whole.Limit = 0
				want, _, err = s.Query(&whole)
				if err != nil {
					t.Fatal(err)
				}
				var paged []core.Record
				for after, pages := "", 0; ; pages++ {
					recs, next, done, plan, err := e.QueryPage(q, after, 1)
					if err != nil {
						t.Fatal(err)
					}
					if plan.Strategy != prep.PlanScan || len(recs) > 1 || pages > len(want) {
						t.Fatalf("%s %+v: page %d is a %s plan of %d records", name, q, pages, plan.Strategy, len(recs))
					}
					paged = append(paged, recs...)
					if done || next == "" {
						break
					}
					after = next
				}
				if !reflect.DeepEqual(paged, want) {
					t.Errorf("%s %+v: 1-record pages gave %d records, scan path %d", name, q, len(paged), len(want))
				}
			}
		})
	}
}

// TestResidualOnlyFieldsMatchScan: GroupID and Asserter have no posting
// list, so the planner checks them on whichever list drives, or leaves
// the query to the scan. Records and Total equal the scan's, under a
// Limit below the match count too, and pages of two add up to the whole.
func TestResidualOnlyFieldsMatchScan(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			sessions := populateSessions(t, s, 4, 6) // minutes 0-23, svc:enactor
			// svc:worker asserts six records at minutes 30-35 in sessions
			// 1 and 2, the first four also in one thread group.
			thread := seq.NewID()
			var worked []core.Record
			for k := 0; k < 6; k++ {
				groups := []core.GroupRef{{Type: core.GroupSession, ID: sessions[1+k%2].id, Seq: uint64(100 + k)}}
				if k < 4 {
					groups = append(groups, core.GroupRef{Type: core.GroupThread, ID: thread, Seq: uint64(k)})
				}
				worked = append(worked, *core.NewInteractionRecord(&core.InteractionPAssertion{
					LocalID:     fmt.Sprintf("w%d", k),
					Asserter:    "svc:worker",
					Interaction: core.Interaction{ID: seq.NewID(), Sender: "svc:worker", Receiver: "svc:stage-0", Operation: "run"},
					View:        core.SenderView,
					Request:     core.Message{Name: "invoke"},
					Response:    core.Message{Name: "result"},
					Groups:      groups,
					Timestamp:   t0.Add(time.Duration(30+k) * time.Minute),
				}))
			}
			if _, rejects, err := s.Record("svc:worker", worked); err != nil || len(rejects) > 0 {
				t.Fatalf("record: err=%v rejects=%v", err, rejects)
			}
			e := New(s)
			cases := []struct {
				q       prep.Query
				matches int  // the scan's Total
				drive   bool // the time window must drive
			}{
				{prep.Query{GroupID: sessions[1].id}, 15, false},
				{prep.Query{GroupID: thread}, 4, false},
				{prep.Query{Asserter: "svc:worker"}, 6, false},
				{prep.Query{Asserter: "svc:worker", Since: t0.Add(31 * time.Minute), Until: t0.Add(33 * time.Minute)}, 3, true},
				{prep.Query{GroupID: thread, Service: "svc:stage-0", Limit: 2}, 4, false},
				{prep.Query{Asserter: "svc:worker", SessionID: sessions[1].id, Limit: 1}, 3, false},
			}
			for _, c := range cases {
				q := c.q
				want, wantTotal, err := s.Query(&q)
				if err != nil {
					t.Fatal(err)
				}
				if wantTotal != c.matches {
					t.Fatalf("%+v: the scan counts %d matches, want %d", q, wantTotal, c.matches)
				}
				got, total, plan, err := e.Query(&q)
				if err != nil {
					t.Fatal(err)
				}
				if total != wantTotal || !reflect.DeepEqual(got, want) {
					t.Errorf("%+v: planner %d records (total %d), scan %d (total %d)", q, len(got), total, len(want), wantTotal)
				}
				if c.drive && (len(plan.Dims) == 0 || plan.Dims[0] != index.DimTime) {
					t.Errorf("%+v: dims %v, want the window driving", q, plan.Dims)
				}
				whole := q
				whole.Limit = 0
				if want, _, err = s.Query(&whole); err != nil {
					t.Fatal(err)
				}
				var paged []core.Record
				for after := ""; ; {
					recs, next, done, _, err := e.QueryPage(&q, after, 2)
					if err != nil {
						t.Fatal(err)
					}
					paged = append(paged, recs...)
					if done || next == "" || len(paged) > len(want) {
						break
					}
					after = next
				}
				if !reflect.DeepEqual(paged, want) {
					t.Errorf("%+v: pages of two gave %d records, scan %d", q, len(paged), len(want))
				}
			}
		})
	}
}

// TestEveryPostingDimensionIsRead writes the posting dimensions of
// sessions with every field the index covers, then runs the index's
// readers — a query on each indexed field, a time window, Sessions and
// DeleteSession — and requires each written dimension to be scanned by
// one of them. An interaction-scoped query reads no posting at all: the
// storage-key order serves it.
func TestEveryPostingDimensionIsRead(t *testing.T) {
	cb := newCountingBackend(store.NewMemoryBackend())
	s := store.New(cb)
	sessions := populateSessions(t, s, 2, 3)
	e := New(s)
	target := sessions[0]

	all, _, err := s.Query(&prep.Query{})
	if err != nil {
		t.Fatal(err)
	}
	written := map[string]bool{}
	var kb index.KeyBuilder
	for i := range all {
		keys, _ := kb.PostingKeys(nil, &all[i])
		for _, k := range keys {
			written[strings.SplitN(k, "/", 3)[1]] = true
		}
	}
	readDims := func() map[string]bool {
		cb.mu.Lock()
		defer cb.mu.Unlock()
		read := map[string]bool{}
		for prefix := range cb.scans {
			if dim, ok := strings.CutPrefix(prefix, "x/"); ok {
				read[strings.SplitN(dim, "/", 2)[0]] = true
			}
		}
		return read
	}

	// An interaction, a group and an asserter have no postings: a query
	// constraining only them reads none.
	for _, q := range []*prep.Query{
		{InteractionID: target.interactions[0]},
		{GroupID: target.id},
		{Asserter: "svc:enactor"},
	} {
		cb.reset()
		if _, _, _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
		for dim := range readDims() {
			t.Errorf("%+v read the %q postings", q, dim)
		}
	}

	cb.reset()
	for _, q := range []*prep.Query{
		{SessionID: target.id},
		{Service: target.services[0]},
		{StateKind: core.StateScript},
		{DataID: target.dataOut},
		{Since: t0, Until: t0.Add(time.Minute)},
	} {
		if _, _, plan, err := e.Query(q); err != nil || plan.Strategy != prep.PlanIndex {
			t.Fatalf("%+v: %v, %+v", q, err, plan)
		}
	}
	if _, err := e.Sessions(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteSession(target.id); err != nil {
		t.Fatal(err)
	}
	read := readDims()
	for dim := range written {
		if !read[dim] {
			t.Errorf("the %q postings are written and never read", dim)
		}
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
	e := New(s)
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

// faultyBackend fails every backend put batch whole while armed, as the
// Backend contract has a failed batch: nothing of it is applied.
type faultyBackend struct {
	store.Backend
	fail bool
}

func (f *faultyBackend) PutBatch(kvs []store.KV) error {
	if f.fail {
		return fmt.Errorf("injected batch failure")
	}
	return f.Backend.PutBatch(kvs)
}

// TestIndexSelfHealsAfterFailedAdd: a Record whose batch fails leaves
// neither the record nor its postings behind — a scan and the planner
// agree it is absent — and a retry lands both.
func TestIndexSelfHealsAfterFailedAdd(t *testing.T) {
	fb := &faultyBackend{Backend: store.NewMemoryBackend()}
	s := store.New(fb)
	populateSessions(t, s, 1, 2)

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
	ix, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	e := New(s)
	check := func(want int, label string) {
		t.Helper()
		_, scanTotal, err := s.Query(&prep.Query{SessionID: target})
		if err != nil {
			t.Fatal(err)
		}
		got, total, _, err := e.Query(&prep.Query{SessionID: target})
		if err != nil {
			t.Fatal(err)
		}
		postings, err := postingsOf(ix, index.DimSession, target.String(), rec.StorageKey())
		if err != nil {
			t.Fatal(err)
		}
		if scanTotal != want || total != want || len(got) != want || postings != want {
			t.Fatalf("%s: scan=%d planner=%d postings=%d, want %d each", label, scanTotal, total, postings, want)
		}
	}
	fb.fail = true
	if _, _, err := s.Record("svc:enactor", []core.Record{rec}); err == nil {
		t.Fatal("Record succeeded despite an injected batch failure")
	}
	fb.fail = false
	check(0, "after the failed Record")
	if acc, rej, err := s.Record("svc:enactor", []core.Record{rec}); err != nil || acc != 1 || len(rej) != 0 {
		t.Fatalf("retry: acc=%d rej=%v err=%v", acc, rej, err)
	}
	check(1, "after the retry")
}

// TestRecordBatchFailureThenRetry fails the backend batch that carries
// a Record call's records and postings, on every backend: Record errors
// and the generation still advances (a cached result must not outlive a
// write the backend may have applied). Once the fault is disarmed, a
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
			fb.fail = true
			if _, _, err := s.Record("svc:enactor", recs); err == nil {
				t.Fatal("Record succeeded despite an injected record-batch failure")
			}
			if s.Generation() == gen {
				t.Error("generation did not advance after a failed record batch")
			}
			fb.fail = false
			if acc, rej, err := s.Record("svc:enactor", recs); err != nil || acc != len(recs) || len(rej) != 0 {
				t.Fatalf("retry: acc=%d rej=%v err=%v", acc, rej, err)
			}
			got, total, _, err := New(s).Query(&prep.Query{SessionID: session})
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

// postingsOf reports how many of the (dim, term) postings point at
// skey: 1 when the record is indexed there, 0 when it is not.
func postingsOf(ix *index.Index, dim, term, skey string) (int, error) {
	n := 0
	err := ix.ScanPostings(dim, term, func(k string) error {
		if k == skey {
			n++
		}
		return nil
	})
	return n, err
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
	e := New(s)

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
	// A data id pins one record while its service covers a third of the
	// store: the service list is beyond intersectCostRatio of the
	// driving list, so it must be filtered residually, not intersected.
	s := store.New(store.NewMemoryBackend())
	sessions := populateSessions(t, s, 20, 8)
	e := New(s)

	q := &prep.Query{DataID: sessions[3].dataOut, Service: "svc:stage-1"}
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
	if total != 1 || len(plan.Dims) != 1 || plan.Dims[0] != index.DimData || plan.DimCounts[0] != 1 {
		t.Errorf("total %d, dims %v %v: want the one-record data list alone (service list beyond the cost cutoff)",
			total, plan.Dims, plan.DimCounts)
	}
}

func TestLimitTotalSemanticsAtPlannerBoundaries(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			sessions := populateSessions(t, s, 5, 6)
			e := New(s)
			target := sessions[2]
			cases := []*prep.Query{
				// Limit below, at, and above the match count; with
				// covered dims (session, service), residual fields
				// (asserter, time), and the scan fallback.
				{SessionID: target.id, Limit: 5},
				{SessionID: target.id, Limit: 12},
				{SessionID: target.id, Limit: 500},
				{Service: "svc:stage-0", Limit: 7},
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
			e := New(s)
			target := sessions[1]

			// Plant postings whose record never landed: in the session
			// list (single-dim path) and the same ghost key in a service
			// list too (intersection path).
			ghost := "i/" + seq.NewID().String() + "/sender/svc:enactor/ghost"
			for _, dead := range []string{
				"x/sess/" + target.id.String() + "/" + ghost,
				"x/svc/svc:stage-0/" + ghost,
			} {
				if err := backend.Put(dead, nil); err != nil {
					t.Fatal(err)
				}
			}

			for _, q := range []*prep.Query{
				{SessionID: target.id},
				{SessionID: target.id, Kind: core.KindInteraction.String()},
				{SessionID: target.id, Service: "svc:stage-0"},
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
			e := New(s)
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
	e := New(s)
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
	e := New(s)

	if _, _, _, err := e.Query(&prep.Query{SessionID: sessions[0].id}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := e.Query(&prep.Query{}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := e.QueryPage(&prep.Query{SessionID: sessions[1].id}, "", 3); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
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

// A planned query's span renders its plan only if the ring keeps it,
// and then into the strings it always carried: the counts as fmt.Sprint
// writes them and the lists joined by commas. Each form is pinned for a
// planned query and for a page.
func TestKeptPlanSpanAttrs(t *testing.T) {
	s := store.New(store.NewMemoryBackend())
	sessions := populateSessions(t, s, 4, 6)
	e := New(s)
	s.Obs().Tracer().SetSlowThreshold(time.Nanosecond) // the ring keeps every span
	q := &prep.Query{SessionID: sessions[1].id, Service: sessions[1].services[0]}
	_, _, planned, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, paged, err := e.QueryPage(q, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	spans := s.Obs().Tracer().Slow()
	for i, want := range []struct {
		op   string
		plan *prep.QueryPlan
	}{{"query.planned", planned}, {"query.page", paged}} {
		span := spans[len(spans)-2+i]
		if span.Op() != want.op || len(want.plan.Dims) != 2 {
			t.Fatalf("span %d is %s over a plan of dims %v, want %s over two", i, span.Op(), want.plan.Dims, want.op)
		}
		counts := make([]string, len(want.plan.DimCounts))
		for j, c := range want.plan.DimCounts {
			counts[j] = fmt.Sprint(c)
		}
		attrs := []obs.Attr{
			{Key: "strategy", Value: string(want.plan.Strategy)},
			{Key: "dims", Value: strings.Join(want.plan.Dims, ",")},
			{Key: "dim_counts", Value: strings.Join(counts, ",")},
			{Key: "est_candidates", Value: fmt.Sprint(want.plan.EstCandidates)},
			{Key: "candidates", Value: fmt.Sprint(want.plan.Candidates)},
			{Key: "postings", Value: fmt.Sprint(want.plan.Postings)},
		}
		if !reflect.DeepEqual(span.Attrs(), attrs) {
			t.Errorf("%s span attrs = %v, want %v", want.op, span.Attrs(), attrs)
		}
	}
}
