package client

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/preserv"
	"preserv/internal/store"
)

var seq = &ids.SeqSource{Prefix: 0xF1}

func startStore(t *testing.T) (*preserv.Client, *preserv.Service) {
	t.Helper()
	svc := preserv.NewService(store.New(store.NewMemoryBackend()))
	srv, err := preserv.Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return preserv.NewClient(srv.URL, nil), svc
}

// storeStats is the service's telemetry snapshot, failing the test if
// it cannot be assembled.
func storeStats(t *testing.T, svc *preserv.Service) *prep.StatsResponse {
	t.Helper()
	st, err := svc.StatsResponse()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mkRecord(session ids.ID) core.Record {
	in := core.Interaction{ID: seq.NewID(), Sender: "svc:enactor", Receiver: "svc:gzip", Operation: "run"}
	return *core.NewInteractionRecord(&core.InteractionPAssertion{
		LocalID:     "x",
		Asserter:    in.Sender,
		Interaction: in,
		View:        core.SenderView,
		Request:     core.Message{Name: "invoke"},
		Response:    core.Message{Name: "result"},
		Groups:      []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: 1}},
		Timestamp:   time.Now().UTC(),
	})
}

func TestNullRecorder(t *testing.T) {
	var r NullRecorder
	if err := r.Record(mkRecord(seq.NewID())); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncRecorderShipsImmediately(t *testing.T) {
	pc, svc := startStore(t)
	r := NewSyncRecorder(pc, "svc:enactor")
	session := seq.NewID()
	if err := r.Record(mkRecord(session), mkRecord(session)); err != nil {
		t.Fatal(err)
	}
	// No flush needed: records must already be in the store.
	cnt, err := pc.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Interactions != 2 {
		t.Fatalf("store has %d interactions before Flush, want 2", cnt.Interactions)
	}
	st := r.Stats()
	if st.Recorded != 2 || st.Shipped != 2 {
		t.Errorf("stats = %+v", st)
	}
	if storeStats(t, svc).RecordRequests != 1 {
		t.Errorf("sync recorder should have made 1 request, got %d", storeStats(t, svc).RecordRequests)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncRecorderRejects(t *testing.T) {
	pc, _ := startStore(t)
	r := NewSyncRecorder(pc, "svc:enactor")
	bad := mkRecord(seq.NewID())
	bad.Interaction.LocalID = ""
	err := r.Record(bad)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestSyncRecorderEmptyCall(t *testing.T) {
	pc, svc := startStore(t)
	r := NewSyncRecorder(pc, "svc:enactor")
	if err := r.Record(); err != nil {
		t.Fatal(err)
	}
	if storeStats(t, svc).RecordRequests != 0 {
		t.Error("empty Record must not invoke the store")
	}
}

func TestAsyncRecorderDefersShipping(t *testing.T) {
	pc, _ := startStore(t)
	journal := filepath.Join(t.TempDir(), "journal.gob")
	r, err := NewAsyncRecorder("svc:enactor", journal, 10, pc)
	if err != nil {
		t.Fatal(err)
	}
	session := seq.NewID()
	for i := 0; i < 25; i++ {
		if err := r.Record(mkRecord(session)); err != nil {
			t.Fatal(err)
		}
	}
	cnt, err := pc.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Interactions != 0 {
		t.Fatalf("async recorder shipped %d records before Flush", cnt.Interactions)
	}
	if r.Pending() != 25 {
		t.Fatalf("Pending = %d, want 25", r.Pending())
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	cnt, err = pc.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Interactions != 25 {
		t.Fatalf("after Flush store has %d, want 25", cnt.Interactions)
	}
	if r.Pending() != 0 {
		t.Errorf("Pending after flush = %d", r.Pending())
	}
	st := r.Stats()
	if st.Recorded != 25 || st.Shipped != 25 {
		t.Errorf("stats = %+v", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncRecorderFlushTwice(t *testing.T) {
	pc, _ := startStore(t)
	journal := filepath.Join(t.TempDir(), "j.gob")
	r, err := NewAsyncRecorder("svc:enactor", journal, 0, pc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	session := seq.NewID()
	r.Record(mkRecord(session))
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	// Second flush with nothing pending is a no-op.
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	// Records after a flush land in a fresh journal generation.
	r.Record(mkRecord(session))
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	cnt, _ := pc.Count()
	if cnt.Interactions != 2 {
		t.Fatalf("interactions = %d, want 2", cnt.Interactions)
	}
}

func TestAsyncRecorderCloseFlushes(t *testing.T) {
	pc, _ := startStore(t)
	journal := filepath.Join(t.TempDir(), "j.gob")
	r, err := NewAsyncRecorder("svc:enactor", journal, 0, pc)
	if err != nil {
		t.Fatal(err)
	}
	session := seq.NewID()
	r.Record(mkRecord(session), mkRecord(session))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	cnt, _ := pc.Count()
	if cnt.Interactions != 2 {
		t.Fatalf("Close did not flush: %d interactions", cnt.Interactions)
	}
	if err := r.Record(mkRecord(session)); err == nil {
		t.Error("Record after Close should fail")
	}
	if err := r.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestAsyncRecorderConcurrentRecord(t *testing.T) {
	pc, _ := startStore(t)
	journal := filepath.Join(t.TempDir(), "j.gob")
	r, err := NewAsyncRecorder("svc:enactor", journal, 50, pc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	session := seq.NewID()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := r.Record(mkRecord(session)); err != nil {
					t.Errorf("Record: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	cnt, _ := pc.Count()
	if cnt.Interactions != 400 {
		t.Fatalf("interactions = %d, want 400", cnt.Interactions)
	}
}

func TestAsyncRecorderDistributedStores(t *testing.T) {
	// E8: parallel submission into several provenance store instances.
	var clients []*preserv.Client
	var services []*preserv.Service
	for i := 0; i < 4; i++ {
		pc, svc := startStore(t)
		clients = append(clients, pc)
		services = append(services, svc)
	}
	journal := filepath.Join(t.TempDir(), "j.gob")
	r, err := NewAsyncRecorder("svc:enactor", journal, 5, clients...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	session := seq.NewID()
	for i := 0; i < 100; i++ {
		r.Record(mkRecord(session))
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	total := 0
	touched := 0
	for i, pc := range clients {
		cnt, err := pc.Count()
		if err != nil {
			t.Fatal(err)
		}
		total += cnt.Interactions
		if cnt.Interactions > 0 {
			touched++
		}
		_ = services[i]
	}
	if total != 100 {
		t.Fatalf("distributed total = %d, want 100", total)
	}
	if touched != 4 {
		t.Fatalf("only %d of 4 stores received records", touched)
	}
}

func TestAsyncRecorderNoEndpoints(t *testing.T) {
	if _, err := NewAsyncRecorder("a", filepath.Join(t.TempDir(), "j"), 0); err == nil {
		t.Error("no endpoints should be rejected")
	}
}

func TestAsyncRecorderBadJournalPath(t *testing.T) {
	pc, _ := startStore(t)
	if _, err := NewAsyncRecorder("a", filepath.Join(t.TempDir(), "missing", "j"), 0, pc); err == nil {
		t.Error("unwritable journal path should fail")
	}
}

func TestAsyncRecorderFlushFailureKeepsJournal(t *testing.T) {
	// Records must survive a failed flush so they can be re-shipped.
	dead := preserv.NewClient("http://127.0.0.1:1", nil)
	journal := filepath.Join(t.TempDir(), "j.gob")
	r, err := NewAsyncRecorder("svc:enactor", journal, 0, dead)
	if err != nil {
		t.Fatal(err)
	}
	session := seq.NewID()
	r.Record(mkRecord(session))
	if err := r.Flush(); err == nil {
		t.Fatal("flush to dead endpoint should fail")
	}
	if r.Pending() != 1 {
		t.Fatalf("Pending after failed flush = %d, want 1", r.Pending())
	}
	// Re-point is not supported; but a live endpoint recorder can pick up
	// where journaling left off in a fresh recorder — here we just check
	// the journal was not truncated.
}

// TestAsyncRecorderAdoptsCrashedActiveJournal abandons a recorder
// without Close while its active journal holds records — most already
// written to the file, a tail still in the write buffer. A new recorder
// on the same path must adopt the file's clean prefix and ship exactly
// that prefix, not truncate it away.
func TestAsyncRecorderAdoptsCrashedActiveJournal(t *testing.T) {
	s := store.New(store.NewMemoryBackend())
	srv, err := preserv.Serve(preserv.NewService(s), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pc := preserv.NewClient(srv.URL, nil)
	journal := filepath.Join(t.TempDir(), "j.gob")
	crashed, err := NewAsyncRecorder("svc:enactor", journal, 0, pc)
	if err != nil {
		t.Fatal(err)
	}
	session := seq.NewID()
	const n = 2000
	order := make(map[string]int, n)
	for i := 0; i < n; i++ {
		rec := mkRecord(session)
		order[rec.StorageKey()] = i
		if err := crashed.Record(rec); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewAsyncRecorder("svc:enactor", journal, 0, pc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	adopted := r.Pending()
	if adopted == 0 {
		t.Fatal("the crashed recorder's active journal was not adopted")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	shipped, total, err := s.Query(&prep.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if int64(total) != adopted || r.Stats().Shipped != adopted {
		t.Fatalf("adopted %d records, store holds %d, recorder shipped %d", adopted, total, r.Stats().Shipped)
	}
	for _, rec := range shipped {
		if i, ok := order[rec.StorageKey()]; !ok || int64(i) >= adopted {
			t.Fatalf("shipped record %s is not in the first %d recorded", rec.StorageKey(), adopted)
		}
	}
}

func TestRecorderInterfaceCompliance(t *testing.T) {
	pc, _ := startStore(t)
	journal := filepath.Join(t.TempDir(), "j.gob")
	async, err := NewAsyncRecorder("a", journal, 0, pc)
	if err != nil {
		t.Fatal(err)
	}
	defer async.Close()
	for _, r := range []Recorder{NullRecorder{}, NewSyncRecorder(pc, "a"), async} {
		if r == nil {
			t.Fatal("nil recorder")
		}
	}
	var _ StatsReporter = NewSyncRecorder(pc, "a")
	var _ StatsReporter = async
}

func TestQueryThroughStoreAfterAsyncFlush(t *testing.T) {
	pc, _ := startStore(t)
	journal := filepath.Join(t.TempDir(), "j.gob")
	r, err := NewAsyncRecorder("svc:enactor", journal, 0, pc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	session := seq.NewID()
	recs := []core.Record{mkRecord(session), mkRecord(session), mkRecord(session)}
	r.Record(recs...)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	got, total, err := pc.Query(&prep.Query{SessionID: session})
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Fatalf("query total = %d, want 3", total)
	}
	keys := map[string]bool{}
	for _, rec := range got {
		keys[rec.StorageKey()] = true
	}
	for _, rec := range recs {
		if !keys[rec.StorageKey()] {
			t.Errorf("record %s missing after flush", rec.StorageKey())
		}
	}
}

func TestManyBatches(t *testing.T) {
	pc, svc := startStore(t)
	journal := filepath.Join(t.TempDir(), "j.gob")
	r, err := NewAsyncRecorder("svc:enactor", journal, 7, pc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	session := seq.NewID()
	for i := 0; i < 100; i++ {
		r.Record(mkRecord(session))
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	// ceil(100/7) = 15 store invocations.
	if got := storeStats(t, svc).RecordRequests; got != 15 {
		t.Errorf("store requests = %d, want 15", got)
	}
	fmt.Fprintln(testingDiscard{}, "ok")
}

type testingDiscard struct{}

func (testingDiscard) Write(p []byte) (int, error) { return len(p), nil }

func TestAsyncRecorderPipelinedFlush(t *testing.T) {
	// A large backlog ships fully through the bounded-concurrency
	// pipeline, whatever the concurrency setting.
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pc, svc := startStore(t)
			journal := filepath.Join(t.TempDir(), "j.gob")
			r, err := NewAsyncRecorder("svc:enactor", journal, 7, pc)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			r.SetFlushConcurrency(workers)
			session := seq.NewID()
			const n = 100
			for i := 0; i < n; i++ {
				if err := r.Record(mkRecord(session)); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := r.Stats(); got.Shipped != n {
				t.Fatalf("Shipped = %d, want %d", got.Shipped, n)
			}
			if r.Pending() != 0 {
				t.Fatalf("Pending = %d after flush", r.Pending())
			}
			st := storeStats(t, svc)
			if st.RecordsAccepted != n {
				t.Fatalf("store accepted %d, want %d", st.RecordsAccepted, n)
			}
		})
	}
}

func TestAsyncRecorderFlushConcurrencyBounded(t *testing.T) {
	// The pipeline must never have more batches in flight than its
	// concurrency bound: count concurrent POSTs at the HTTP layer.
	const workers = 3
	svc := preserv.NewService(store.New(store.NewMemoryBackend()))
	var inFlight, maxInFlight atomic.Int64
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		cur := inFlight.Add(1)
		for {
			prev := maxInFlight.Load()
			if cur <= prev || maxInFlight.CompareAndSwap(prev, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond) // widen the race window
		svc.Handler().ServeHTTP(w, req)
		inFlight.Add(-1)
	})
	ts := httptest.NewServer(wrapped)
	defer ts.Close()

	journal := filepath.Join(t.TempDir(), "j.gob")
	r, err := NewAsyncRecorder("svc:enactor", journal, 2, preserv.NewClient(ts.URL, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetFlushConcurrency(workers)
	session := seq.NewID()
	const n = 60
	for i := 0; i < n; i++ {
		if err := r.Record(mkRecord(session)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats(); got.Shipped != n {
		t.Fatalf("Shipped = %d, want %d", got.Shipped, n)
	}
	if peak := maxInFlight.Load(); peak > workers {
		t.Fatalf("observed %d concurrent POSTs, bound is %d", peak, workers)
	}
	if peak := maxInFlight.Load(); peak < 2 {
		t.Errorf("observed %d concurrent POSTs — pipeline is not overlapping shipments", peak)
	}
}

func TestAsyncRecorderRecordAfterFailedFlush(t *testing.T) {
	// Regression: the streaming flush decodes the journal through a
	// buffered reader that reads ahead of the decode position. A failed
	// flush must restore the file's append position, or the next
	// Record() overwrites unshipped journal bytes mid-file and the
	// retry decodes garbage. Needs a journal larger than the 64KB read
	// buffer to bite.
	svc := preserv.NewService(store.New(store.NewMemoryBackend()))
	var failing atomic.Bool
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if failing.Load() {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		svc.Handler().ServeHTTP(w, req)
	})
	ts := httptest.NewServer(wrapped)
	defer ts.Close()

	journal := filepath.Join(t.TempDir(), "j.gob")
	r, err := NewAsyncRecorder("svc:enactor", journal, 25, preserv.NewClient(ts.URL, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	session := seq.NewID()
	// Big enough (~1MB) that the decoder is nowhere near EOF when the
	// outage hits — the buffered reader's read-ahead must not have
	// already walked the file offset to the end by accident.
	const first = 3000
	for i := 0; i < first; i++ {
		if err := r.Record(mkRecord(session)); err != nil {
			t.Fatal(err)
		}
	}
	failing.Store(true)
	if err := r.Flush(); err == nil {
		t.Fatal("flush through outage should fail")
	}
	failing.Store(false)
	const extra = 10
	for i := 0; i < extra; i++ {
		if err := r.Record(mkRecord(session)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	if r.Pending() != 0 {
		t.Fatalf("Pending after retry = %d", r.Pending())
	}
	st := storeStats(t, svc)
	if st.RecordsAccepted != first+extra {
		t.Fatalf("store accepted %d, want %d", st.RecordsAccepted, first+extra)
	}
}

func TestAsyncRecorderAutoFlushOnBacklog(t *testing.T) {
	// With a threshold set, crossing the backlog triggers shipping in
	// the background — no explicit Flush needed.
	client, svc := startStore(t)
	r, err := NewAsyncRecorder("svc:enactor", filepath.Join(t.TempDir(), "journal"), 5, client)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetAutoFlushThreshold(10)

	session := seq.NewID()
	for i := 0; i < 25; i++ {
		if err := r.Record(mkRecord(session)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.Stats().Shipped >= 10 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if shipped := r.Stats().Shipped; shipped < 10 {
		t.Fatalf("background flush shipped %d records, want >= 10 without an explicit Flush", shipped)
	}
	if err := r.AutoFlushErr(); err != nil {
		t.Fatalf("background flush errored: %v", err)
	}

	// An explicit Flush ships the remainder; everything lands exactly
	// once (idempotent store, distinct records).
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := storeStats(t, svc).RecordsAccepted; got != 25 {
		t.Fatalf("store accepted %d records, want 25", got)
	}
	if r.Pending() != 0 {
		t.Errorf("pending = %d after flush, want 0", r.Pending())
	}
}

func TestAsyncRecorderAutoFlushDisabledByDefault(t *testing.T) {
	client, svc := startStore(t)
	r, err := NewAsyncRecorder("svc:enactor", filepath.Join(t.TempDir(), "journal"), 5, client)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	session := seq.NewID()
	for i := 0; i < 30; i++ {
		if err := r.Record(mkRecord(session)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if got := storeStats(t, svc).RecordsAccepted; got != 0 {
		t.Errorf("recorder shipped %d records without a threshold or Flush", got)
	}
	if r.Pending() != 30 {
		t.Errorf("pending = %d, want 30", r.Pending())
	}
}

func TestAsyncRecorderAutoFlushFailureKeepsJournal(t *testing.T) {
	// A dead endpoint fails the background flush; the journal must stay
	// whole, the error must surface through AutoFlushErr, and a later
	// flush against a live endpoint re-ships everything. The endpoint
	// answers only once all six Records are in: a flush failing earlier,
	// at pending 4, would back off to pending 7 and entitle the seventh
	// Record below to re-fire it.
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		<-release
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer dead.Close()
	defer unblock() // before dead.Close, which waits for the handlers
	r, err := NewAsyncRecorder("svc:enactor", filepath.Join(t.TempDir(), "journal"), 4, preserv.NewClient(dead.URL, nil))
	if err != nil {
		t.Fatal(err)
	}
	r.SetAutoFlushThreshold(3)
	session := seq.NewID()
	for i := 0; i < 6; i++ {
		if err := r.Record(mkRecord(session)); err != nil {
			t.Fatal(err)
		}
	}
	unblock()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		r.mu.Lock()
		failed := r.autoFlushErr != nil
		r.mu.Unlock()
		if failed {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := r.AutoFlushErr(); err == nil {
		t.Fatal("background flush against a dead endpoint reported no error")
	}
	if r.Pending() != 6 {
		t.Errorf("pending = %d after failed background flush, want 6 (journal kept whole)", r.Pending())
	}
	// The failure backs the trigger off: the next Record must not spawn
	// another full-journal attempt (the journal is whole; replaying it
	// immediately would just repeat the failure per Record call).
	if err := r.Record(mkRecord(session)); err != nil {
		t.Fatalf("Record after failed background flush: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := r.AutoFlushErr(); err != nil {
		t.Errorf("auto-flush re-fired immediately after a failure: %v", err)
	}
	// A clean Close (no endpoint swap possible here) surfaces the
	// shipping failure rather than losing data silently.
	if err := r.Close(); err == nil {
		t.Error("Close shipped to a dead endpoint without error")
	}
}

// TestAsyncRecorderCloseKeepsUnshipped: a Close that cannot ship
// returns the error and leaves the journal on disk, so a successor
// recorder on the same path adopts every record and ships it to a live
// endpoint.
func TestAsyncRecorderCloseKeepsUnshipped(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer dead.Close()
	path := filepath.Join(t.TempDir(), "journal")
	r, err := NewAsyncRecorder("svc:enactor", path, 2, preserv.NewClient(dead.URL, nil))
	if err != nil {
		t.Fatal(err)
	}
	session := seq.NewID()
	if err := r.Record(mkRecord(session), mkRecord(session)); err != nil {
		t.Fatal(err)
	}
	if err := r.Rotate(); err != nil { // one sealed file, one active journal
		t.Fatal(err)
	}
	if err := r.Record(mkRecord(session)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close shipped to a dead endpoint without error")
	}

	pc, _ := startStore(t)
	next, err := NewAsyncRecorder("svc:enactor", path, 2, pc)
	if err != nil {
		t.Fatal(err)
	}
	if n := next.Pending(); n != 3 {
		t.Fatalf("successor adopted %d records, want 3", n)
	}
	if err := next.Close(); err != nil {
		t.Fatal(err)
	}
	cnt, err := pc.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Interactions != 3 {
		t.Fatalf("store has %d interactions after the successor's Close, want 3", cnt.Interactions)
	}
	if left, _ := filepath.Glob(path + "*"); len(left) != 0 {
		t.Errorf("journal files left after a Close that shipped everything: %q", left)
	}
}
