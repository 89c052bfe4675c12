package preserv

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/store"
)

var seq = &ids.SeqSource{Prefix: 0xEE}

func startServer(t *testing.T) (*Client, *Service) {
	t.Helper()
	svc := NewService(store.New(store.NewMemoryBackend()))
	srv, err := Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return NewClient(srv.URL, nil), svc
}

// mustStats is the service's telemetry snapshot, failing the test if
// it cannot be assembled.
func mustStats(t *testing.T, svc *Service) *prep.StatsResponse {
	t.Helper()
	st, err := svc.StatsResponse()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mkRecord(session ids.ID, receiver core.ActorID) core.Record {
	in := core.Interaction{ID: seq.NewID(), Sender: "svc:enactor", Receiver: receiver, Operation: "run"}
	return *core.NewInteractionRecord(&core.InteractionPAssertion{
		LocalID:     "x",
		Asserter:    in.Sender,
		Interaction: in,
		View:        core.SenderView,
		Request: core.Message{Name: "invoke", Parts: []core.MessagePart{
			{Name: "sample", DataID: seq.NewID(), Content: core.Bytes("MKVL")},
		}},
		Response:  core.Message{Name: "result"},
		Groups:    []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: 1}},
		Timestamp: time.Now().UTC(),
	})
}

func mkScriptRecord(inter core.Interaction, session ids.ID, script string) core.Record {
	return *core.NewActorStateRecord(&core.ActorStatePAssertion{
		LocalID:     "scr",
		Asserter:    inter.Receiver,
		Interaction: inter,
		View:        core.ReceiverView,
		StateKind:   core.StateScript,
		Content:     core.Bytes(script),
		Groups:      []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: 1}},
		Timestamp:   time.Now().UTC(),
	})
}

func TestRecordAndQueryOverHTTP(t *testing.T) {
	client, _ := startServer(t)
	session := seq.NewID()
	r := mkRecord(session, "svc:gzip")
	resp, err := client.Record("svc:enactor", []core.Record{r})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || len(resp.Rejects) != 0 {
		t.Fatalf("record response: %+v", resp)
	}
	recs, total, err := client.Query(&prep.Query{SessionID: session})
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 || len(recs) != 1 {
		t.Fatalf("query: %d/%d", len(recs), total)
	}
	got := recs[0]
	if got.StorageKey() != r.StorageKey() {
		t.Errorf("round-tripped record key %s != %s", got.StorageKey(), r.StorageKey())
	}
	if string(got.Interaction.Request.Parts[0].Content) != "MKVL" {
		t.Errorf("content lost: %q", got.Interaction.Request.Parts[0].Content)
	}
}

func TestCountOverHTTP(t *testing.T) {
	client, _ := startServer(t)
	session := seq.NewID()
	r := mkRecord(session, "svc:gzip")
	scr := mkScriptRecord(r.Interaction.Interaction, session, "#!x")
	if _, err := client.Record("svc:enactor", []core.Record{r}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Record("svc:gzip", []core.Record{scr}); err != nil {
		t.Fatal(err)
	}
	cnt, err := client.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Interactions != 1 || cnt.ActorStates != 1 || cnt.Records != 2 {
		t.Fatalf("count = %+v", cnt)
	}
}

func TestRejectsSurfaceOverHTTP(t *testing.T) {
	client, _ := startServer(t)
	session := seq.NewID()
	bad := mkRecord(session, "svc:gzip")
	bad.Interaction.LocalID = "" // invalid
	resp, err := client.Record("svc:enactor", []core.Record{bad})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 0 || len(resp.Rejects) != 1 {
		t.Fatalf("response: %+v", resp)
	}
	if !strings.Contains(resp.Rejects[0].Reason, "local id") {
		t.Errorf("reject reason = %q", resp.Rejects[0].Reason)
	}
}

func TestServiceStats(t *testing.T) {
	client, svc := startServer(t)
	session := seq.NewID()
	client.Record("svc:enactor", []core.Record{mkRecord(session, "svc:gzip")})
	client.Query(&prep.Query{SessionID: session})
	client.Count()
	st := mustStats(t, svc)
	if st.RecordRequests != 1 || st.RecordsAccepted != 1 || st.QueryRequests != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQueryInvalidFaults(t *testing.T) {
	client, _ := startServer(t)
	_, _, err := client.Query(&prep.Query{Kind: "bogus"})
	if err == nil {
		t.Fatal("invalid query should fault")
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", nil)
	if _, err := c.Record("a", nil); err == nil {
		t.Error("record against dead server should fail")
	}
	if _, _, err := c.Query(&prep.Query{}); err == nil {
		t.Error("query against dead server should fail")
	}
	if _, err := c.Count(); err == nil {
		t.Error("count against dead server should fail")
	}
}

func TestConcurrentRecording(t *testing.T) {
	// The paper's scalability concern: parallel submissions into one
	// store instance must not lose records.
	client, _ := startServer(t)
	session := seq.NewID()
	const goroutines = 8
	const perG = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r := mkRecord(session, "svc:gzip")
				if _, err := client.Record("svc:enactor", []core.Record{r}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cnt, err := client.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Interactions != goroutines*perG {
		t.Fatalf("stored %d interactions, want %d", cnt.Interactions, goroutines*perG)
	}
}

func TestBatchRecording(t *testing.T) {
	client, _ := startServer(t)
	session := seq.NewID()
	var batch []core.Record
	for i := 0; i < 120; i++ {
		batch = append(batch, mkRecord(session, core.ActorID(fmt.Sprintf("svc:s%d", i%5))))
	}
	resp, err := client.Record("svc:enactor", batch)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 120 {
		t.Fatalf("accepted %d of 120", resp.Accepted)
	}
	_, total, err := client.Query(&prep.Query{Service: "svc:s0"})
	if err != nil {
		t.Fatal(err)
	}
	if total != 24 {
		t.Fatalf("service filter total = %d, want 24", total)
	}
}

func TestKVBackedServiceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	kb, err := store.NewKVBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(store.New(kb))
	srv, err := Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(srv.URL, nil)
	session := seq.NewID()
	if _, err := client.Record("svc:enactor", []core.Record{mkRecord(session, "svc:gzip")}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	svc.Store.Close()

	// Reopen: the record must still be there (persistent provenance
	// "beyond the life of a Grid application").
	kb2, err := store.NewKVBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := NewService(store.New(kb2))
	defer svc2.Store.Close()
	srv2, err := Serve(svc2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cnt, err := NewClient(srv2.URL, nil).Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Interactions != 1 {
		t.Fatalf("persistent store lost the record: %+v", cnt)
	}
}

func TestServeBadAddress(t *testing.T) {
	svc := NewService(store.New(store.NewMemoryBackend()))
	if _, err := Serve(svc, "256.0.0.1:99999"); err == nil {
		t.Error("bad address should fail")
	}
}

func TestStatsSurfaceQueryCacheCounters(t *testing.T) {
	client, svc := startServer(t)
	session := seq.NewID()
	if _, err := client.Record("svc:enactor", []core.Record{mkRecord(session, "svc:gzip")}); err != nil {
		t.Fatal(err)
	}
	q := &prep.Query{SessionID: session}
	if _, _, _, err := client.QueryPlanned(q); err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, svc)
	if st.Engine.CacheMisses == 0 || st.Engine.CacheHits != 0 {
		t.Fatalf("after cold query: hits=%d misses=%d, want a miss and no hit", st.Engine.CacheHits, st.Engine.CacheMisses)
	}
	if _, _, plan, err := client.QueryPlanned(q); err != nil || !plan.Cached {
		t.Fatalf("second query: cached=%v err=%v", plan != nil && plan.Cached, err)
	}
	st = mustStats(t, svc)
	if st.Engine.CacheHits != 1 {
		t.Fatalf("after warm query: hits=%d misses=%d, want exactly 1 hit", st.Engine.CacheHits, st.Engine.CacheMisses)
	}
}

// slowServer starts a Server whose handler blocks until release is
// closed — the in-flight request Close must drain (or cut off).
func slowServer(t *testing.T, started chan<- struct{}, release <-chan struct{}) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(started) })
		select {
		case <-release:
			fmt.Fprint(w, "drained")
		case <-time.After(5 * time.Second):
		}
	})
	srv := &Server{
		URL:     "http://" + ln.Addr().String(),
		ln:      ln,
		httpSrv: &http.Server{Handler: h},
		done:    make(chan struct{}),
	}
	go func() {
		defer close(srv.done)
		_ = srv.httpSrv.Serve(ln)
	}()
	return srv
}

func TestCloseDrainsInFlightRequests(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	srv := slowServer(t, started, release)

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get(srv.URL)
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- result{body: string(body), err: err}
	}()
	<-started

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// Close must wait for the in-flight response, not kill it: give the
	// shutdown a moment to start draining, then let the handler finish.
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v while a request was still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close after drain: %v", err)
	}
	r := <-got
	if r.err != nil || r.body != "drained" {
		t.Fatalf("in-flight request: body=%q err=%v, want drained response", r.body, r.err)
	}
}

func TestCloseDrainTimeoutCutsStragglers(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	srv := slowServer(t, started, release)
	srv.DrainTimeout = 50 * time.Millisecond

	errCh := make(chan error, 1)
	go func() {
		_, err := http.Get(srv.URL)
		errCh <- err
	}()
	<-started
	if err := srv.Close(); err == nil {
		t.Fatal("Close should report the drain deadline being exceeded")
	}
	// The hung request is forcibly cut, not left dangling.
	select {
	case <-errCh:
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight request still dangling after forced close")
	}
}
