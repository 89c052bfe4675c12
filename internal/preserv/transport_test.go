package preserv

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/obs"
	"preserv/internal/prep"
	"preserv/internal/soap"
	"preserv/internal/store"
)

// A one-record Record over loopback, client and server together: both
// halves run their HTTP/1.1 exchange on the caller's and the
// connection's goroutine from pooled buffers, so what is left is the
// envelope codec, the store and the record's own construction. Through
// net/http's client the call made 124 allocations, and through
// net/http's server 52.
func TestRecordRoundTripAllocs(t *testing.T) {
	client, _ := startServer(t)
	session := seq.NewID()
	const runs = 200
	records := make([]core.Record, runs+1)
	for i := range records {
		records[i] = mkRecord(session, "svc:gzip")
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := client.Record("svc:enactor", records[i:i+1]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.0f allocations per one-record Record", allocs)
	if ceiling := float64(recordRoundTripAllocs); allocs > ceiling {
		t.Errorf("a one-record Record made %.0f allocations, want at most %.0f", allocs, ceiling)
	}
}

// /metrics and the pprof handlers share the PReP port: a connection
// whose first request is for them, or whose next one is after a Record,
// is served by net/http.
func TestServeHandsOffMetricsAndPprof(t *testing.T) {
	svc := NewService(store.New(store.NewMemoryBackend()))
	svc.EnablePprof()
	srv, err := Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	record, err := soap.Marshal(prep.ActionRecord, &prep.RecordRequest{
		Asserter: "svc:enactor",
		Records:  []core.Record{mkRecord(seq.NewID(), "svc:gzip")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/metrics", "/debug/pprof/cmdline"} {
		for _, first := range []bool{true, false} {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(c)
			if !first {
				fmt.Fprintf(c, "POST / HTTP/1.1\r\nHost: store\r\nContent-Length: %d\r\n\r\n%s", len(record), record)
				if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("Record on a raw connection: %v", err)
				} else {
					io.Copy(io.Discard, resp.Body)
				}
			}
			fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: store\r\n\r\n", path)
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("GET %s (first %v): %v", path, first, err)
			}
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK || (path == "/metrics" && !strings.Contains(string(body), "preserv_record_requests_total ")) {
				t.Errorf("GET %s (first %v): %s %.80q", path, first, resp.Status, body)
			}
			c.Close()
		}
	}
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// keptSpan is a span of the ring as it read when its request was
// answered.
type keptSpan struct {
	span  *obs.Span
	err   string
	attrs []obs.Attr
}

// Many Records and queries down one connection. The server decodes each
// request into the memory of the one before it (soap's pooled request
// messages), so a decoded string kept past its handler — in the store,
// a span attribute, an error, a result-cache key — would read a later
// request's bytes. Each request differs from the last where its strings
// are: every stored record, every cached answer and every attribute or
// error a kept span holds must read at the end as it read when its
// request was answered.
func TestConnectionReuseKeepsNoDecodedString(t *testing.T) {
	st := store.New(store.NewMemoryBackend())
	svc := NewService(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	srv := serve(cl, svc.Handler())
	defer srv.Close()
	tracers := []*obs.Tracer{svc.Obs().Tracer(), svc.rt.Obs().Tracer(), st.Obs().Tracer()}
	for _, tr := range tracers {
		tr.SetSlowThreshold(time.Nanosecond) // the ring keeps every span
	}
	client := NewClient(srv.URL, nil)

	kept := map[*obs.Span]keptSpan{}
	snapshot := func() {
		for _, tr := range tracers {
			for _, s := range tr.Slow() {
				if _, ok := kept[s]; !ok {
					k := keptSpan{span: s, err: strings.Clone(s.Err())}
					for _, a := range s.Attrs() {
						k.attrs = append(k.attrs, obs.Attr{Key: strings.Clone(a.Key), Value: strings.Clone(a.Value)})
					}
					kept[s] = k
				}
			}
		}
	}
	const n = 120
	type sent struct {
		session ids.ID
		record  core.Record
		query   prep.Query
		total   int
	}
	var all []sent
	for i := range n {
		asserter := core.ActorID(fmt.Sprintf("svc:enactor-%03d", i))
		session := seq.NewID()
		in := core.Interaction{ID: seq.NewID(), Sender: asserter, Receiver: core.ActorID(fmt.Sprintf("svc:tool-%03d", i)), Operation: fmt.Sprintf("op-%03d", i)}
		rec := *core.NewInteractionRecord(&core.InteractionPAssertion{
			LocalID:     fmt.Sprintf("local-%03d", i),
			Asserter:    asserter,
			Interaction: in,
			View:        core.SenderView,
			Request: core.Message{Name: fmt.Sprintf("invoke-%03d", i), Parts: []core.MessagePart{
				{Name: fmt.Sprintf("part-%03d", i), DataID: seq.NewID(), Content: core.Bytes(fmt.Sprintf("content-%03d", i))},
			}},
			Response:  core.Message{Name: fmt.Sprintf("result-%03d", i)},
			Groups:    []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: uint64(i)}},
			Timestamp: time.Date(2005, 6, 1, 12, 0, 0, i, time.UTC),
		})
		// The second record is the receiver's: its reject's reason quotes
		// both asserters.
		other := rec
		other.Interaction = new(core.InteractionPAssertion)
		*other.Interaction = *rec.Interaction
		other.Interaction.View, other.Interaction.Asserter = core.ReceiverView, in.Receiver
		resp, err := client.Record(asserter, []core.Record{rec, other})
		if err != nil {
			t.Fatal(err)
		}
		wantReason := fmt.Sprintf("record asserted by %q but submitted by %q", other.Interaction.Asserter, asserter)
		if resp.Accepted != 1 || len(resp.Rejects) != 1 || resp.Rejects[0].Reason != wantReason {
			t.Fatalf("request %d: accepted %d, rejects %+v; want 1 and %q", i, resp.Accepted, resp.Rejects, wantReason)
		}
		snapshot()
		q := prep.Query{SessionID: session, Service: in.Receiver, Asserter: asserter}
		recs, total, _, err := client.QueryPlanned(&q)
		if err != nil || total != 1 || len(recs) != 1 {
			t.Fatalf("query %d: %d records of %d: %v", i, len(recs), total, err)
		}
		snapshot()
		bad := prep.Query{Kind: fmt.Sprintf("bogus-%03d", i)}
		if _, _, _, err := client.QueryPlanned(&bad); err == nil || !strings.Contains(err.Error(), bad.Kind) {
			t.Fatalf("query %d with kind %q: %v", i, bad.Kind, err)
		}
		// Answered from the router's result cache: its key and its answer
		// are what the first asking left there, two requests ago.
		again, _, plan, err := client.QueryPlanned(&q)
		if err != nil || !plan.Cached || !reflect.DeepEqual(again, recs) {
			t.Fatalf("query %d again: cached %v, %+v: %v", i, plan != nil && plan.Cached, again, err)
		}
		snapshot()
		all = append(all, sent{session: session, record: rec, query: q, total: total})
	}
	if got := cl.accepted.Load(); got != 1 {
		t.Fatalf("the requests took %d connections, want 1", got)
	}
	for i, s := range all {
		recs, total, _, err := client.QueryPlanned(&s.query)
		if err != nil || total != s.total {
			t.Fatalf("query %d at the end: total %d: %v", i, total, err)
		}
		if !reflect.DeepEqual(recs, []core.Record{s.record}) {
			t.Fatalf("record %d reads\n%+v\nwant\n%+v", i, recs, s.record)
		}
	}
	if len(kept) < 4*n {
		t.Fatalf("the rings kept %d spans, want at least %d", len(kept), 4*n)
	}
	for _, k := range kept {
		if k.span.Err() != k.err || !slices.Equal(k.span.Attrs(), k.attrs) {
			t.Fatalf("kept span %s changed after its request: err %q attrs %v, was err %q attrs %v",
				k.span.Op(), k.span.Err(), k.span.Attrs(), k.err, k.attrs)
		}
	}
}
