package preserv

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"preserv/internal/core"
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
