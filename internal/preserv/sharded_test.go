package preserv

// Tests for the sharded service mode: a NewShardedService front-end
// over embedded child stores, and over remote PReServ endpoints via
// RemoteShard — the full wire surface (record, scanned/planned/paged
// queries, sessions, delete, compact, stats) answered across shards.

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/shard"
	"preserv/internal/soap"
	"preserv/internal/store"
)

// startShardedServer serves a sharded service over n embedded memory
// child stores and returns a client, the service and the router.
func startShardedServer(t *testing.T, n int) (*Client, *Service, *shard.Router) {
	t.Helper()
	children := make([]shard.Shard, n)
	for i := range children {
		children[i] = shard.NewLocal(store.New(store.NewMemoryBackend()))
	}
	rt, err := shard.NewRouter(children...)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewShardedService(rt)
	srv, err := Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return NewClient(srv.URL, nil), svc, rt
}

// recordShardSessions records perSession records into each of n fresh
// sessions through the client and returns the session ids.
func recordShardSessions(t *testing.T, client *Client, sessions, perSession int) []ids.ID {
	t.Helper()
	out := make([]ids.ID, 0, sessions)
	for i := 0; i < sessions; i++ {
		sid := seq.NewID()
		out = append(out, sid)
		recs := make([]core.Record, 0, perSession)
		for j := 0; j < perSession; j++ {
			recs = append(recs, mkRecord(sid, core.ActorID(fmt.Sprintf("svc:stage-%d", j%2))))
		}
		resp, err := client.Record("svc:enactor", recs)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Accepted != perSession || len(resp.Rejects) != 0 {
			t.Fatalf("session %d: accepted %d/%d, rejects %v", i, resp.Accepted, perSession, resp.Rejects)
		}
	}
	return out
}

func TestShardedServiceEndToEnd(t *testing.T) {
	client, svc, rt := startShardedServer(t, 3)
	sids := recordShardSessions(t, client, 8, 5)

	// Count sums the shards.
	cnt, err := client.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Records != 40 {
		t.Fatalf("count %d, want 40", cnt.Records)
	}

	// Sessions union across shards.
	sessions, err := client.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != len(sids) {
		t.Fatalf("sessions %d, want %d", len(sessions), len(sids))
	}

	// Scan, planned and paged answers agree over the wire.
	want, wantTotal, err := client.Query(&prep.Query{SessionID: sids[0]})
	if err != nil {
		t.Fatal(err)
	}
	if wantTotal != 5 {
		t.Fatalf("session query total %d, want 5", wantTotal)
	}
	got, gotTotal, plan, err := client.QueryPlanned(&prep.Query{SessionID: sids[0]})
	if err != nil {
		t.Fatal(err)
	}
	if gotTotal != wantTotal || len(got) != len(want) {
		t.Fatalf("planned %d/%d vs scan %d/%d", len(got), gotTotal, len(want), wantTotal)
	}
	if plan == nil || plan.Strategy == "" {
		t.Fatal("merged plan missing over the wire")
	}
	var streamed []core.Record
	if _, err := client.QueryStream(&prep.Query{}, 7, func(r *core.Record) error {
		streamed = append(streamed, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 40 {
		t.Fatalf("streamed %d records, want 40", len(streamed))
	}
	for i := 1; i < len(streamed); i++ {
		if streamed[i-1].StorageKey() >= streamed[i].StorageKey() {
			t.Fatal("stream not in storage-key order")
		}
	}

	// The records really are sharded: more than one child holds data.
	populated := 0
	for i := 0; i < rt.NumShards(); i++ {
		c, err := rt.Shard(i).Count()
		if err != nil {
			t.Fatal(err)
		}
		if c.Records > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("only %d shard(s) populated — not sharded", populated)
	}

	// Deletion fans out; stats report the sharded topology.
	dresp, err := client.DeleteSession(sids[1])
	if err != nil {
		t.Fatal(err)
	}
	if dresp.Deleted != 5 {
		t.Fatalf("deleted %d, want 5", dresp.Deleted)
	}
	if _, err := client.Compact(); err != nil {
		t.Fatal(err)
	}
	stats := mustStats(t, svc)
	if len(stats.Shards) != 3 {
		t.Fatalf("stats report %d shards, want 3", len(stats.Shards))
	}
	if stats.RecordsAccepted != 40 || stats.RecordsDeleted != 5 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.Engine.IndexPlans == 0 {
		t.Fatal("aggregated engine stats report no index plans")
	}
}

func TestShardedServiceOverRemoteEndpoints(t *testing.T) {
	// Two plain single-store servers...
	var children []shard.Shard
	var backends []*Service
	for i := 0; i < 2; i++ {
		child, svc := startServer(t)
		children = append(children, NewRemoteShard(child))
		backends = append(backends, svc)
	}
	// ...fronted by a sharded service — the distributed PReServ.
	rt, err := shard.NewRouter(children...)
	if err != nil {
		t.Fatal(err)
	}
	front, err := Serve(NewShardedService(rt), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	client := NewClient(front.URL, nil)

	sids := recordShardSessions(t, client, 6, 4)

	// Every session lives wholly on its affinity endpoint.
	for _, sid := range sids {
		home := shard.AffinityIndex(sid.String(), 2)
		for b, svc := range backends {
			recs, _, err := svc.Provenance().Query(&prep.Query{SessionID: sid})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			if b == home {
				want = 4
			}
			if len(recs) != want {
				t.Fatalf("backend %d holds %d records of session %s, want %d", b, len(recs), sid, want)
			}
		}
	}

	// The front answers across both endpoints.
	cnt, err := client.Count()
	if err != nil || cnt.Records != 24 {
		t.Fatalf("front count %d err=%v, want 24", cnt.Records, err)
	}
	recs, total, err := client.Query(&prep.Query{Asserter: "svc:enactor"})
	if err != nil || total != 24 || len(recs) != 24 {
		t.Fatalf("front query %d/%d err=%v", len(recs), total, err)
	}

	// Deleting one record by key reaches the right endpoint via fan-out.
	dresp, err := client.DeleteRecord(recs[0].StorageKey())
	if err != nil || dresp.Deleted != 1 {
		t.Fatalf("front delete: %+v err=%v", dresp, err)
	}
	if cnt, _ := client.Count(); cnt.Records != 23 {
		t.Fatalf("count after delete %d, want 23", cnt.Records)
	}
}

// TestShardedPageBadCursorFaultsBadRequest pins the wire mapping for an
// undecodable composite cursor (stale across a topology resize, or
// corrupted): it is client input, faulted as bad-request by the server
// and re-typed by the client into shard.ErrBadCursor — so callers
// distinguish it from an internal server error with errors.Is, never
// by string matching.
func TestShardedPageBadCursorFaultsBadRequest(t *testing.T) {
	client, _, _ := startShardedServer(t, 2)
	_, err := client.QueryPage(&prep.Query{}, "sc1!3!a!b!c", 10)
	if err == nil {
		t.Fatal("mismatched composite cursor should fault")
	}
	if !errors.Is(err, shard.ErrBadCursor) {
		t.Fatalf("err = %v, want errors.Is(err, shard.ErrBadCursor)", err)
	}
}

// TestDeleteRecordsBatchedOverWire pins the batched retraction form: a
// whole key batch deletes in one request, spanning shards, idempotently.
func TestDeleteRecordsBatchedOverWire(t *testing.T) {
	client, _, _ := startShardedServer(t, 2)
	recordShardSessions(t, client, 3, 4)
	recs, total, err := client.Query(&prep.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if total != 12 {
		t.Fatalf("recorded %d records, want 12", total)
	}
	keys := make([]string, 0, 5)
	for i := range recs[:5] {
		keys = append(keys, recs[i].StorageKey())
	}
	resp, err := client.DeleteRecords(keys)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deleted != 5 {
		t.Fatalf("batched delete removed %d, want 5", resp.Deleted)
	}
	// Retraction is idempotent: the same batch again deletes nothing.
	resp, err = client.DeleteRecords(keys)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deleted != 0 {
		t.Fatalf("re-delete removed %d, want 0", resp.Deleted)
	}
	if _, total, err = client.Query(&prep.Query{}); err != nil || total != 7 {
		t.Fatalf("after batched delete: total %d err %v, want 7", total, err)
	}
	// An empty key inside the batch is client input and must fault as
	// bad-request. The Go client's marshaller drops empty <key>
	// elements, so post the malformed envelope raw — the form only a
	// handcrafted request can take.
	env := soap.Envelope{
		Header: soap.Header{Action: prep.ActionDelete, MessageID: ids.New()},
		Body:   soap.Body{Inner: []byte(`<DeleteRequest><storageKeys><key></key><key>i/x</key></storageKeys></DeleteRequest>`)},
	}
	data, err := xml.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Post(client.URL(), soap.ContentType, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	reply, err := io.ReadAll(hresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_, body, err := soap.Unmarshal(reply)
	if err != nil {
		t.Fatal(err)
	}
	fault, ok := soap.AsFault(body)
	if !ok || fault.Code != soap.FaultBadRequest {
		t.Fatalf("empty key in batch: reply %s, want bad-request fault", body)
	}
}

// TestFrontSeesWriteAfterChildRestart: a front's result cache over a
// remote child is stamped with the child's generation. A child that
// restarts draws a new epoch, so a write after the restart yields a
// generation the front never stamped — even though the child's change
// counter climbed back to the stamped count — and the front answers
// afresh instead of serving its cached answer as current.
func TestFrontSeesWriteAfterChildRestart(t *testing.T) {
	dir := t.TempDir()
	openChild := func(addr string) (*store.Store, *Server) {
		t.Helper()
		b, err := store.NewKVBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := store.New(b)
		srv, err := Serve(NewService(s), addr)
		if err != nil {
			s.Close()
			t.Fatal(err)
		}
		return s, srv
	}
	s, child := openChild("127.0.0.1:0")
	rt, err := NewRemoteRouter(child.URL)
	if err != nil {
		t.Fatal(err)
	}
	front, err := Serve(NewShardedService(rt), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	fc := NewClient(front.URL, nil)

	sid := seq.NewID()
	if _, err := fc.Record("svc:enactor", []core.Record{mkRecord(sid, "svc:a")}); err != nil {
		t.Fatal(err)
	}
	q := &prep.Query{SessionID: sid}
	for i := 0; i < 2; i++ {
		recs, _, plan, err := fc.QueryPlanned(q)
		if err != nil || len(recs) != 1 {
			t.Fatalf("query %d before the restart: %d records, err=%v", i, len(recs), err)
		}
		if i == 1 && !plan.Cached {
			t.Fatal("the repeat query missed the front's cache; test precondition broken")
		}
	}

	// Restart the child on the same address, then write once straight to
	// its store: its change counter is back at the count the front's
	// entry was stamped with.
	if err := child.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, child = openChild(strings.TrimPrefix(child.URL, "http://"))
	t.Cleanup(func() {
		child.Close()
		s.Close()
	})
	if _, rejects, err := s.Record("svc:enactor", []core.Record{mkRecord(sid, "svc:b")}); err != nil || len(rejects) > 0 {
		t.Fatalf("direct write: err=%v rejects=%v", err, rejects)
	}
	time.Sleep(remoteStatsTTL + 100*time.Millisecond)

	recs, _, plan, err := fc.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || plan.Cached {
		t.Fatalf("after the restart and a write: %d records, cached=%v; want 2, not cached", len(recs), plan.Cached)
	}
}
