package preserv

// Tests for the deletion/compaction wire actions: urn:prep:delete (by
// storage key and by session), urn:prep:compact, the compaction each
// store schedules after its own deletes, and the lifecycle telemetry in
// Stats.

import (
	"testing"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/shard"
	"preserv/internal/store"
)

// startKVServer serves a kvdb-backed store, the flavour whose garbage
// ratio moves when records are deleted.
func startKVServer(t *testing.T) (*Client, *Service) {
	t.Helper()
	b, err := store.NewKVBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(store.New(b))
	srv, err := Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); b.Close() })
	return NewClient(srv.URL, nil), svc
}

func TestDeleteRecordOverHTTP(t *testing.T) {
	client, svc := startServer(t)
	session := seq.NewID()
	r1 := mkRecord(session, "svc:gzip")
	r2 := mkRecord(session, "svc:ppmz")
	if _, err := client.Record("svc:enactor", []core.Record{r1, r2}); err != nil {
		t.Fatal(err)
	}
	resp, err := client.DeleteRecord(r1.StorageKey())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deleted != 1 {
		t.Fatalf("Deleted = %d", resp.Deleted)
	}
	// Retraction is idempotent: a second delete of the same key is a
	// no-op, not an error.
	resp, err = client.DeleteRecord(r1.StorageKey())
	if err != nil || resp.Deleted != 0 {
		t.Fatalf("re-delete: %+v, %v", resp, err)
	}
	// Both read paths agree.
	recs, total, err := client.Query(&prep.Query{SessionID: session})
	if err != nil || total != 1 || len(recs) != 1 || recs[0].StorageKey() != r2.StorageKey() {
		t.Fatalf("scan after delete: %d/%d, %v", len(recs), total, err)
	}
	precs, ptotal, _, err := client.QueryPlanned(&prep.Query{SessionID: session})
	if err != nil || ptotal != 1 || len(precs) != 1 || precs[0].StorageKey() != r2.StorageKey() {
		t.Fatalf("planned query after delete: %d/%d, %v", len(precs), ptotal, err)
	}
	stats := mustStats(t, svc)
	if stats.DeleteRequests != 2 || stats.RecordsDeleted != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestDeleteSessionOverHTTP(t *testing.T) {
	client, _ := startServer(t)
	keep, doomed := seq.NewID(), seq.NewID()
	var recs []core.Record
	for i := 0; i < 3; i++ {
		recs = append(recs, mkRecord(keep, "svc:gzip"), mkRecord(doomed, "svc:ppmz"))
	}
	if _, err := client.Record("svc:enactor", recs); err != nil {
		t.Fatal(err)
	}
	resp, err := client.DeleteSession(doomed)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deleted != 3 {
		t.Fatalf("Deleted = %d", resp.Deleted)
	}
	sessions, err := client.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		if s == doomed {
			t.Error("deleted session still listed")
		}
	}
	if _, total, err := client.Query(&prep.Query{SessionID: keep}); err != nil || total != 3 {
		t.Fatalf("kept session: total=%d err=%v", total, err)
	}
}

func TestDeleteRequestValidation(t *testing.T) {
	client, _ := startServer(t)
	if _, err := client.delete(&prep.DeleteRequest{}); err == nil {
		t.Error("empty delete request accepted")
	}
	if _, err := client.delete(&prep.DeleteRequest{StorageKey: "i/x/1", SessionID: seq.NewID()}); err == nil {
		t.Error("over-specified delete request accepted")
	}
}

// storeCompactions returns the store.compact entries of a stats node's
// history and the node's store_compact_seconds count.
func storeCompactions(node prep.ShardStats) ([]prep.SlowSpan, int64) {
	var n int64
	for _, h := range node.Histograms {
		if h.Name == "store_compact_seconds" {
			n = h.Count
		}
	}
	return entries(node.Slow, "store.compact"), n
}

func TestCompactActionReclaimsGarbage(t *testing.T) {
	client, svc := startKVServer(t)
	session := seq.NewID()
	var recs []core.Record
	for i := 0; i < 6; i++ {
		recs = append(recs, mkRecord(session, "svc:gzip"))
	}
	if _, err := client.Record("svc:enactor", recs); err != nil {
		t.Fatal(err)
	}
	// One record of six leaves the store below store.CompactRatio: it
	// keeps its garbage until the explicit action reclaims it.
	if _, err := client.DeleteRecord(recs[0].StorageKey()); err != nil {
		t.Fatal(err)
	}
	if g := mustStats(t, svc).GarbageRatio; g <= 0 || g >= store.CompactRatio {
		t.Fatalf("garbage ratio %v after one delete, want above 0 and below %v", g, store.CompactRatio)
	}
	resp, err := client.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if resp.GarbageBefore <= 0 || resp.GarbageAfter != 0 {
		t.Fatalf("compact response: %+v", resp)
	}
	stats := mustStats(t, svc)
	if stats.Compactions != 1 || stats.GarbageRatio != 0 || stats.Tombstones != 0 {
		t.Errorf("stats after compact: %+v", stats)
	}
	if c, _ := storeCompactions(stats.Shards[0]); len(c) != 1 || attr(c[0], "trigger") != "request" {
		t.Errorf("the store's history holds store.compact entries %+v, want one with trigger=request", c)
	}
}

// A delete that leaves the store at store.CompactRatio garbage comes
// back compacted: the store compacted itself before the reply, and the
// compaction is in the store's own history — its store_compact_seconds
// count and a store.compact event with trigger=delete — while the
// service's Compactions counts only requested ones.
func TestScheduledCompactionTriggersOnGarbageRatio(t *testing.T) {
	withTelemetry(t)
	client, svc := startKVServer(t)
	session := seq.NewID()
	var recs []core.Record
	for i := 0; i < 6; i++ {
		recs = append(recs, mkRecord(session, "svc:gzip"))
	}
	if _, err := client.Record("svc:enactor", recs); err != nil {
		t.Fatal(err)
	}
	resp, err := client.DeleteSession(session)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deleted != 6 || resp.GarbageRatio != 0 {
		t.Fatalf("delete reply %+v, want 6 deleted and the garbage reclaimed", resp)
	}
	st := mustStats(t, svc)
	if st.Compactions != 0 || st.GarbageRatio != 0 || st.Tombstones != 0 {
		t.Errorf("stats after the delete: %d requested compactions, garbage %v, %d tombstones; want 0, 0, 0",
			st.Compactions, st.GarbageRatio, st.Tombstones)
	}
	c, n := storeCompactions(st.Shards[0])
	if n != 1 || len(c) != 1 || attr(c[0], "trigger") != "delete" || c[0].Err != "" {
		t.Errorf("the store's history: store_compact_seconds count %d, store.compact entries %+v; want one with trigger=delete", n, c)
	}
}

// The memory flavour runs the kvdb engine as the persistent ones do: a
// deleted session leaves garbage, and the delete that takes the ratio to
// store.CompactRatio compacts it away.
func TestMemoryFlavourCompactsDeletedSessions(t *testing.T) {
	client, svc := startServer(t)
	first, second := seq.NewID(), seq.NewID()
	var recs []core.Record
	for i := 0; i < 6; i++ {
		if i < 2 {
			recs = append(recs, mkRecord(first, "svc:gzip"))
		}
		recs = append(recs, mkRecord(second, "svc:ppmz"))
	}
	if _, err := client.Record("svc:enactor", recs); err != nil {
		t.Fatal(err)
	}
	if _, err := client.DeleteSession(first); err != nil {
		t.Fatal(err)
	}
	stats := mustStats(t, svc)
	if c, _ := storeCompactions(stats.Shards[0]); stats.GarbageRatio <= 0 || stats.GarbageRatio >= store.CompactRatio || len(c) != 0 {
		t.Fatalf("after deleting 2 records of 8: garbage ratio %v, store.compact entries %+v; want below %v and none",
			stats.GarbageRatio, c, store.CompactRatio)
	}
	resp, err := client.DeleteSession(second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.GarbageRatio != 0 {
		t.Fatalf("garbage ratio %v after deleting the rest, want it reclaimed", resp.GarbageRatio)
	}
	stats = mustStats(t, svc)
	if c, _ := storeCompactions(stats.Shards[0]); len(c) != 1 || attr(c[0], "trigger") != "delete" || stats.Compactions != 0 {
		t.Fatalf("after deleting the rest: store.compact entries %+v, %d requested compactions; want one with trigger=delete and 0",
			c, stats.Compactions)
	}
}

// TestFrontDeleteCompactsOnlyTheHomeChild: a session delete through a
// front over two served children compacts the child that held the
// session, and that child only — each store reclaims its own garbage.
// The compaction is in that child's store leaf of the front's stats tree;
// the other child and the front itself run none, and the reply's
// garbage ratio is what the children hold after it: none.
func TestFrontDeleteCompactsOnlyTheHomeChild(t *testing.T) {
	withTelemetry(t)
	ca, _ := startKVServer(t)
	cb, _ := startKVServer(t)
	rt, err := NewRemoteRouter(ca.URL() + "," + cb.URL())
	if err != nil {
		t.Fatal(err)
	}
	front := NewShardedService(rt)
	srv, err := Serve(front, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client := NewClient(srv.URL, nil)

	// One session homed on each child; the first one's is deleted.
	var sessions [2]ids.ID
	for n := 0; n < 2; {
		sid := seq.NewID()
		if shard.AffinityIndex(sid.String(), 2) != n {
			continue
		}
		sessions[n], n = sid, n+1
		recs := []core.Record{mkRecord(sid, "svc:gzip"), mkRecord(sid, "svc:ppmz"), mkRecord(sid, "svc:bzip2")}
		if _, err := client.Record("svc:enactor", recs); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := client.DeleteSession(sessions[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deleted != 3 || resp.GarbageRatio != 0 {
		t.Fatalf("delete reply %+v, want 3 deleted and garbage ratio 0", resp)
	}

	st := mustStats(t, front)
	if st.Compactions != 0 || len(entries(st.Slow, "store.compact")) != 0 {
		t.Errorf("the front ran a compaction of its own: %d compactions, root history %+v", st.Compactions, st.Slow)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("front reports %d children, want 2", len(st.Shards))
	}
	for i, child := range st.Shards {
		if len(child.Shards) != 1 {
			t.Fatalf("child %d's node %+v, want its one store's leaf", i, child)
		}
		c, n := storeCompactions(child.Shards[0])
		switch {
		case i == 0 && (n != 1 || len(c) != 1 || attr(c[0], "trigger") != "delete" || c[0].Err != ""):
			t.Errorf("home child's store: store_compact_seconds count %d, store.compact entries %+v; want one with trigger=delete", n, c)
		case i == 1 && (n != 0 || len(c) != 0):
			t.Errorf("the other child's store compacted: store_compact_seconds count %d, entries %+v", n, c)
		}
	}
}
