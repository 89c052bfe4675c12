package preserv

// Tests for the deletion/compaction wire actions: urn:prep:delete (by
// storage key and by session), urn:prep:compact, garbage-ratio-
// scheduled compaction after deletes, and the lifecycle telemetry in
// Stats.

import (
	"testing"

	"preserv/internal/core"
	"preserv/internal/prep"
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
	// Disable auto compaction so the explicit action is what reclaims.
	svc.SetCompactRatio(-1)
	if _, err := client.DeleteSession(session); err != nil {
		t.Fatal(err)
	}
	if mustStats(t, svc).GarbageRatio <= 0 {
		t.Fatal("deletes left no measurable garbage")
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
}

func TestScheduledCompactionTriggersOnGarbageRatio(t *testing.T) {
	client, svc := startKVServer(t)
	session := seq.NewID()
	var recs []core.Record
	for i := 0; i < 6; i++ {
		recs = append(recs, mkRecord(session, "svc:gzip"))
	}
	if _, err := client.Record("svc:enactor", recs); err != nil {
		t.Fatal(err)
	}
	// Any garbage at all crosses this threshold, so the session delete
	// must come back already compacted.
	svc.SetCompactRatio(0.01)
	resp, err := client.DeleteSession(session)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Compacted {
		t.Fatal("delete did not trigger scheduled compaction")
	}
	if resp.GarbageRatio != 0 {
		t.Fatalf("garbage ratio after scheduled compaction = %v", resp.GarbageRatio)
	}
	if mustStats(t, svc).Compactions != 1 {
		t.Errorf("compactions = %d", mustStats(t, svc).Compactions)
	}
}

// The memory flavour runs the kvdb engine as the persistent ones do: a
// deleted session leaves garbage, and a delete that takes the ratio past
// the threshold compacts it away.
func TestMemoryFlavourCompactsDeletedSessions(t *testing.T) {
	client, svc := startServer(t)
	first, second := seq.NewID(), seq.NewID()
	var recs []core.Record
	for i := 0; i < 6; i++ {
		recs = append(recs, mkRecord(first, "svc:gzip"), mkRecord(second, "svc:ppmz"))
	}
	if _, err := client.Record("svc:enactor", recs); err != nil {
		t.Fatal(err)
	}
	svc.SetCompactRatio(-1)
	if _, err := client.DeleteSession(first); err != nil {
		t.Fatal(err)
	}
	stats := mustStats(t, svc)
	if stats.GarbageRatio <= 0 || stats.Compactions != 0 {
		t.Fatalf("after a delete with compaction off: garbage ratio %v, %d compactions; want above 0 and 0",
			stats.GarbageRatio, stats.Compactions)
	}
	svc.SetCompactRatio(0.01)
	resp, err := client.DeleteSession(second)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Compacted {
		t.Fatal("delete did not trigger scheduled compaction")
	}
	stats = mustStats(t, svc)
	if stats.Compactions != 1 || stats.GarbageRatio != 0 {
		t.Fatalf("after the scheduled compaction: %d compactions, garbage ratio %v; want 1 and 0",
			stats.Compactions, stats.GarbageRatio)
	}
}
