package preserv

// Tests for the telemetry surface: the urn:prep:stats wire action, the
// /metrics Prometheus endpoint, the sharded garbage/tombstone
// aggregation over remote children (which silently read as zero before
// the stats action existed), and the slow-operation log capturing a
// forced scan-plan query.

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/obs"
	"preserv/internal/prep"
	"preserv/internal/shard"
	"preserv/internal/store"
)

// withTelemetry turns the histogram/span instrumentation on for one
// test and restores the previous state after.
func withTelemetry(t *testing.T) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })
}

func TestStatsWireAction(t *testing.T) {
	withTelemetry(t)
	client, svc := startKVServer(t)
	svc.SetCompactRatio(-1) // keep the garbage so the stats can see it

	session := seq.NewID()
	var recs []core.Record
	for i := 0; i < 6; i++ {
		recs = append(recs, mkRecord(session, "svc:gzip"))
	}
	if _, err := client.Record("svc:enactor", recs); err != nil {
		t.Fatal(err)
	}
	if _, err := client.DeleteRecord(recs[0].StorageKey()); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := client.QueryPlanned(&prep.Query{SessionID: session}); err != nil {
		t.Fatal(err)
	}

	st, err := client.StoreStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RecordRequests != 1 || st.RecordsAccepted != 6 {
		t.Errorf("record counters = %d/%d, want 1/6", st.RecordRequests, st.RecordsAccepted)
	}
	if st.DeleteRequests != 1 || st.RecordsDeleted != 1 {
		t.Errorf("delete counters = %d/%d, want 1/1", st.DeleteRequests, st.RecordsDeleted)
	}
	if st.QueryRequests != 1 {
		t.Errorf("QueryRequests = %d, want 1", st.QueryRequests)
	}
	if st.Records != 5 {
		t.Errorf("Records = %d, want 5", st.Records)
	}
	if st.Tombstones == 0 {
		t.Error("Tombstones = 0 after a delete")
	}
	if st.GarbageRatio <= 0 {
		t.Errorf("GarbageRatio = %v after a delete", st.GarbageRatio)
	}
	if st.Engine.IndexPlans == 0 {
		t.Errorf("engine counters did not reach the wire: %+v", st.Engine)
	}
	// The service histograms must have observed the requests above.
	var reqSeconds int64
	for _, h := range st.Histograms {
		if strings.HasPrefix(h.Name, "preserv_request_seconds") {
			reqSeconds += h.Count
		}
	}
	if reqSeconds < 3 {
		t.Errorf("preserv_request_seconds observed %d requests, want >= 3", reqSeconds)
	}
	// Single-store service: one embedded shard in the breakdown.
	if len(st.Shards) != 1 || st.Shards[0].Records != 5 {
		t.Errorf("shard breakdown = %+v", st.Shards)
	}
}

// TestShardedStatsOverRemoteShards is the regression test for the
// remote-shard telemetry gap: a router fronting remote PReServ
// endpoints used to report GarbageRatio 0 and Tombstones 0 regardless
// of the children's state, because the base wire protocol never carried
// them. With urn:prep:stats the router polls them for real.
func TestShardedStatsOverRemoteShards(t *testing.T) {
	withTelemetry(t)

	// Two real kvdb-backed servers, reached over HTTP.
	var urls []string
	for i := 0; i < 2; i++ {
		b, err := store.NewKVBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		childSvc := NewService(store.New(b))
		childSvc.SetCompactRatio(-1)
		srv, err := Serve(childSvc, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close(); b.Close() })
		urls = append(urls, srv.URL)
	}

	rt, err := NewRemoteRouter(strings.Join(urls, ","))
	if err != nil {
		t.Fatal(err)
	}
	svc := NewShardedService(rt)
	svc.SetCompactRatio(-1)
	srv, err := Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	front := NewClient(srv.URL, nil)

	// Enough distinct sessions that both shards receive records, then a
	// deletion on each session to leave tombstones behind on both sides.
	perShard := make([]int, 2)
	var doomed []string
	for s := 0; s < 8; s++ {
		session := seq.NewID()
		recs := []core.Record{mkRecord(session, "svc:gzip"), mkRecord(session, "svc:ppmz")}
		if _, err := front.Record("svc:enactor", recs); err != nil {
			t.Fatal(err)
		}
		perShard[shard.AffinityIndex(session.String(), 2)] += 2
		doomed = append(doomed, recs[0].StorageKey())
	}
	if perShard[0] == 0 || perShard[1] == 0 {
		t.Fatalf("fixture did not spread across both shards: %v", perShard)
	}
	// Query before deleting: the deletes invalidate the remote shards'
	// TTL-cached stats, so the aggregates below poll a snapshot that
	// already includes these queries' engine counters.
	if _, _, _, err := front.QueryPlanned(&prep.Query{}); err != nil {
		t.Fatal(err)
	}
	for _, k := range doomed {
		if _, err := front.DeleteRecord(k); err != nil {
			t.Fatal(err)
		}
	}

	// The router's base aggregates now see the remote children's state
	// (a record's tombstone count is backend-internal — one record may
	// leave several index tombstones — so assert presence, and exact
	// consistency with the per-shard breakdown below).
	if got := rt.Tombstones(); got == 0 {
		t.Error("router Tombstones over remote shards = 0 after deletes on both shards")
	}
	if got := rt.GarbageRatio(); got <= 0 {
		t.Errorf("router GarbageRatio over remote shards = %v, want > 0", got)
	}
	es := rt.EngineStats()
	if es.IndexPlans+es.ScanPlans == 0 {
		t.Errorf("router engine aggregate over remote shards is empty: %+v", es)
	}

	// And the stats action reports the per-shard breakdown.
	st, err := front.StoreStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumShards != 2 || len(st.Shards) != 2 {
		t.Fatalf("NumShards=%d Shards=%d, want 2/2", st.NumShards, len(st.Shards))
	}
	if st.Tombstones == 0 {
		t.Error("aggregate Tombstones = 0 after deletes on both shards")
	}
	var sumRecords int
	var sumTombstones, sumStalls int64
	for i, sh := range st.Shards {
		if sh.Index != i || sh.URL != urls[i] {
			t.Errorf("shard %d identity = {Index:%d URL:%q}, want {%d %q}", i, sh.Index, sh.URL, i, urls[i])
		}
		if sh.Records == 0 || sh.Tombstones == 0 || sh.GarbageRatio <= 0 {
			t.Errorf("shard %d telemetry still zero: %+v", i, sh)
		}
		var latency int64
		for _, h := range sh.Histograms {
			if strings.HasPrefix(h.Name, "preserv_request_seconds") {
				latency += h.Count
			}
		}
		if latency == 0 {
			t.Errorf("shard %d reports no request-latency observations", i)
		}
		// Every Record the child served stalled on its commit section,
		// so a zero count means the child's write path was dropped.
		if sh.WritePath.StallCount == 0 {
			t.Errorf("shard %d write path = %+v, want the child's commit stalls", i, sh.WritePath)
		}
		sumRecords += sh.Records
		sumTombstones += sh.Tombstones
		sumStalls += sh.WritePath.StallCount
	}
	if sumRecords != st.Records {
		t.Errorf("per-shard records sum to %d, aggregate says %d", sumRecords, st.Records)
	}
	if sumTombstones != st.Tombstones {
		t.Errorf("per-shard tombstones sum to %d, aggregate says %d", sumTombstones, st.Tombstones)
	}
	if st.WritePath.StallCount == 0 || sumStalls != st.WritePath.StallCount {
		t.Errorf("per-shard stalls sum to %d, aggregate says %d; want equal and > 0", sumStalls, st.WritePath.StallCount)
	}
}

// TestRemoteShardStatsCarryEveryField guards RemoteShard.ShardStats
// against dropping a field of the child's reply: every prep.ShardStats
// field but the shard's identity (Index, URL) has a same-named
// prep.StatsResponse field, and a RemoteShard over a live child reports
// each one equal to the reply it polled. The fixture leaves none of them
// zero, so a field added to both types later and not copied fails here.
func TestRemoteShardStatsCarryEveryField(t *testing.T) {
	withTelemetry(t)
	client, svc := startKVServer(t)
	svc.SetCompactRatio(-1)
	svc.Obs().Tracer().SetSlowThreshold(time.Nanosecond)

	session := seq.NewID()
	recs := []core.Record{mkRecord(session, "svc:gzip"), mkRecord(session, "svc:ppmz"), mkRecord(session, "svc:bzip2")}
	if _, err := client.Record("svc:enactor", recs); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := client.QueryPlanned(&prep.Query{SessionID: session}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.DeleteRecord(recs[0].StorageKey()); err != nil {
		t.Fatal(err)
	}

	remote := NewRemoteShard(NewClient(client.URL(), nil))
	got, err := remote.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if got.URL != client.URL() {
		t.Errorf("URL = %q, want %q", got.URL, client.URL())
	}
	remote.statsMu.Lock()
	reply := remote.stats // the reply ShardStats was built from
	remote.statsMu.Unlock()

	gv, rv := reflect.ValueOf(got), reflect.ValueOf(*reply)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		if name == "Index" || name == "URL" {
			continue
		}
		want := rv.FieldByName(name)
		if !want.IsValid() {
			t.Errorf("prep.ShardStats.%s has no prep.StatsResponse field of that name", name)
			continue
		}
		if want.IsZero() {
			t.Errorf("the child's %s is zero: the fixture must exercise every field", name)
		}
		if !reflect.DeepEqual(gv.Field(i).Interface(), want.Interface()) {
			t.Errorf("RemoteShard.ShardStats().%s = %+v, the child replied %+v", name, gv.Field(i).Interface(), want.Interface())
		}
	}
}

// promLine matches one Prometheus text-format sample.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[-+]?[0-9.eE+-]+)$`)

func TestMetricsEndpoint(t *testing.T) {
	withTelemetry(t)
	client, svc := startKVServer(t)
	_ = svc
	session := seq.NewID()
	if _, err := client.Record("svc:enactor", []core.Record{mkRecord(session, "svc:gzip")}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := client.QueryPlanned(&prep.Query{SessionID: session}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(client.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		name, value, _ := strings.Cut(line, " ")
		samples[name] = value
	}
	// Service counters, store gauges and request histograms all reach
	// the one endpoint.
	for _, want := range []string{
		"preserv_record_requests_total",
		"preserv_query_requests_total",
		"store_garbage_ratio",
		"store_tombstones",
		`preserv_request_seconds_count{action="record"}`,
		`store_record_seconds_count`,
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("missing sample %s", want)
		}
	}
	if got := samples["preserv_record_requests_total"]; got != "1" {
		t.Errorf("preserv_record_requests_total = %s, want 1", got)
	}
}

// TestSlowLogCapturesScanPlan drops the slow threshold to one
// nanosecond so every operation qualifies, runs a query the planner
// must execute as a scan (no indexable dimension), and checks the store
// tracer's slow log kept the span WITH its plan annotations — the
// debugging artefact the slow log exists for.
func TestSlowLogCapturesScanPlan(t *testing.T) {
	withTelemetry(t)
	st := store.New(store.NewMemoryBackend())
	t.Cleanup(func() { st.Close() })
	st.Obs().Tracer().SetSlowThreshold(1)
	local := shard.NewLocal(st)

	session := seq.NewID()
	if _, _, err := local.Record("svc:enactor", []core.Record{mkRecord(session, "svc:gzip")}); err != nil {
		t.Fatal(err)
	}
	// An empty query has no dimension the planner can serve from an
	// index: it must fall back to the scan path.
	if _, _, plan, err := local.QueryPlanned(&prep.Query{}); err != nil {
		t.Fatal(err)
	} else if plan.Strategy != prep.PlanScan {
		t.Fatalf("fixture query planned as %q, want scan", plan.Strategy)
	}

	var found bool
	for _, span := range st.Obs().Tracer().Slow() {
		if span.Op() != "query.planned" {
			continue
		}
		attrs := map[string]string{}
		for _, a := range span.Attrs() {
			attrs[a.Key] = a.Value
		}
		if attrs["strategy"] == string(prep.PlanScan) {
			found = true
			if attrs["candidates"] == "" {
				t.Errorf("slow span lacks plan cost attrs: %v", span.Attrs())
			}
		}
	}
	if !found {
		t.Fatalf("slow log holds no scan-plan query.planned span: %v", st.Obs().Tracer().Slow())
	}
	if d := st.Obs().Tracer().Slow()[0].Duration(); d <= 0 {
		t.Errorf("slow span duration = %v", d)
	}
}

// TestStatsTornReadFixed drives concurrent record traffic while
// snapshotting StatsResponse, asserting the invariant the old field-by-field
// atomic loads could violate: every snapshot's accepted-records count
// is consistent with its request count (each request accepts exactly 2
// records, and a request is only counted once its records are).
func TestStatsTornReadFixed(t *testing.T) {
	client, svc := startServer(t)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		for {
			select {
			case <-stop:
				return
			default:
			}
			session := seq.NewID()
			recs := []core.Record{mkRecord(session, "svc:gzip"), mkRecord(session, "svc:ppmz")}
			if _, err := client.Record("svc:enactor", recs); err != nil {
				errc <- err
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		s := mustStats(t, svc)
		if s.RecordsAccepted != 2*s.RecordRequests {
			t.Fatalf("torn stats snapshot: %d requests but %d accepted", s.RecordRequests, s.RecordsAccepted)
		}
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

var _ = fmt.Sprintf
