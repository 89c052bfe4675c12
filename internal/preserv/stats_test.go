package preserv

// Tests for the telemetry surface: the urn:prep:stats wire action, the
// /metrics Prometheus endpoint, the sharded garbage/tombstone
// aggregation over remote children (which silently read as zero before
// the stats action existed), and the slow-operation log capturing a
// forced scan-plan query.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/prep"
	"preserv/internal/shard"
	"preserv/internal/soap"
	"preserv/internal/store"
)

// withTelemetry turns the histogram/span instrumentation on for one
// test and restores the previous state after.
func withTelemetry(t *testing.T) {
	t.Helper()
	setTelemetry(t, true)
}

func TestStatsWireAction(t *testing.T) {
	withTelemetry(t)
	client, _ := startKVServer(t)

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
	srv, err := Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	front := NewClient(srv.URL, nil)

	// Enough distinct sessions that both shards receive records, then a
	// deletion on each session to leave tombstones behind on both sides:
	// one record of four, so that no child reaches store.CompactRatio and
	// reclaims them.
	perShard := make([]int, 2)
	var doomed []string
	for s := 0; s < 8; s++ {
		session := seq.NewID()
		recs := []core.Record{mkRecord(session, "svc:gzip"), mkRecord(session, "svc:ppmz"),
			mkRecord(session, "svc:bzip2"), mkRecord(session, "svc:gzip")}
		if _, err := front.Record("svc:enactor", recs); err != nil {
			t.Fatal(err)
		}
		perShard[shard.AffinityIndex(session.String(), 2)] += len(recs)
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
	if len(st.Shards) != 2 {
		t.Fatalf("%d shards, want 2", len(st.Shards))
	}
	if st.Tombstones == 0 {
		t.Error("aggregate Tombstones = 0 after deletes on both shards")
	}
	var sumRecords int
	var sumTombstones, sumStalls int64
	for i, sh := range st.Shards {
		if sh.URL != urls[i] {
			t.Errorf("shard %d URL = %q, want %q", i, sh.URL, urls[i])
		}
		// Each child is a single store: its node holds that store's leaf.
		if len(sh.Shards) != 1 || sh.Shards[0].Records != sh.Records || sh.Shards[0].URL != "" {
			t.Errorf("shard %d subtree = %+v, want the child's one embedded store with its %d records", i, sh.Shards, sh.Records)
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
// against dropping any part of the child's reply: over a live child it
// reports the polled reply's root node as it is, subtree included, with
// the child's URL, and leaves the cached reply untouched. The fixture
// leaves no field of that node zero, and a ring entry in the child's
// store, so a field or a level that goes missing fails here.
func TestRemoteShardStatsCarryEveryField(t *testing.T) {
	withTelemetry(t)
	client, svc := startKVServer(t)
	svc.Obs().Tracer().SetSlowThreshold(time.Nanosecond)

	session := seq.NewID()
	recs := []core.Record{mkRecord(session, "svc:gzip"), mkRecord(session, "svc:ppmz"), mkRecord(session, "svc:bzip2")}
	if _, err := client.Record("svc:enactor", recs); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := client.QueryPlanned(&prep.Query{SessionID: session}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Compact(); err != nil { // a store.compact entry in the shard's ring
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
	remote.statsMu.Lock()
	reply := remote.stats // the reply ShardStats was built from
	remote.statsMu.Unlock()

	if reply.URL != "" {
		t.Errorf("the cached reply's URL = %q: ShardStats wrote into it", reply.URL)
	}
	want := reply.ShardStats
	want.URL = client.URL()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RemoteShard.ShardStats() = %+v, want the child's root node %+v", got, want)
	}
	wv := reflect.ValueOf(want)
	for i := 0; i < wv.NumField(); i++ {
		if wv.Field(i).IsZero() {
			t.Errorf("the child's %s is zero: the fixture must exercise every field", wv.Type().Field(i).Name)
		}
	}
	if len(want.Shards) != 1 || len(entries(want.Shards[0].Slow, "store.compact")) != 1 {
		t.Errorf("the child's subtree %+v lacks its store's store.compact entry", want.Shards)
	}
}

// TestFrontStatsPollEachChildOnce: one StatsResponse of a front over
// two served children is one stats fan-out. Each child answers its
// stats action once and its count action never, so the children's
// QueryRequests stay what their clients asked; and the front's
// whole-store figures are the aggregate of its per-shard breakdown,
// with the front router's own result cache as the cache counters.
func TestFrontStatsPollEachChildOnce(t *testing.T) {
	withTelemetry(t)
	ca, a := startKVServer(t)
	cb, b := startKVServer(t)
	children := []*Service{a, b}
	rt, err := NewRemoteRouter(ca.URL() + "," + cb.URL())
	if err != nil {
		t.Fatal(err)
	}
	front := NewShardedService(rt)
	// Sessions homed on each child, so that both hold records and
	// tombstones: one record of each session's four is deleted, which
	// leaves each child below store.CompactRatio.
	var keys []string
	for homed := [2]int{}; homed[0] < 2 || homed[1] < 2; {
		sid := seq.NewID()
		home := shard.AffinityIndex(sid.String(), 2)
		if homed[home] == 2 {
			continue
		}
		homed[home]++
		recs := []core.Record{mkRecord(sid, "svc:gzip"), mkRecord(sid, "svc:ppmz"),
			mkRecord(sid, "svc:bzip2"), mkRecord(sid, "svc:gzip")}
		if _, _, err := rt.Record("svc:enactor", recs); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, recs[0].StorageKey())
		for j := 0; j < 2; j++ { // the second is a result-cache hit
			if _, _, _, err := rt.QueryPlanned(&prep.Query{SessionID: sid}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := rt.DeleteRecords(keys); err != nil {
		t.Fatal(err)
	}

	actions := func(c *Service, action string) int64 {
		return c.Obs().HistogramSnapshots()[fmt.Sprintf(`preserv_request_seconds{action=%q}`, action)].Count
	}
	var counts, stats, queries [2]int64
	for i, c := range children {
		counts[i], stats[i], queries[i] = actions(c, "count"), actions(c, "stats"), mustStats(t, c).QueryRequests
	}
	st := mustStats(t, front)
	for i, c := range children {
		if d := actions(c, "count") - counts[i]; d != 0 {
			t.Errorf("child %d answered %d count actions, want none", i, d)
		}
		if d := actions(c, "stats") - stats[i]; d != 1 {
			t.Errorf("child %d answered %d stats actions, want one", i, d)
		}
		if d := mustStats(t, c).QueryRequests - queries[i]; d != 0 {
			t.Errorf("child %d QueryRequests moved by %d, want 0", i, d)
		}
	}

	if len(st.Shards) != 2 {
		t.Fatalf("%d shards in the breakdown, want 2", len(st.Shards))
	}
	var want prep.ShardStats
	for i, sh := range st.Shards {
		if sh.Records == 0 || sh.Tombstones == 0 {
			t.Fatalf("shard %d holds %d records and %d tombstones: the fixture must reach both children", i, sh.Records, sh.Tombstones)
		}
		want.Add(sh)
	}
	want.Engine.CacheHits, want.Engine.CacheMisses = rt.ResultCacheStats()
	if want.Engine.CacheHits == 0 || want.GarbageRatio == 0 || want.WritePath.StallCount == 0 {
		t.Fatalf("aggregate %+v leaves a figure zero: the fixture must exercise it", want)
	}
	got := st.ShardStats
	got.Histograms, got.Slow, got.Shards = nil, nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("front reports %+v, want the Add of its shards with the router's cache %+v", got, want)
	}
}

// TestFrontStatsTree: a front over two served children, each a router
// over two stores, reports one tree — a node per child holding a leaf
// per store. Each leaf carries its own store's histograms and history,
// each child's fan-out histograms sit in that child's node, and the
// front's only at the root.
func TestFrontStatsTree(t *testing.T) {
	withTelemetry(t)
	var urls []string
	var routers [2]*shard.Router
	var stores [2][2]*store.Store
	for c := range routers {
		var leaves []shard.Shard
		for l := range stores[c] {
			stores[c][l] = store.New(store.NewMemoryBackend())
			leaves = append(leaves, shard.NewLocal(stores[c][l]))
		}
		rt, err := shard.NewRouter(leaves...)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Serve(NewShardedService(rt), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close(); rt.Close() })
		routers[c], urls = rt, append(urls, srv.URL)
	}
	frontRt, err := NewRemoteRouter(strings.Join(urls, ","))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(NewShardedService(frontRt), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	front := NewClient(srv.URL, nil)

	// Both levels home a session by the same hash mod 2, so through the
	// front a child's records all land on its leaf of the same index:
	// each child also takes sessions directly, to reach its other leaf.
	for _, c := range []*Client{front, NewClient(urls[0], nil), NewClient(urls[1], nil)} {
		for i := 0; i < 8; i++ {
			session := seq.NewID()
			if _, err := c.Record("svc:enactor", []core.Record{mkRecord(session, "svc:gzip"), mkRecord(session, "svc:ppmz")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, _, err := front.QueryPlanned(&prep.Query{}); err != nil {
		t.Fatal(err)
	}
	if _, err := front.Compact(); err != nil {
		t.Fatal(err)
	}
	st, err := front.StoreStats()
	if err != nil {
		t.Fatal(err)
	}

	// routerHists reads a node's router histograms as name -> count.
	routerHists := func(hs []prep.HistogramStat) map[string]int64 {
		m := map[string]int64{}
		for _, h := range hs {
			if strings.HasPrefix(h.Name, "router_") {
				m[h.Name] = h.Count
			}
		}
		return m
	}
	const fanout0 = `router_shard_fanout_seconds{shard="0"}`
	rootHists := routerHists(st.Histograms)
	if want := routerHists(shard.HistogramStats(frontRt.Obs())); rootHists[fanout0] == 0 || !reflect.DeepEqual(rootHists, want) {
		t.Errorf("root router histograms %v, want the front router's %v", rootHists, want)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("root has %d children, want 2", len(st.Shards))
	}
	for c, node := range st.Shards {
		if node.URL != urls[c] || len(node.Shards) != 2 {
			t.Fatalf("child %d = {URL:%q, %d shards}, want {%q, 2}", c, node.URL, len(node.Shards), urls[c])
		}
		got, want := routerHists(node.Histograms), routerHists(shard.HistogramStats(routers[c].Obs()))
		if reflect.DeepEqual(want, rootHists) {
			t.Fatalf("child %d's router histograms equal the front's %v: the fixture must tell them apart", c, want)
		}
		if got[fanout0] == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("child %d router histograms %v, want its own router's %v", c, got, want)
		}
		for _, h := range node.Histograms {
			if strings.HasPrefix(h.Name, "store_") {
				t.Errorf("child %d's node carries the store histogram %s", c, h.Name)
			}
		}
		if e := entries(node.Slow, "store.compact"); len(e) != 0 {
			t.Errorf("child %d's node carries store.compact entries %+v", c, e)
		}
		for l, leaf := range node.Shards {
			own := stores[c][l].Obs().HistogramSnapshots()["store_record_seconds"].Count
			var carried int64
			for _, h := range leaf.Histograms {
				if h.Name == "store_record_seconds" {
					carried = h.Count
				}
			}
			if leaf.Records == 0 || own == 0 || carried != own {
				t.Errorf("leaf %d/%d: %d records, store_record_seconds n=%d, its store observed %d", c, l, leaf.Records, carried, own)
			}
			if h := routerHists(leaf.Histograms); len(h) != 0 || leaf.URL != "" || len(leaf.Shards) != 0 {
				t.Errorf("leaf %d/%d = {URL:%q, router histograms %v, %d shards}, want an embedded store", c, l, leaf.URL, h, len(leaf.Shards))
			}
			if e := entries(leaf.Slow, "store.compact"); len(e) != 1 {
				t.Errorf("leaf %d/%d holds store.compact entries %+v, want one", c, l, e)
			}
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

// TestEveryActionTimedAndCounted posts each PReP action to a live
// server: each moves its own preserv_request_seconds count by one, its
// own request counter and nothing else; an unregistered action gets
// client.unknown-action and moves nothing.
func TestEveryActionTimedAndCounted(t *testing.T) {
	withTelemetry(t)
	client, svc := startServer(t)
	session := seq.NewID()
	q := &prep.Query{SessionID: session}
	steps := []struct {
		action string
		call   func() error
		moves  map[string]int64
	}{
		{prep.ActionRecord, func() error {
			_, err := client.Record("svc:enactor", []core.Record{mkRecord(session, "svc:gzip")})
			return err
		}, map[string]int64{"preserv_record_requests_total": 1, "preserv_records_accepted_total": 1}},
		{prep.ActionQuery, func() error { _, _, err := client.Query(q); return err },
			map[string]int64{"preserv_query_requests_total": 1}},
		{prep.ActionPlannedQuery, func() error { _, _, _, err := client.QueryPlanned(q); return err },
			map[string]int64{"preserv_query_requests_total": 1}},
		{prep.ActionQueryPage, func() error { _, err := client.QueryPage(q, "", 10); return err },
			map[string]int64{"preserv_query_requests_total": 1}},
		{prep.ActionSessions, func() error { _, err := client.Sessions(); return err },
			map[string]int64{"preserv_query_requests_total": 1}},
		{prep.ActionCount, func() error { _, err := client.Count(); return err },
			map[string]int64{"preserv_query_requests_total": 1}},
		{prep.ActionStats, func() error { _, err := client.StoreStats(); return err }, nil},
		{prep.ActionDelete, func() error { _, err := client.DeleteSession(session); return err },
			map[string]int64{"preserv_delete_requests_total": 1, "preserv_records_deleted_total": 1}},
		{prep.ActionCompact, func() error { _, err := client.Compact(); return err },
			map[string]int64{"preserv_compactions_total": 1}},
		{"urn:prep:nonesuch", func() error {
			err := client.ep.Post("urn:prep:nonesuch", &prep.CountRequest{}, nil)
			var f *soap.Fault
			if !errors.As(err, &f) || f.Code != soap.FaultBadAction {
				return fmt.Errorf("unregistered action: err = %v, want a %s fault", err, soap.FaultBadAction)
			}
			return nil
		}, nil},
	}
	for _, step := range steps {
		counters, hists := svc.Obs().CounterSnapshot(), svc.Obs().HistogramSnapshots()
		if err := step.call(); err != nil {
			t.Fatalf("%s: %v", step.action, err)
		}
		for name, v := range svc.Obs().CounterSnapshot() {
			if moved := v - counters[name]; moved != step.moves[name] {
				t.Errorf("%s moved %s by %d, want %d", step.action, name, moved, step.moves[name])
			}
		}
		own := fmt.Sprintf(`preserv_request_seconds{action=%q}`, strings.TrimPrefix(step.action, "urn:prep:"))
		after := svc.Obs().HistogramSnapshots()
		if _, ok := after[own]; !ok && step.action != "urn:prep:nonesuch" {
			t.Errorf("%s has no histogram %s", step.action, own)
		}
		for name, h := range after {
			want := int64(0)
			if name == own {
				want = 1
			}
			if moved := h.Count - hists[name].Count; moved != want {
				t.Errorf("%s moved %s by %d, want %d", step.action, name, moved, want)
			}
		}
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
