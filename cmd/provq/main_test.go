package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/preserv"
	"preserv/internal/store"
)

// serveMemoryStore serves an empty memory-backed store on a loopback
// port and returns its URL.
func serveMemoryStore(t *testing.T) string {
	t.Helper()
	srv, err := preserv.Serve(preserv.NewService(store.New(store.NewMemoryBackend())), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.URL
}

// TestShardedResultLinesNameTheShards runs compact and consolidate
// through the -shards loopback router: their result lines must name the
// shard endpoints they reached, not the -store URL nothing contacted.
func TestShardedResultLinesNameTheShards(t *testing.T) {
	const unused = "http://127.0.0.1:8734"
	shards := serveMemoryStore(t) + "," + serveMemoryStore(t)
	source := preserv.NewClient(serveMemoryStore(t), nil)

	client, dest, stop, err := connect(unused, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var out bytes.Buffer
	resp, err := client.Compact()
	if err != nil {
		t.Fatal(err)
	}
	printCompacted(&out, dest, resp)
	accepted, err := preserv.Consolidate(client, source)
	if err != nil {
		t.Fatal(err)
	}
	printConsolidated(&out, dest, accepted, 1)

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("output %q, want two result lines", out.String())
	}
	for _, line := range lines {
		if !strings.Contains(line, shards) || strings.Contains(line, unused) {
			t.Errorf("result line %q does not name the shards %s (or names the unused -store %s)", line, shards, unused)
		}
	}

	// Without -shards the label stays the -store URL.
	_, dest, stop, err = connect(unused, "")
	if err != nil || dest != unused {
		t.Fatalf("plain store label %q (err %v), want %q", dest, err, unused)
	}
	stop()
}

func TestRunCompactRefusesMissingDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "no-such-store")
	var out bytes.Buffer
	if err := runCompact(dir, &out); err == nil {
		t.Errorf("compacting a missing directory succeeded: %q", out.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("the mistyped path was created (stat err = %v)", err)
	}
}

// mkRecord is one interaction record of session.
func mkRecord(session ids.ID) core.Record {
	in := core.Interaction{ID: ids.New(), Sender: "svc:enactor", Receiver: "svc:gzip", Operation: "run"}
	return *core.NewInteractionRecord(&core.InteractionPAssertion{
		LocalID:     "x",
		Asserter:    in.Sender,
		Interaction: in,
		View:        core.SenderView,
		Request:     core.Message{Name: "invoke"},
		Response:    core.Message{Name: "result"},
		Groups:      []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: 1}},
		Timestamp:   time.Unix(1117584000, 0),
	})
}

// populate writes four records into a fresh store in dir, deletes the
// first (too few to make the store compact itself), closes the store and
// returns the records.
func populate(t *testing.T, dir string) []core.Record {
	t.Helper()
	s, err := store.Open("kvdb", dir)
	if err != nil {
		t.Fatal(err)
	}
	session := ids.New()
	recs := []core.Record{mkRecord(session), mkRecord(session), mkRecord(session), mkRecord(session)}
	if _, _, err := s.Record("svc:enactor", recs); err != nil {
		t.Fatal(err)
	}
	if n, err := s.DeleteRecords([]string{recs[0].StorageKey()}); err != nil || n != 1 {
		t.Fatalf("DeleteRecords = %d, %v", n, err)
	}
	if g := s.GarbageRatio(); g <= 0 {
		t.Fatalf("garbage ratio %v after the delete: nothing to compact", g)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestRunCompactCompactsAnExistingStore(t *testing.T) {
	dir := t.TempDir()
	recs := populate(t, dir)
	var out bytes.Buffer
	if err := runCompact(dir, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "compacted ") {
		t.Errorf("output %q", out.String())
	}
	s, err := store.Open("kvdb", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if cnt, _ := s.Count(); cnt.Records != 3 {
		t.Errorf("%d records after compaction, want 3", cnt.Records)
	}
	if _, total, err := s.Query(&prep.Query{InteractionID: recs[0].Interaction.Interaction.ID}); err != nil || total != 0 {
		t.Errorf("deleted record back after compaction (%d, %v)", total, err)
	}
	if g := s.GarbageRatio(); g != 0 {
		t.Errorf("garbage ratio %v after offline compaction", g)
	}
}

// TestRunCompactRefusesSchemaThree: offline compaction opens the store as
// the server does, so a store in an earlier on-disk format is refused by
// name and its log left byte for byte as it was.
func TestRunCompactRefusesSchemaThree(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir)
	b, err := store.NewKVBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("xm/schema", []byte("3")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "data.log")
	before, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runCompact(dir, &out); !errors.Is(err, core.ErrOldFormat) {
		t.Fatalf("compacting a schema-3 store: %v (output %q), want core.ErrOldFormat", err, out.String())
	}
	if after, err := os.ReadFile(log); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the refused store's log changed: %d -> %d bytes (%v)", len(before), len(after), err)
	}
}

// TestPrintStatsTree renders a fixed three-level stats reply: the root's
// counters and its own histograms and history, then each node under its
// path label (1/0 is the first shard of the second), indented by depth,
// a remote node under its URL, and no line for a histogram that
// observed nothing.
func TestPrintStatsTree(t *testing.T) {
	leaf := func(records int, garbage float64, tombstones int64) prep.ShardStats {
		return prep.ShardStats{Records: records, GarbageRatio: garbage, Tombstones: tombstones}
	}
	embedded, first, second := leaf(2, 0, 1), leaf(1, 0, 0), leaf(2, 0.25, 1)
	embedded.Engine.IndexPlans = 1
	embedded.Histograms = []prep.HistogramStat{{Name: "store_record_seconds", Count: 1, P50: 0.0005, P95: 0.0005, P99: 0.0005}}
	first.Slow = []prep.SlowSpan{{Op: "store.compact", Seconds: 0.004, Attrs: []prep.SpanAttr{{Key: "garbage_before", Value: "0.50"}}}}
	second.Histograms = []prep.HistogramStat{{Name: "store_record_batch_size", Count: 2, P50: 2, P95: 2, P99: 2}}
	remote := prep.ShardStats{URL: "http://child:8771", Records: 3, GarbageRatio: 0.25, Tombstones: 1,
		Engine: prep.EngineCounters{IndexPlans: 1, ScanPlans: 1},
		Histograms: []prep.HistogramStat{
			{Name: `router_shard_fanout_seconds{shard="0"}`, Count: 2, P50: 0.004, P95: 0.008, P99: 0.008},
			{Name: "store_delete_seconds"},
		},
		Shards: []prep.ShardStats{first, second}}
	st := &prep.StatsResponse{
		RecordRequests: 3, RecordsAccepted: 6, QueryRequests: 2, DeleteRequests: 1, RecordsDeleted: 1, Compactions: 1,
		Generation: 0xabc, GenerationValid: true,
		ShardStats: prep.ShardStats{Records: 5, GarbageRatio: 0.25, Tombstones: 2,
			Engine:    prep.EngineCounters{IndexPlans: 2, ScanPlans: 1, CacheHits: 1, CacheMisses: 3},
			WritePath: prep.WritePathCounters{StallCount: 3, StallSeconds: 0.5, StallP99: 0.002},
			Histograms: []prep.HistogramStat{
				{Name: `preserv_request_seconds{action="record"}`, Count: 3, P50: 0.001, P95: 0.002, P99: 0.003},
				{Name: "router_merge_width"},
			},
			Slow:   []prep.SlowSpan{{Op: "router.fanout", Seconds: 0.0015, Attrs: []prep.SpanAttr{{Key: "shard", Value: "1"}}}},
			Shards: []prep.ShardStats{embedded, remote}},
	}
	var out bytes.Buffer
	printStats(&out, st)
	want := `records: 5  shards: 2  garbage: 0.25  tombstones: 2
requests: record=3 (accepted 6)  query=2  delete=1 (deleted 1)  compactions=1
engine: index=2 scan=1 paged=0 probes=0 postings=0 candidates=0 cache=1/4
generation: 0000000000000abc
write path: compacting=0  stalls=3 (p99=2.00ms, total=0.5s)
preserv_request_seconds{action="record"}     n=3       p50=1.000ms p95=2.000ms p99=3.000ms
slow: router.fanout        1.5ms shard=1
shard 0 (embedded): records=2 garbage=0.00 tombstones=1 index=1 scan=0
  store_record_seconds                         n=1       p50=0.500ms p95=0.500ms p99=0.500ms
shard 1 (http://child:8771): records=3 garbage=0.25 tombstones=1 index=1 scan=1
  router_shard_fanout_seconds{shard="0"}       n=2       p50=4.000ms p95=8.000ms p99=8.000ms
  shard 1/0 (embedded): records=1 garbage=0.00 tombstones=0 index=0 scan=0
    slow: store.compact        4.0ms garbage_before=0.50
  shard 1/1 (embedded): records=2 garbage=0.25 tombstones=1 index=0 scan=0
    store_record_batch_size                      n=2       p50=2.0 p95=2.0 p99=2.0
`
	if got := out.String(); got != want {
		t.Errorf("printStats rendered\n%s\nwant\n%s", got, want)
	}
}
