package main

import "fmt"

// refSeconds is the length the timed sections of one run are calibrated
// to on the reference box (2 cores); it equals run_seconds in
// BENCHMARK.json.
// -seconds S multiplies every phase's fixed operation count by
// S/refSeconds, so equal -seconds means equal counts and the count
// metrics repeat exactly.
const refSeconds = 12

// metric is one reported measurement: its frozen name, unit, direction,
// and — for end-to-end metrics — the relative worsening that counts as
// a regression.
type metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd lists the 16 end-to-end metrics in reporting order. Names
// are final: later issues cite them. The metrics that are counts repeat
// exactly and keep tight bounds. Every metric that is a time carries
// 0.25, the widest the driver's contract allows: at reference speed
// (calib.go) ten runs of unchanged code spread by 1-6%, the tails by up
// to 13%, and a bound has to hold three times the spread for the
// driver's own check of the benchmark to pass in a noisy hour (README,
// "Bounds").
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_rps", "rec/s", "higher", 0.25},
	{"record_p50_ms", "ms", "lower", 0.25},
	{"record_p99_ms", "ms", "lower", 0.25},
	{"async_ship_rps", "rec/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p99_ms", "ms", "lower", 0.25},
	{"query_hot_p50_ms", "ms", "lower", 0.25},
	{"walk_rps", "rec/s", "higher", 0.25},
	{"compare_ms", "ms", "lower", 0.25},
	{"ingest_cpu_ms_per_krec", "ms", "lower", 0.25},
	{"query_cpu_ms_per_kop", "ms", "lower", 0.25},
	{"ingest_allocs_per_rec", "count", "lower", 0.05},
	{"ingest_alloc_bytes_per_rec", "B", "lower", 0.05},
	{"disk_bytes_per_rec", "B", "lower", 0.02},
	{"reopen_s", "s", "lower", 0.25},
}

// perLayer lists the per-layer metrics, <module>.<metric>. The seam-span
// self times are reported separately for Record and QueryPlanned
// requests: a mean over both would move with the traffic mix.
var perLayer = []metric{
	// (a) seam spans of the traced run
	{"client.record_self_us", "us", "lower", 0},
	{"client.query_self_us", "us", "lower", 0},
	{"transport.record_self_us", "us", "lower", 0},
	{"transport.query_self_us", "us", "lower", 0},
	{"preserv.record_self_us", "us", "lower", 0},
	{"preserv.query_self_us", "us", "lower", 0},
	{"shard.record_child_self_us", "us", "lower", 0},
	{"shard.query_child_self_us", "us", "lower", 0},
	{"shard.child_max_us", "us", "lower", 0},
	{"shard.fanout_width", "count", "lower", 0},
	{"backend.record_busy_us", "us", "lower", 0},
	{"backend.query_busy_us", "us", "lower", 0},
	{"backend.calls_per_op", "count", "lower", 0},
	{"backend.bytes_written_per_rec", "B", "lower", 0},
	{"backend.bytes_read_per_op", "B", "lower", 0},
	{"trace.selfsum_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	// (b) direct probes
	{"soap.marshal_request_us_per_rec", "us", "lower", 0},
	{"soap.decode_request_us_per_rec", "us", "lower", 0},
	{"soap.marshal_reply_us_per_rec", "us", "lower", 0},
	{"soap.decode_reply_us_per_rec", "us", "lower", 0},
	{"soap.wire_bytes_per_rec", "B", "lower", 0},
	{"soap.allocs_per_rec", "count", "lower", 0},
	{"core.encode_ns_per_rec", "ns", "lower", 0},
	{"core.decode_ns_per_rec", "ns", "lower", 0},
	{"core.stored_bytes_per_rec", "B", "lower", 0},
	{"preserv.dispatch_us", "us", "lower", 0},
	{"preserv.faults", "count", "lower", 0},
	{"shard.route_self_us", "us", "lower", 0},
	{"shard.resultcache_hit_ratio", "ratio", "higher", 0},
	{"query.exec_us", "us", "lower", 0},
	{"query.candidates_per_result", "count", "lower", 0},
	{"query.postings_per_result", "count", "lower", 0},
	{"query.cache_hit_ratio", "ratio", "higher", 0},
	{"index.postings_per_rec", "count", "lower", 0},
	{"index.addbatch_us_per_rec", "us", "lower", 0},
	{"index.count_postings_ns", "ns", "lower", 0},
	{"index.iter_ns_per_posting", "ns", "lower", 0},
	{"store.record_us_per_rec", "us", "lower", 0},
	{"store.getbatch_us_per_rec", "us", "lower", 0},
	{"store.blockcache_hit_ratio", "ratio", "higher", 0},
	{"store.bloom_skip_ratio", "ratio", "higher", 0},
	{"store.write_stall_p99_us", "us", "lower", 0},
	{"kvdb.putbatch_us_per_rec", "us", "lower", 0},
	{"kvdb.get_us", "us", "lower", 0},
	{"kvdb.log_bytes_per_rec", "B", "lower", 0},
	{"kvdb.open_s", "s", "lower", 0},
	{"file.putbatch_us_per_batch", "us", "lower", 0},
	{"file.get_us", "us", "lower", 0},
	{"file.segments_per_krec", "count", "lower", 0},
	{"file.open_s", "s", "lower", 0},
	{"client.journal_append_us", "us", "lower", 0},
	{"client.flush_us_per_rec", "us", "lower", 0},
}

// Topologies a workload can run on.
const (
	topoSingle   = "single"   // one store behind preserv.NewService
	topoEmbedded = "embedded" // N embedded shards behind shard.Router
	topoRemote   = "remote"   // N child services behind NewRemoteRouter
)

// Query mixes.
const (
	mixPoint   = "point"   // InteractionID / DataID lookups, 2-3 records
	mixSession = "session" // session+service, session+stateKind, and 1 in 20 service+window
	mixScoped  = "scoped"  // the session mix without the session-free shape
)

// workload freezes one traffic mix. Every count is the value at
// -seconds refSeconds; the base store is not scaled by -seconds (its
// size relative to the caches is part of the workload).
type workload struct {
	Name string
	Why  string

	Topo    string
	Backend string // "kvdb" or "file"
	Shards  int

	// Base store: SmallSessions sessions of SmallUnits permutation units
	// plus BigSessions of BigUnits (12 records per unit). Walks stream
	// the big sessions when there are any, else small ones.
	SmallSessions, SmallUnits int
	BigSessions, BigUnits     int

	Batch          int // records per Client.Record request
	IngestRequests int
	AsyncRecords   int
	Mix            string
	Queries        int // cold-mix operations
	HotOps         int
	Walks          int
	Compares       int

	// RecordTail and QueryTail are the percentiles record_p99_ms and
	// query_p99_ms report on this workload: 0.99 where the phase has 1000
	// samples or more at -seconds refSeconds, else a lower one that
	// leaves about ten samples of the phase beyond it. Frozen here, so
	// the statistic does not change with -seconds.
	RecordTail, QueryTail float64

	// Live runs ingest concurrently with the query phases (mixed-live):
	// SoloRequests and SoloQueries are measured alone first, for the
	// CPU and allocation metrics, which cannot be attributed while
	// reader and writer share the process.
	Live         bool
	SoloRequests int
	SoloQueries  int
}

// recordsPerUnit is the Measure workflow's documentation volume per
// permutation: six activities, each an interaction record plus a script
// actor-state record.
const recordsPerUnit = 12

// rounds is how many interleaved rounds a run's timed phases are cut
// into. The cold query counts below are multiples of 80*rounds and the
// hot ones of 20*rounds, so every round's slice is a whole number of
// the mixes' pattern (20 operations, the session-free shape's service
// rotating over 4 of them) and has the same composition of shapes.
const rounds = 8

var workloads = []workload{
	{
		Name: "sync-small",
		Why:  "batch-1 Record and 2-3 record point lookups on one kvdb store larger than its block cache: per-request envelope/HTTP/dispatch cost dominates, the backend is minor",
		Topo: topoSingle, Backend: "kvdb", Shards: 1,
		SmallSessions: 1400, SmallUnits: 5,
		Batch: 1, IngestRequests: 16000, AsyncRecords: 9600,
		Mix: mixPoint, Queries: 9600, HotOps: 3200, Walks: 200, Compares: 160,
		RecordTail: 0.99, QueryTail: 0.99,
	},
	{
		Name: "batch-shard4",
		Why:  "batch-100 Record and session/service queries over 4 embedded kvdb shards that fit their caches: per-record XML cost and router fan-out/merge dominate, the backend is minor",
		Topo: topoEmbedded, Backend: "kvdb", Shards: 4,
		SmallSessions: 150, SmallUnits: 10, BigSessions: 16, BigUnits: 167,
		Batch: 100, IngestRequests: 320, AsyncRecords: 14400,
		Mix: mixSession, Queries: 1280, HotOps: 320, Walks: 8, Compares: 96,
		RecordTail: 0.95, QueryTail: 0.99,
	},
	{
		Name: "batch-file",
		Why:  "batch-20 Record and session/service queries on one file-backend store (mmap on): segment writes, blooms and GetBatch reads dominate, the wire is the minor share",
		Topo: topoSingle, Backend: "file", Shards: 1,
		SmallSessions: 30, SmallUnits: 10, BigSessions: 2, BigUnits: 167,
		Batch: 20, IngestRequests: 480, AsyncRecords: 4800,
		Mix: mixSession, Queries: 1280, HotOps: 320, Walks: 8, Compares: 64,
		RecordTail: 0.95, QueryTail: 0.99,
	},
	{
		Name: "mixed-live",
		Why:  "batch-100 Record on connection 1 concurrent with the query mixes on connection 2, one kvdb store: every Record invalidates the generation-keyed caches under the reader and commits contend with reads",
		Topo: topoSingle, Backend: "kvdb", Shards: 1,
		SmallSessions: 80, SmallUnits: 10,
		Batch: 100, IngestRequests: 144, AsyncRecords: 4800,
		Mix: mixScoped, Walks: 120, Compares: 120,
		Live: true, SoloRequests: 64, SoloQueries: 320,
		RecordTail: 0.90, QueryTail: 0.90,
	},
	{
		Name: "remote-2",
		Why:  "batch-shard4 traffic at 40% of the counts through a front service over 2 remote kvdb children: every operation crosses soap+HTTP twice and fans out over RemoteShard with stats polling",
		Topo: topoRemote, Backend: "kvdb", Shards: 2,
		SmallSessions: 132, SmallUnits: 10, BigSessions: 8, BigUnits: 167,
		Batch: 100, IngestRequests: 200, AsyncRecords: 9600,
		Mix: mixSession, Queries: 640, HotOps: 320, Walks: 8, Compares: 64,
		RecordTail: 0.95, QueryTail: 0.975,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// baseRecords is the number of records set-up populates.
func (w workload) baseRecords() int {
	return (w.SmallSessions*w.SmallUnits + w.BigSessions*w.BigUnits) * recordsPerUnit
}

// scaled returns w with its base store multiplied by base and its
// operation counts by ops (each kept large enough for the phase to
// mean something). base is 1 for every real run; the smoke test shrinks
// both.
func (w workload) scaled(base, ops float64) workload {
	atLeast := func(n int, f float64, min int) int {
		if n == 0 {
			return 0
		}
		if v := int(float64(n)*f + 0.5); v > min {
			return v
		}
		return min
	}
	// 14 sessions is the fewest from which the scoped mix can draw its
	// 64 distinct hot queries (5 shapes per session).
	w.SmallSessions = atLeast(w.SmallSessions, base, 14)
	w.BigSessions = atLeast(w.BigSessions, base, 1)
	if base < 1 {
		w.SmallUnits = atLeast(w.SmallUnits, 0.5, 3)
		w.BigUnits = atLeast(w.BigUnits, base*10, 20)
	}
	w.IngestRequests = atLeast(w.IngestRequests, ops, 8)
	w.AsyncRecords = atLeast(w.AsyncRecords, ops, 5*recordsPerUnit)
	w.Queries = atLeast(w.Queries, ops, 20)
	w.HotOps = atLeast(w.HotOps, ops, 70)
	w.Walks = atLeast(w.Walks, ops, 2)
	w.Compares = atLeast(w.Compares, ops, 4)
	w.SoloRequests = atLeast(w.SoloRequests, ops, 4)
	w.SoloQueries = atLeast(w.SoloQueries, ops, 10)
	return w
}
