package bench

// Shard-scaling sweep: ingest throughput and first-page query latency
// through a shard.Router as the shard count grows. The child stores sit
// on memory backends wrapped in a modelled serialized write latency —
// the cost shape of a real persistent store, whose log append admits
// one writer at a time — so "N shards
// carry N log locks" is measured rather than asserted, deterministically
// and in seconds. Results are checked identical across the sharded
// planner, the sharded scan path and a single consolidated store before
// anything is timed.

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"preserv/internal/core"
	"preserv/internal/experiment"
	"preserv/internal/ids"
	"preserv/internal/ontology"
	"preserv/internal/prep"
	"preserv/internal/shard"
	"preserv/internal/store"
)

// serialWriteBackend wraps a backend with a serialized per-write-op
// latency: every Put/PutBatch/DeleteBatch holds one lock for `delay`,
// the way a store's single append log admits one writer at a time.
// Reads stay free — the sweep models write-side scaling.
type serialWriteBackend struct {
	store.Backend
	mu    sync.Mutex
	delay time.Duration
}

func (b *serialWriteBackend) occupy() {
	b.mu.Lock()
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.mu.Unlock()
}

func (b *serialWriteBackend) Put(key string, value []byte) error {
	b.occupy()
	return b.Backend.Put(key, value)
}

func (b *serialWriteBackend) PutBatch(kvs []store.KV) error {
	if len(kvs) > 0 {
		b.occupy()
	}
	return b.Backend.PutBatch(kvs)
}

func (b *serialWriteBackend) DeleteBatch(keys []string) error {
	if len(keys) > 0 {
		b.occupy()
	}
	return b.Backend.DeleteBatch(keys)
}

// ShardSweepOptions configures RunShardSweep.
type ShardSweepOptions struct {
	// ShardCounts are the topology sizes to sweep (default 1, 2, 4).
	ShardCounts []int
	// Sessions is how many distinct workflow sessions the workload
	// spans (the affinity hash spreads sessions over shards, so more
	// sessions mean a smoother balance). Default 24.
	Sessions int
	// RecordsPerSession sizes each session (default 24).
	RecordsPerSession int
	// Writers is how many goroutines ingest concurrently (default 8).
	Writers int
	// BatchSize is records per Record call (default 50).
	BatchSize int
	// WriteLatency is the modelled serialized per-write-op store
	// latency (0 means the 300µs default; NEGATIVE disables the model
	// and measures raw in-process speed, which a single striped-lock
	// store already parallelises — the scaling then shows only on the
	// modelled cost).
	WriteLatency time.Duration
	// PageReps is how many first-page reads are averaged (default 20).
	PageReps int
	// Seed varies the generated workload identifiers.
	Seed int64
}

func (o ShardSweepOptions) withDefaults() ShardSweepOptions {
	if len(o.ShardCounts) == 0 {
		o.ShardCounts = []int{1, 2, 4}
	}
	if o.Sessions <= 0 {
		o.Sessions = 24
	}
	if o.RecordsPerSession <= 0 {
		o.RecordsPerSession = 24
	}
	if o.Writers <= 0 {
		o.Writers = 8
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 50
	}
	if o.WriteLatency == 0 {
		o.WriteLatency = 300 * time.Microsecond
	}
	if o.WriteLatency < 0 {
		o.WriteLatency = 0
	}
	if o.PageReps <= 0 {
		o.PageReps = 20
	}
	return o
}

// ShardPoint is one measured topology size.
type ShardPoint struct {
	Shards        int
	Records       int
	IngestSeconds float64
	RecordsPerSec float64
	// Speedup is this point's ingest throughput over the first
	// (smallest) topology's.
	Speedup float64
	// FirstPageMillis is the mean session-scoped first-page latency
	// through the router.
	FirstPageMillis float64
}

// shardWorkload pre-generates the session batches once per sweep.
type shardWorkload struct {
	sessions []ids.ID
	batches  [][]core.Record
	records  int
}

func generateShardWorkload(o ShardSweepOptions) *shardWorkload {
	w := &shardWorkload{}
	for i := 0; i < o.Sessions; i++ {
		src := &ids.SeqSource{Prefix: uint64(o.Seed+int64(i))&0xFFFF | 0x5A0000 | uint64(i)<<24}
		p := &populator{ids: src, session: src.NewID()}
		encoded := p.value(ontology.TypeGroupEncoded)
		for len(p.batch) < o.RecordsPerSession {
			p.permutationUnit(encoded)
		}
		recs := p.batch[:o.RecordsPerSession]
		w.sessions = append(w.sessions, p.session)
		w.records += len(recs)
		w.batches = slices.AppendSeq(w.batches, slices.Chunk(recs, o.BatchSize))
	}
	return w
}

// buildRouter assembles n local shards over latency-modelled memory
// backends.
func buildShardRouter(n int, delay time.Duration) (*shard.Router, error) {
	children := make([]shard.Shard, n)
	for i := range children {
		children[i] = shard.NewLocal(store.New(&serialWriteBackend{
			Backend: store.NewMemoryBackend(),
			delay:   delay,
		}))
	}
	return shard.NewRouter(children...)
}

// RunShardSweep measures ingest throughput and first-page latency
// across shard counts, every shard count once per interleaved round,
// and verifies sharded answers against a single consolidated store
// before timing reads. The claim is about waiting on the modelled store
// writes, so a point holds the median wall-clock ingest time and
// first-page latency.
func RunShardSweep(opts ShardSweepOptions, progress io.Writer) ([]ShardPoint, error) {
	o := opts.withDefaults()
	w := generateShardWorkload(o)

	// Reference store: every record in one unsharded memory store.
	ref := store.New(store.NewMemoryBackend())
	for _, b := range w.batches {
		if acc, rejects, err := ref.Record(experiment.SvcEnactor, b); err != nil || len(rejects) > 0 || acc != len(b) {
			return nil, fmt.Errorf("bench: shard sweep reference ingest: accepted %d/%d, rejects %d, err %v",
				acc, len(b), len(rejects), err)
		}
	}

	medians, err := interleave(rounds, len(o.ShardCounts), func(i int) ([]float64, error) {
		n := o.ShardCounts[i]
		rt, err := buildShardRouter(n, o.WriteLatency)
		if err != nil {
			return nil, err
		}
		defer rt.Close()

		// Ingest: writers drain a shared batch queue through the router.
		queue := make(chan []core.Record, len(w.batches))
		for _, b := range w.batches {
			queue <- b
		}
		close(queue)
		errs := make([]error, o.Writers)
		var wg sync.WaitGroup
		start := time.Now()
		for wi := 0; wi < o.Writers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				for b := range queue {
					acc, rejects, err := rt.Record(experiment.SvcEnactor, b)
					if err != nil {
						errs[wi] = err
						return
					}
					if acc != len(b) || len(rejects) > 0 {
						errs[wi] = fmt.Errorf("accepted %d/%d, %d rejects", acc, len(b), len(rejects))
						return
					}
				}
			}(wi)
		}
		wg.Wait()
		ingest := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("bench: shard sweep n=%d ingest: %w", n, err)
			}
		}

		// Correctness gate: the sharded planner, the sharded scan path
		// and the consolidated store must agree before timing reads.
		if err := checkShardEquivalence(rt, ref, w.sessions); err != nil {
			return nil, fmt.Errorf("bench: shard sweep n=%d: %w", n, err)
		}

		// First-page latency: session-scoped page of 16 via the router.
		var pageTotal time.Duration
		for rep := 0; rep < o.PageReps; rep++ {
			sid := w.sessions[rep%len(w.sessions)]
			t0 := time.Now()
			if _, _, _, _, err := rt.QueryPage(&prep.Query{SessionID: sid}, "", 16); err != nil {
				return nil, fmt.Errorf("bench: shard sweep n=%d first page: %w", n, err)
			}
			pageTotal += time.Since(t0)
		}
		return []float64{ingest.Seconds(), pageTotal.Seconds() * 1000 / float64(o.PageReps)}, nil
	})
	if err != nil {
		return nil, err
	}

	points := make([]ShardPoint, len(o.ShardCounts))
	for i, n := range o.ShardCounts {
		ingest := medians[i][0]
		p := ShardPoint{
			Shards:          n,
			Records:         w.records,
			IngestSeconds:   ingest,
			RecordsPerSec:   float64(w.records) / ingest,
			Speedup:         medians[0][0] / ingest,
			FirstPageMillis: medians[i][1],
		}
		points[i] = p
		if progress != nil {
			fmt.Fprintf(progress, "shard n=%-3d ingest=%7.0f records/s (%.2fs) speedup=%.2fx firstPage=%.2fms\n",
				p.Shards, p.RecordsPerSec, p.IngestSeconds, p.Speedup, p.FirstPageMillis)
		}
	}
	return points, nil
}

// checkShardEquivalence asserts router answers equal the consolidated
// reference store's for a sweep of predicates.
func checkShardEquivalence(rt *shard.Router, ref *store.Store, sessions []ids.ID) error {
	queries := []*prep.Query{
		{},
		{Asserter: experiment.SvcEnactor},
		{Kind: core.KindInteraction.String(), Limit: 10},
	}
	probe := len(sessions)
	if probe > 3 {
		probe = 3
	}
	for _, sid := range sessions[:probe] {
		queries = append(queries, &prep.Query{SessionID: sid},
			// GroupID and Asserter are residual: checked on the service's
			// or the session's postings, with a Limit below the matches.
			&prep.Query{GroupID: sid, Service: experiment.SvcMeasure, Limit: 1},
			&prep.Query{Asserter: experiment.SvcEnactor, SessionID: sid, Limit: 2})
	}
	for qi, q := range queries {
		want, wantTotal, err := ref.Query(q)
		if err != nil {
			return err
		}
		got, gotTotal, _, err := rt.QueryPlanned(q)
		if err != nil {
			return err
		}
		if err := equalRecordSets(want, wantTotal, got, gotTotal); err != nil {
			return fmt.Errorf("query %d planner vs reference: %w", qi, err)
		}
		scan, scanTotal, err := rt.Query(q)
		if err != nil {
			return err
		}
		if err := equalRecordSets(want, wantTotal, scan, scanTotal); err != nil {
			return fmt.Errorf("query %d sharded scan vs reference: %w", qi, err)
		}
	}
	return nil
}

// equalRecordSets compares two result slices by storage key and count.
func equalRecordSets(want []core.Record, wantTotal int, got []core.Record, gotTotal int) error {
	if wantTotal != gotTotal || len(want) != len(got) {
		return fmt.Errorf("got %d/%d records, want %d/%d", len(got), gotTotal, len(want), wantTotal)
	}
	for i := range want {
		if want[i].StorageKey() != got[i].StorageKey() {
			return fmt.Errorf("record %d is %s, want %s", i, got[i].StorageKey(), want[i].StorageKey())
		}
	}
	return nil
}

// RenderShardSweep writes the sweep table.
func RenderShardSweep(w io.Writer, points []ShardPoint) {
	fmt.Fprintf(w, "shard scaling: ingest + first-page latency vs shard count (modelled serialized store writes)\n")
	fmt.Fprintf(w, "%-8s %10s %12s %10s %14s\n", "shards", "records", "records/s", "speedup", "firstPage(ms)")
	for _, p := range points {
		fmt.Fprintf(w, "%-8d %10d %12.0f %9.2fx %14.2f\n", p.Shards, p.Records, p.RecordsPerSec, p.Speedup, p.FirstPageMillis)
	}
}
