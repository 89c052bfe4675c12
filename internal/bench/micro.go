package bench

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"preserv/internal/core"
	"preserv/internal/experiment"
	"preserv/internal/grid"
	"preserv/internal/ids"
	"preserv/internal/ontology"
	"preserv/internal/preserv"
	"preserv/internal/stats"
	"preserv/internal/store"
	"preserv/internal/workflow"
)

// E1Result reports the record round-trip microbenchmark (the paper: "it
// takes approximately 18 ms round trip to record one pre-generated
// message in PReServ", client and server on one host).
type E1Result struct {
	Iterations int
	MeanMillis float64
	P50Millis  float64
	P95Millis  float64
}

// RunE1 records pre-generated single-record messages over loopback HTTP
// and reports the latency distribution.
func RunE1(iterations int, backend store.Backend) (*E1Result, error) {
	if iterations <= 0 {
		iterations = 200
	}
	if backend == nil {
		backend = store.NewMemoryBackend()
	}
	svc := preserv.NewService(store.New(backend))
	srv, err := preserv.Serve(svc, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	client := preserv.NewClient(srv.URL, nil)

	src := &ids.SeqSource{Prefix: 0xE1}
	session := src.NewID()
	// Pre-generate all messages so only the round trip is measured.
	records := make([]core.Record, iterations)
	for i := range records {
		interaction := core.Interaction{
			ID:        src.NewID(),
			Sender:    experiment.SvcEnactor,
			Receiver:  "svc:gzip",
			Operation: "compress",
		}
		records[i] = workflow.NewExchangeRecord(interaction, experiment.SvcEnactor, session, uint64(i+1),
			map[string]workflow.Value{"sample": {DataID: src.NewID(), SemanticType: ontology.TypeGroupEncoded, Content: []byte("HPCNHPCN")}},
			map[string]workflow.Value{"compressed": {DataID: src.NewID(), SemanticType: ontology.TypeCompressed, Content: []byte{1, 2, 3}}},
			64)
	}

	millis := make([]float64, 0, iterations)
	for i := range records {
		start := time.Now()
		resp, err := client.Record(experiment.SvcEnactor, records[i:i+1])
		if err != nil {
			return nil, err
		}
		if resp.Accepted != 1 {
			return nil, fmt.Errorf("bench: E1 record rejected: %+v", resp)
		}
		millis = append(millis, float64(time.Since(start).Microseconds())/1000)
	}
	sorted := slices.Sorted(slices.Values(millis))
	return &E1Result{
		Iterations: iterations,
		MeanMillis: stats.Mean(millis),
		P50Millis:  sorted[len(sorted)/2],
		P95Millis:  sorted[len(sorted)*95/100],
	}, nil
}

// RenderE1 writes the E1 result.
func RenderE1(w io.Writer, r *E1Result, backendName string) {
	fmt.Fprintf(w, "E1: record round trip over loopback HTTP (%s backend, %d iterations)\n",
		backendName, r.Iterations)
	fmt.Fprintf(w, "mean %.3f ms, p50 %.3f ms, p95 %.3f ms (paper: ~18 ms on 2005 hardware)\n",
		r.MeanMillis, r.P50Millis, r.P95Millis)
}

// GranPoint is one point of the E7 granularity ablation: how batch size
// (permutations per grid script) trades grid overhead against recording
// overhead.
type GranPoint struct {
	BatchSize        int
	Seconds          float64
	GridOverheadFrac float64
}

// GranOptions parameterises E7.
type GranOptions struct {
	SampleBytes     int
	Permutations    int
	BatchSizes      []int
	Slots           int
	SchedulingDelay time.Duration
	Seed            int64
}

func (o *GranOptions) withDefaults() GranOptions {
	out := *o
	if out.SampleBytes <= 0 {
		out.SampleBytes = 8 << 10
	}
	if out.Permutations <= 0 {
		out.Permutations = 40
	}
	if len(out.BatchSizes) == 0 {
		out.BatchSizes = []int{1, 2, 5, 10, 20, 40}
	}
	if out.Slots <= 0 {
		out.Slots = 4
	}
	if out.SchedulingDelay <= 0 {
		out.SchedulingDelay = 20 * time.Millisecond
	}
	return out
}

// RunGranularity executes the E7 sweep with asynchronous recording,
// every batch size once per interleaved round. Its claim is about
// waiting on the simulated grid, so a point holds the median wall time
// and the median grid-overhead fraction.
func RunGranularity(opts GranOptions, progress io.Writer) ([]GranPoint, error) {
	o := opts.withDefaults()
	medians, err := interleave(rounds, len(o.BatchSizes), func(i int) ([]float64, error) {
		srv, err := preserv.Serve(preserv.NewService(store.New(store.NewMemoryBackend())), "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		cluster, err := grid.NewCluster(o.Slots, o.SchedulingDelay, 0)
		if err != nil {
			return nil, err
		}
		res, err := experiment.Run(experiment.Params{
			SampleBytes:  o.SampleBytes,
			Permutations: o.Permutations,
			BatchSize:    o.BatchSizes[i],
			Seed:         o.Seed,
		}, experiment.Config{
			Mode:      experiment.RecordAsync,
			StoreURLs: []string{srv.URL},
			Cluster:   cluster,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: granularity batch=%d: %w", o.BatchSizes[i], err)
		}
		return []float64{res.Elapsed.Seconds(), cluster.Stats().OverheadFraction()}, nil
	})
	if err != nil {
		return nil, err
	}
	points := make([]GranPoint, len(o.BatchSizes))
	for i, batch := range o.BatchSizes {
		p := GranPoint{BatchSize: batch, Seconds: medians[i][0], GridOverheadFrac: medians[i][1]}
		points[i] = p
		if progress != nil {
			fmt.Fprintf(progress, "gran batch=%-4d %8.3fs gridOverhead=%.1f%%\n",
				p.BatchSize, p.Seconds, 100*p.GridOverheadFrac)
		}
	}
	return points, nil
}

// RenderGranularity writes the E7 table.
func RenderGranularity(w io.Writer, points []GranPoint) {
	fmt.Fprintf(w, "E7: activity granularity ablation (async recording, wall clock, median of %d rounds)\n", rounds)
	fmt.Fprintf(w, "%-12s %12s %18s\n", "batchSize", "seconds", "gridOverheadFrac")
	for _, p := range points {
		fmt.Fprintf(w, "%-12d %12.3f %18.3f\n", p.BatchSize, p.Seconds, p.GridOverheadFrac)
	}
}

// DistPoint is one point of E8: submission time for a fixed batch of
// p-assertions against S parallel store instances (the paper's
// future-work distributed PReServ, motivated by the store becoming "a
// bottleneck when handling p-assertion submission requests").
type DistPoint struct {
	Stores      int
	ShipSeconds float64
	Records     int
	// Speedup is ship time at 1 store divided by ship time here.
	Speedup float64
}

// DistOptions parameterises E8.
type DistOptions struct {
	// Records is the number of p-assertions to submit.
	Records int
	// Batch is the records-per-request batch size.
	Batch int
	// StoreCounts are the store instance counts to sweep.
	StoreCounts []int
	Seed        int64
	// Backend selects the store backend: "memory" (default) or "kvdb".
	Backend string
	// PutLatency models the store's per-record write cost (the paper's
	// Berkeley DB backend on 2005 hardware paid milliseconds per record;
	// this latency is what makes a single store the submission
	// bottleneck that distributed PReServ addresses). Zero keeps the raw
	// backend, in which case the sweep only shows speedup on multi-core
	// hosts.
	PutLatency time.Duration
}

func (o *DistOptions) withDefaults() DistOptions {
	out := *o
	if out.Records <= 0 {
		out.Records = 1200
	}
	if out.Batch <= 0 {
		out.Batch = 25
	}
	if len(out.StoreCounts) == 0 {
		out.StoreCounts = []int{1, 2, 4, 8}
	}
	if out.Backend == "" {
		out.Backend = "memory"
	}
	if out.PutLatency == 0 {
		out.PutLatency = 200 * time.Microsecond
	}
	return out
}

// delayBackend injects a per-record write latency over a real backend.
type delayBackend struct {
	store.Backend
	delay time.Duration
}

// Put implements store.Backend with the modelled write cost.
func (d delayBackend) Put(key string, value []byte) error {
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	return d.Backend.Put(key, value)
}

// PutBatch implements store.Backend. The modelled latency is per write
// operation, not per pair — a batch is one operation, which is exactly
// the saving the batched write path buys on a slow store.
func (d delayBackend) PutBatch(kvs []store.KV) error {
	if d.delay > 0 && len(kvs) > 0 {
		time.Sleep(d.delay)
	}
	return d.Backend.PutBatch(kvs)
}

// newBackend opens one store's backend. A kvdb backend lives in a
// directory of its own, dir, which the caller removes once the backend
// is closed.
func (o *DistOptions) newBackend() (b store.Backend, dir string, err error) {
	if o.Backend == "kvdb" {
		if dir, err = os.MkdirTemp("", "preserv-e8"); err != nil {
			return nil, "", err
		}
		if b, err = store.NewKVBackend(dir); err != nil {
			os.RemoveAll(dir)
			return nil, "", err
		}
	} else {
		b = store.NewMemoryBackend()
	}
	if o.PutLatency >= 0 {
		b = delayBackend{Backend: b, delay: o.PutLatency}
	}
	return b, dir, nil
}

// RunDistributed executes the E8 sweep: a pre-generated record set is
// shipped in batches striped round-robin over S stores, one shipping
// goroutine per store — the submission pattern of client.AsyncRecorder
// with the journal-decode cost factored out so the store-side bottleneck
// is what the sweep measures.
func RunDistributed(opts DistOptions, progress io.Writer) ([]DistPoint, error) {
	o := opts.withDefaults()

	// Pre-generate measure-workflow-shaped records once.
	src := &ids.SeqSource{Prefix: uint64(o.Seed)&0xFFFF | 0xE8000}
	gen := &populator{ids: src, session: src.NewID()}
	encoded := gen.value(ontology.TypeGroupEncoded)
	for len(gen.batch) < o.Records {
		gen.permutationUnit(encoded)
	}
	records := gen.batch[:o.Records]

	var points []DistPoint
	var baseline float64
	for _, n := range o.StoreCounts {
		elapsed, err := o.ship(records, n)
		if err != nil {
			return nil, fmt.Errorf("bench: distributed n=%d: %w", n, err)
		}
		if n == o.StoreCounts[0] {
			baseline = elapsed
		}
		p := DistPoint{Stores: n, ShipSeconds: elapsed, Records: len(records)}
		if elapsed > 0 {
			p.Speedup = baseline / elapsed
		}
		points = append(points, p)
		if progress != nil {
			fmt.Fprintf(progress, "dist stores=%-3d ship=%8.3fs speedup=%.2fx records=%d\n",
				p.Stores, p.ShipSeconds, p.Speedup, p.Records)
		}
	}
	return points, nil
}

// ship is one point of the sweep: records striped over n fresh stores,
// and the seconds their shipping took. Every server and store it starts
// is closed, and every directory removed, before it returns.
func (o *DistOptions) ship(records []core.Record, n int) (float64, error) {
	var clients []*preserv.Client
	var cleanup []func() error
	defer func() {
		for _, f := range slices.Backward(cleanup) {
			f()
		}
	}()
	for i := 0; i < n; i++ {
		backend, dir, err := o.newBackend()
		if err != nil {
			return 0, err
		}
		if dir != "" {
			cleanup = append(cleanup, func() error { return os.RemoveAll(dir) })
		}
		st := store.New(backend)
		cleanup = append(cleanup, st.Close)
		srv, err := preserv.Serve(preserv.NewService(st), "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		cleanup = append(cleanup, srv.Close)
		clients = append(clients, preserv.NewClient(srv.URL, nil))
	}

	// Stripe batches over the stores, one goroutine per store.
	perStore := make([][][]core.Record, n)
	next := 0
	for b := range slices.Chunk(records, o.Batch) {
		perStore[next%n] = append(perStore[next%n], b)
		next++
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for _, b := range perStore[ci] {
				if _, err := clients[ci].Record(experiment.SvcEnactor, b); err != nil {
					errs[ci] = err
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	return time.Since(start).Seconds(), errors.Join(errs...)
}

// RenderDistributed writes the E8 table.
func RenderDistributed(w io.Writer, points []DistPoint) {
	fmt.Fprintf(w, "E8: p-assertion submission time vs parallel store instances\n")
	fmt.Fprintf(w, "%-8s %14s %10s %10s\n", "stores", "shipSeconds", "records", "speedup")
	for _, p := range points {
		fmt.Fprintf(w, "%-8d %14.3f %10d %9.2fx\n", p.Stores, p.ShipSeconds, p.Records, p.Speedup)
	}
}
