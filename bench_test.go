// Package preserv_test holds the top-level benchmark suite: one
// testing.B benchmark per evaluation artefact of the paper (DESIGN.md
// experiment index E1-E8), plus shape tests asserting the qualitative
// claims. Scaled-down workloads keep `go test -bench=.` in seconds;
// cmd/benchfig -paper runs the full-scale sweeps.
package preserv_test

import (
	"io"
	"testing"

	"preserv/internal/bench"
	"preserv/internal/bio"
	"preserv/internal/compress"
	"preserv/internal/core"
	"preserv/internal/experiment"
	"preserv/internal/grid"
	"preserv/internal/ids"
	"preserv/internal/ontology"
	"preserv/internal/preserv"
	"preserv/internal/store"
	"preserv/internal/workflow"

	"preserv/internal/compare"
	"preserv/internal/registry"
	"preserv/internal/semval"
)

// --- E1: record round trip (§6 text: ≈18 ms on 2005 hardware) ---

func benchRecordRoundTrip(b *testing.B, backend store.Backend) {
	svc := preserv.NewService(store.New(backend))
	srv, err := preserv.Serve(svc, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := preserv.NewClient(srv.URL, nil)
	src := &ids.SeqSource{Prefix: 0xB1}
	session := src.NewID()

	records := make([]core.Record, b.N)
	for i := range records {
		interaction := core.Interaction{
			ID: src.NewID(), Sender: experiment.SvcEnactor, Receiver: "svc:gzip", Operation: "compress",
		}
		records[i] = workflow.NewExchangeRecord(interaction, experiment.SvcEnactor, session, uint64(i+1),
			map[string]workflow.Value{"sample": {DataID: src.NewID(), SemanticType: ontology.TypeGroupEncoded, Content: []byte("HPCNHPCN")}},
			map[string]workflow.Value{"compressed": {DataID: src.NewID(), SemanticType: ontology.TypeCompressed, Content: []byte{1, 2, 3}}},
			64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Record(experiment.SvcEnactor, records[i:i+1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1RecordRoundTripMemory(b *testing.B) {
	benchRecordRoundTrip(b, store.NewMemoryBackend())
}

func BenchmarkE1RecordRoundTripKVDB(b *testing.B) {
	kb, err := store.NewKVBackend(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	benchRecordRoundTrip(b, kb)
}

// --- E2: Figure 4 — one benchmark per recording configuration ---

func benchFig4Mode(b *testing.B, mode experiment.RecordingMode) {
	params := experiment.Params{
		SampleBytes:  4 << 10,
		Permutations: 8,
		BatchSize:    4,
		Seed:         2005,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var urls []string
		var srv *preserv.Server
		if mode != experiment.RecordOff {
			svc := preserv.NewService(store.New(store.NewMemoryBackend()))
			var err error
			srv, err = preserv.Serve(svc, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			urls = []string{srv.URL}
		}
		b.StartTimer()
		_, err := experiment.Run(params, experiment.Config{Mode: mode, StoreURLs: urls})
		b.StopTimer()
		if srv != nil {
			srv.Close()
		}
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkE2Figure4NoRecording(b *testing.B) { benchFig4Mode(b, experiment.RecordOff) }
func BenchmarkE2Figure4Async(b *testing.B)       { benchFig4Mode(b, experiment.RecordAsync) }
func BenchmarkE2Figure4Sync(b *testing.B)        { benchFig4Mode(b, experiment.RecordSync) }
func BenchmarkE2Figure4SyncExtra(b *testing.B)   { benchFig4Mode(b, experiment.RecordSyncExtra) }

// --- E4/E5: Figure 5 — use-case query time over a populated store ---

func fig5Fixture(b *testing.B, interactions int) (*preserv.Client, *registry.Client, ids.ID, func()) {
	svc := preserv.NewService(store.New(store.NewMemoryBackend()))
	srv, err := preserv.Serve(svc, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	client := preserv.NewClient(srv.URL, nil)
	session, err := bench.Populate(client, interactions, 7)
	if err != nil {
		srv.Close()
		b.Fatal(err)
	}
	reg := registry.NewRegistry()
	rsrv, err := registry.Serve(reg, "127.0.0.1:0")
	if err != nil {
		srv.Close()
		b.Fatal(err)
	}
	regClient := registry.NewClient(rsrv.URL, nil)
	if err := experiment.PublishAll(regClient, []string{"gzip", "ppmz"}); err != nil {
		srv.Close()
		rsrv.Close()
		b.Fatal(err)
	}
	return client, regClient, session, func() { srv.Close(); rsrv.Close() }
}

func BenchmarkE4Figure5Compare(b *testing.B) {
	client, _, _, cleanup := fig5Fixture(b, 240)
	defer cleanup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&compare.Categorizer{Store: client}).Categorize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5Figure5Semval(b *testing.B) {
	client, regClient, session, cleanup := fig5Fixture(b, 240)
	defer cleanup()
	validator := &semval.Validator{Store: client, Registry: regClient, Ontology: ontology.Bioinformatics()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := validator.ValidateSession(session)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Valid() {
			b.Fatal("population should validate")
		}
	}
}

// --- E6: single-permutation workflow (§6 text: ≈4.5 s per 100 KB on
// 2005 hardware; 6 records per permutation) ---

func BenchmarkE6SinglePermutation(b *testing.B) {
	params := experiment.Params{
		SampleBytes:  100 << 10, // the paper's sample size
		Permutations: 1,
		BatchSize:    100,
		Seed:         2005,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Run(params, experiment.Config{Mode: experiment.RecordOff}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: granularity ablation ---

func benchGranularity(b *testing.B, batchSize int) {
	params := experiment.Params{
		SampleBytes:  2 << 10,
		Permutations: 8,
		BatchSize:    batchSize,
		Seed:         2005,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cluster, err := grid.NewCluster(2, 2_000_000 /* 2ms */, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := experiment.Run(params, experiment.Config{Mode: experiment.RecordOff, Cluster: cluster}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7GranularityBatch1(b *testing.B) { benchGranularity(b, 1) }
func BenchmarkE7GranularityBatch8(b *testing.B) { benchGranularity(b, 8) }

// --- E8: distributed async shipping ---

func benchDistributed(b *testing.B, stores int) {
	params := experiment.Params{
		SampleBytes:  2 << 10,
		Permutations: 12,
		BatchSize:    6,
		Seed:         2005,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var urls []string
		var servers []*preserv.Server
		for s := 0; s < stores; s++ {
			svc := preserv.NewService(store.New(store.NewMemoryBackend()))
			srv, err := preserv.Serve(svc, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			servers = append(servers, srv)
			urls = append(urls, srv.URL)
		}
		b.StartTimer()
		_, err := experiment.Run(params, experiment.Config{
			Mode: experiment.RecordAsync, StoreURLs: urls, AsyncBatch: 10,
		})
		b.StopTimer()
		for _, srv := range servers {
			srv.Close()
		}
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkE8DistributedStores1(b *testing.B) { benchDistributed(b, 1) }
func BenchmarkE8DistributedStores4(b *testing.B) { benchDistributed(b, 4) }

// --- Substrate throughput: the compressors the Measure workflow uses ---

func benchCodec(b *testing.B, name string) {
	codec, err := compress.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	g := bio.NewGenerator(2005)
	sample := g.Protein("bench", 64<<10).Residues
	encoded, err := bio.Hydropathy4().Encode(sample)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(encoded)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Compress(encoded); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecGzip(b *testing.B)  { benchCodec(b, "gzip") }
func BenchmarkCodecPPMZ(b *testing.B)  { benchCodec(b, "ppmz") }
func BenchmarkCodecBZip2(b *testing.B) { benchCodec(b, "bzip2") }

// --- Shape tests (E3 and E6 claims) ---

// TestFigure4Shape asserts Figure 4's qualitative claims on a
// scaled-down sweep. Each point is a median of process CPU times
// (bench.RunFigure4), and the assertions compare whole-sweep totals with
// tolerance: recording must cost more than not recording, asynchronous
// recording must stay the cheapest recording configuration, and every
// fit must rise. Asynchronous recording costs the experiment little
// more than not recording, so the sweep is long enough for that margin
// to outweigh the noise of the totals.
func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long")
	}
	points, err := bench.RunFigure4(bench.Fig4Options{
		SampleBytes: 2 << 10,
		PermSteps:   []int{4, 8, 12, 16, 20, 24},
		BatchSize:   4,
		Seed:        2005,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	total := func(mode experiment.RecordingMode) float64 {
		_, ys := bench.Fig4Series(points, mode)
		var s float64
		for _, y := range ys {
			s += y
		}
		return s
	}
	none := total(experiment.RecordOff)
	async := total(experiment.RecordAsync)
	syncT := total(experiment.RecordSync)
	extra := total(experiment.RecordSyncExtra)
	if async < none {
		t.Errorf("async total %.3fs below no-recording total %.3fs", async, none)
	}
	// 15%% tolerance absorbs scheduler noise on a contended host.
	if async > syncT*1.15 {
		t.Errorf("async total %.3fs well above sync total %.3fs", async, syncT)
	}
	if syncT > extra*1.25 {
		t.Errorf("sync total %.3fs well above sync+extra total %.3fs", syncT, extra)
	}
	sum, err := bench.SummarizeFig4(points)
	if err != nil {
		t.Fatal(err)
	}
	for mode, fit := range sum.Fits {
		if fit.Slope <= 0 {
			t.Errorf("mode %s has non-positive slope: %s", mode, fit)
		}
	}
}

// TestE6RecordsPerPermutation asserts the §6 count: six records per
// permutation with the paper's two compressors.
func TestE6RecordsPerPermutation(t *testing.T) {
	svc := preserv.NewService(store.New(store.NewMemoryBackend()))
	srv, err := preserv.Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	run := func(perms int) int64 {
		res, err := experiment.Run(experiment.Params{
			SampleBytes:  1 << 10,
			Permutations: perms,
			BatchSize:    4,
			Seed:         2005,
		}, experiment.Config{Mode: experiment.RecordSync, StoreURLs: []string{srv.URL}})
		if err != nil {
			t.Fatal(err)
		}
		return res.RecordsCreated
	}
	base := run(2)
	more := run(6)
	perPermutation := (more - base) / 4
	if perPermutation != 6 {
		t.Errorf("marginal records per permutation = %d, want 6", perPermutation)
	}
}

// TestFigure5SlopeRatio asserts E5's headline: the semantic-validity
// slope is a large multiple of the script-comparison slope (paper ≈11×,
// driven by ~10 registry calls per interaction vs 1 store call).
func TestFigure5SlopeRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long")
	}
	points, err := bench.RunFigure5(bench.Fig5Options{
		RecordSteps: []int{60, 120, 240, 360},
		Seed:        2005,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := bench.SummarizeFig5(points)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SlopeRatio < 2 {
		t.Errorf("semval/compare slope ratio = %.2f, want the semantic check clearly steeper", sum.SlopeRatio)
	}
	if sum.CompareFit.R < 0.9 || sum.SemvalFit.R < 0.9 {
		t.Errorf("linearity: compare r=%.3f semval r=%.3f, want > 0.9",
			sum.CompareFit.R, sum.SemvalFit.R)
	}
}
