package bench

import (
	"io"
	"path/filepath"
	"strings"
	"testing"

	"preserv/internal/experiment"
	"preserv/internal/preserv"
	"preserv/internal/store"
)

// Tiny configurations keep the harness tests fast while exercising the
// full code paths; the shape assertions run on the scaled-down sweeps.

func tinyFig4() Fig4Options {
	return Fig4Options{
		SampleBytes: 1024,
		PermSteps:   []int{2, 4, 6},
		BatchSize:   2,
		Seed:        3,
	}
}

func TestRunFigure4ProducesAllSeries(t *testing.T) {
	points, err := RunFigure4(tinyFig4(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(Fig4Modes)*3 {
		t.Fatalf("got %d points, want %d", len(points), len(Fig4Modes)*3)
	}
	for _, mode := range Fig4Modes {
		xs, ys := Fig4Series(points, mode)
		if len(xs) != 3 || len(ys) != 3 {
			t.Errorf("mode %s series incomplete", mode)
		}
		for _, y := range ys {
			if y <= 0 {
				t.Errorf("mode %s has non-positive time", mode)
			}
		}
	}
	// Recording modes must create records; the baseline none.
	for _, p := range points {
		if p.Mode == experiment.RecordOff && p.Records != 0 {
			t.Errorf("no-recording created %d records", p.Records)
		}
		if p.Mode != experiment.RecordOff && p.Records == 0 {
			t.Errorf("%s created no records", p.Mode)
		}
	}
}

func TestSummarizeFig4(t *testing.T) {
	points, err := RunFigure4(tinyFig4(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := SummarizeFig4(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Fits) != 4 {
		t.Errorf("fits = %d", len(sum.Fits))
	}
	if len(sum.AsyncOverhead) != 3 {
		t.Errorf("async overhead points = %d", len(sum.AsyncOverhead))
	}
	var sb strings.Builder
	RenderFig4(&sb, points, sum)
	out := sb.String()
	for _, want := range []string{"Figure 4", "sync+extra", "async overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigure5ShapeAndRender(t *testing.T) {
	points, err := RunFigure5(Fig5Options{RecordSteps: []int{30, 60, 90}}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for i, p := range points {
		if p.Interactions == 0 || p.CompareMillis <= 0 || p.SemvalMillis <= 0 {
			t.Errorf("point %d = %+v", i, p)
		}
		// Semantic validation is the more expensive use case.
		if p.SemvalMillis <= p.CompareMillis {
			t.Errorf("point %d: semval %.2fms <= compare %.2fms", i, p.SemvalMillis, p.CompareMillis)
		}
		if p.RegistryCallsPerInteraction < 3 {
			t.Errorf("point %d: registry calls/interaction = %.1f", i, p.RegistryCallsPerInteraction)
		}
	}
	sum, err := SummarizeFig5(points)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SlopeRatio <= 1 {
		t.Errorf("slope ratio = %.2f, semval must be steeper", sum.SlopeRatio)
	}
	var sb strings.Builder
	RenderFig5(&sb, points, sum)
	if !strings.Contains(sb.String(), "slope ratio") {
		t.Error("render missing summary")
	}
}

func TestPopulateShapesAreValid(t *testing.T) {
	svc := preserv.NewService(store.New(store.NewMemoryBackend()))
	srv, err := preserv.Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := preserv.NewClient(srv.URL, nil)
	session, err := Populate(client, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !session.Valid() {
		t.Error("invalid session")
	}
	cnt, err := client.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Interactions != 60 {
		t.Errorf("interactions = %d, want 60", cnt.Interactions)
	}
	// Populate pairs every interaction with a script actor state.
	if cnt.ActorStates != 60 {
		t.Errorf("actor states = %d, want 60", cnt.ActorStates)
	}
}

func TestPopulateRoundsUpToUnits(t *testing.T) {
	svc := preserv.NewService(store.New(store.NewMemoryBackend()))
	srv, err := preserv.Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := preserv.NewClient(srv.URL, nil)
	if _, err := Populate(client, 7, 1); err != nil {
		t.Fatal(err)
	}
	cnt, _ := client.Count()
	if cnt.Interactions != 12 {
		t.Errorf("interactions = %d, want 12 (two units)", cnt.Interactions)
	}
}

func TestRunE1(t *testing.T) {
	res, err := RunE1(25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 25 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	if res.MeanMillis <= 0 || res.P50Millis <= 0 || res.P95Millis < res.P50Millis {
		t.Errorf("distribution = %+v", res)
	}
	var sb strings.Builder
	RenderE1(&sb, res, "memory")
	if !strings.Contains(sb.String(), "round trip") {
		t.Error("render missing header")
	}
}

func TestRunE1KVBackend(t *testing.T) {
	kb, err := store.NewKVBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunE1(10, kb)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanMillis <= 0 {
		t.Errorf("mean = %v", res.MeanMillis)
	}
}

func TestRunGranularity(t *testing.T) {
	points, err := RunGranularity(GranOptions{
		SampleBytes:     512,
		Permutations:    8,
		BatchSizes:      []int{1, 8},
		Slots:           2,
		SchedulingDelay: 5_000_000, // 5ms
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// Coarser batching must lower the grid-overhead fraction (the
	// paper's granularity argument).
	if points[0].GridOverheadFrac <= points[1].GridOverheadFrac {
		t.Errorf("batch=1 overhead %.3f should exceed batch=8 overhead %.3f",
			points[0].GridOverheadFrac, points[1].GridOverheadFrac)
	}
	var sb strings.Builder
	RenderGranularity(&sb, points)
	if !strings.Contains(sb.String(), "granularity") {
		t.Error("render missing header")
	}
}

func TestRunDistributed(t *testing.T) {
	points, err := RunDistributed(DistOptions{
		Records:     120,
		Batch:       10,
		StoreCounts: []int{1, 2},
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Records != 120 || p.ShipSeconds <= 0 {
			t.Errorf("point = %+v", p)
		}
	}
	if points[0].Speedup != 1 {
		t.Errorf("baseline speedup = %v, want 1", points[0].Speedup)
	}
	var sb strings.Builder
	RenderDistributed(&sb, points)
	if !strings.Contains(sb.String(), "E8") {
		t.Error("render missing header")
	}
}

// The kvdb sweep closes every store it opens and removes its directory.
func TestRunDistributedKVDB(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	points, err := RunDistributed(DistOptions{
		Records:     60,
		Batch:       10,
		StoreCounts: []int{1},
		Backend:     "kvdb",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].ShipSeconds <= 0 {
		t.Fatalf("points = %+v", points)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "preserv-e8*")); len(left) > 0 {
		t.Errorf("the sweep left %v behind", left)
	}
}

func TestFigure4ShapeLinearity(t *testing.T) {
	// E3: the Figure 4 series must be close to linear in permutation
	// count. With tiny workloads noise is real, so the bar is r > 0.9
	// (the paper, with seconds-long points, reports > 0.99).
	if testing.Short() {
		t.Skip("linearity check needs the larger sweep")
	}
	points, err := RunFigure4(Fig4Options{
		SampleBytes: 4096,
		PermSteps:   []int{5, 10, 15, 20, 25, 30},
		BatchSize:   5,
		Seed:        11,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := SummarizeFig4(points)
	if err != nil {
		t.Fatal(err)
	}
	for mode, fit := range sum.Fits {
		if fit.R < 0.9 {
			t.Errorf("mode %s: r = %.4f, want > 0.9 (%s)", mode, fit.R, fit)
		}
	}
}
