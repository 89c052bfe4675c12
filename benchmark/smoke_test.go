package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// smokeConfig runs a workload at about 1/100 scale.
func smokeConfig(t *testing.T, traced bool) config {
	cfg := config{seed: 7, dir: t.TempDir(), baseMul: 0.01, opsMul: 0.01, setups: 1, rounds: 2, traced: traced}
	if traced {
		cfg.traceOut = filepath.Join(cfg.dir, "spans.jsonl")
	}
	return cfg
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics asserts that rep carries exactly the metrics of its
// kind, each finite and non-negative (end-to-end metrics strictly
// positive: the driver rejects a zero).
func checkMetrics(t *testing.T, rep *report) {
	t.Helper()
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("%d of %d operations failed: %v", rep.Failed, rep.Attempted, rep.Failures)
	}
	for _, m := range rep.reported() {
		v, ok := rep.Metrics[m.Name]
		switch {
		case !metricName.MatchString(m.Name):
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		case !ok:
			t.Errorf("%s not emitted", m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0) || v < 0:
			t.Errorf("%s = %v", m.Name, v)
		case !rep.Traced && v == 0:
			t.Errorf("%s = 0", m.Name)
		}
	}
	if len(rep.Metrics) != len(rep.reported()) {
		t.Errorf("%d metrics emitted, %d declared", len(rep.Metrics), len(rep.reported()))
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := runEndToEnd(w, smokeConfig(t, false))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rep)
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := smokeConfig(t, true)
			rep, err := runTraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rep)
			m := rep.Metrics
			if w.Topo == topoSingle && (m["shard.route_self_us"] != 0 || m["shard.fanout_width"] != 0 || m["shard.query_child_self_us"] != 0) {
				t.Errorf("single store reports shard metrics: route %v, fanout %v, child %v",
					m["shard.route_self_us"], m["shard.fanout_width"], m["shard.query_child_self_us"])
			}
			if w.Topo != topoSingle && m["shard.fanout_width"] == 0 {
				t.Error("sharded topology reports no fan-out")
			}
			if r := m["trace.selfsum_ratio"]; r < 0.95 || r > 1.05 {
				t.Errorf("self times sum to %.3f of the client.call durations", r)
			}
			checkSpans(t, cfg.traceOut)
		})
	}
}

// checkSpans asserts that the spans nest: every child interval lies
// inside its parent's, a tree shares one sequence number, and every
// sequence number has exactly one root.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[uint64]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatal(err)
		}
		byID[sp.ID] = sp
	}
	if len(byID) == 0 {
		t.Fatal("no spans written")
	}
	roots := map[uint64]int{}
	layers := map[string]bool{}
	for _, sp := range byID {
		layers[sp.Name] = true
		if sp.End < sp.Start {
			t.Errorf("span %d ends before it starts", sp.ID)
		}
		if sp.Name == spanClient {
			roots[sp.Seq]++
			continue
		}
		if sp.Seq == 0 {
			continue // not part of a traced request (async shipping, stats polls)
		}
		p, ok := byID[sp.Parent]
		if !ok {
			t.Errorf("%s span %d of request %d has no parent span", sp.Name, sp.ID, sp.Seq)
			continue
		}
		if p.Seq != sp.Seq {
			t.Errorf("span %d is in request %d, its parent in %d", sp.ID, sp.Seq, p.Seq)
		}
		if sp.Start < p.Start || sp.End > p.End {
			t.Errorf("%s span %d [%d,%d] leaves its %s parent [%d,%d]", sp.Name, sp.ID, sp.Start, sp.End, p.Name, p.Start, p.End)
		}
	}
	for seq, n := range roots {
		if seq == 0 || n != 1 {
			t.Errorf("sequence number %d has %d client.call spans", seq, n)
		}
	}
	for _, name := range []string{spanClient, spanTransport, spanHandle, spanBackend} {
		if !layers[name] {
			t.Errorf("no %s span recorded", name)
		}
	}
}

// A falsified prediction must fail the run: the oracle is not
// decoration.
func TestCorruptOracleFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	corruptOracle = true
	defer func() { corruptOracle = false }()
	rep, err := runEndToEnd(workloads[0], smokeConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.line().Correct {
		t.Fatalf("a corrupted expected record went unnoticed (%d failed of %d)", rep.Failed, rep.Attempted)
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, program calibrated to %d", doc.RunSeconds, refSeconds)
	}
	var gotW, wantW [][2]string
	for _, w := range doc.Workloads {
		gotW = append(gotW, [2]string{w.Name, w.Why})
	}
	for _, w := range workloads {
		wantW = append(wantW, [2]string{w.Name, w.Why})
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("workloads differ:\n json    %v\n program %v", gotW, wantW)
	}
	var gotE, gotP []metric
	for _, m := range doc.EndToEnd {
		gotE = append(gotE, metric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range doc.PerLayer {
		gotP = append(gotP, metric{m.Name, m.Unit, m.Better, 0})
	}
	if !reflect.DeepEqual(gotE, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %v\n program %v", gotE, endToEnd)
	}
	if !reflect.DeepEqual(gotP, perLayer) {
		t.Errorf("per_layer differs:\n json    %v\n program %v", gotP, perLayer)
	}
}

// The same seed must generate the same records.
func TestGeneratorDeterministic(t *testing.T) {
	a, b := newGenerator(3), newGenerator(3)
	sa, sb := a.newSession(4), b.newSession(4)
	ra, rb := sessionRecords(sa), sessionRecords(sb)
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("two generators with one seed disagree")
	}
	if c := sessionRecords(newGenerator(4).newSession(4)); reflect.DeepEqual(ra, c) {
		t.Fatal("different seeds generate the same records")
	}
	for u := range sa.units {
		for _, r := range unitRecords(sa, u) {
			if err := r.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{"x_ms", "ms", "lower", 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{10, 14, 7, 12, 8, 13, 9, 15, 6, 10}
	for _, c := range []struct {
		name     string
		old, new []float64
		want     string
	}{
		{"same", steady, steady, "same"},
		{"regression", steady, scale(steady, 1.2), "REGRESSION"},
		{"gain", steady, scale(steady, 0.8), "gain"},
		{"within bound", steady, scale(steady, 1.05), "same"},
		{"spread wider than bound", noisy, noisy, "unresolved"},
	} {
		if got := verdict(lower, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	higher := metric{"x_rps", "1/s", "higher", 0.10}
	if got := verdict(higher, steady, scale(steady, 0.8)); got != "REGRESSION" {
		t.Errorf("throughput down 20%%: verdict %q", got)
	}
}
