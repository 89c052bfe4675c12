package obs

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounterHistogram hammers one counter and one histogram
// from N writers and checks exact totals — run under -race this also
// proves the instruments are data-race free.
func TestConcurrentCounterHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	h := r.Histogram("op_seconds", nil)
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Add(1)
				h.Observe(float64(i%100) * 1e-5)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	snap := h.Snapshot()
	if snap.Count != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", snap.Count, writers*perWriter)
	}
	var bucketTotal int64
	for _, c := range snap.Counts {
		bucketTotal += c
	}
	if bucketTotal != snap.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, snap.Count)
	}
	// Sum of i%100 * 1e-5 over perWriter iterations, times writers.
	var want float64
	for i := 0; i < perWriter; i++ {
		want += float64(i%100) * 1e-5
	}
	want *= writers
	if math.Abs(snap.Sum-want) > want*1e-9 {
		t.Fatalf("histogram sum = %g, want %g", snap.Sum, want)
	}
}

// TestBatchSnapshotConsistency checks the torn-read fix mechanism: a
// snapshot taken while writers update two counters in lockstep under
// Batch must always see them equal.
func TestBatchSnapshotConsistency(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a_total")
	b := r.Counter("b_total")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Batch(func() {
					a.Add(1)
					b.Add(1)
				})
			}
		}()
	}
	for i := 0; i < 200; i++ {
		snap := r.CounterSnapshot()
		if snap["a_total"] != snap["b_total"] {
			close(stop)
			wg.Wait()
			t.Fatalf("torn snapshot: a=%d b=%d", snap["a_total"], snap["b_total"])
		}
	}
	close(stop)
	wg.Wait()
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	snap := h.Snapshot()
	if p50 := snap.Quantile(0.5); p50 < 1 || p50 > 2 {
		t.Fatalf("p50 = %g, want within (1,2]", p50)
	}
	if p99 := snap.Quantile(0.99); p99 < 1 || p99 > 2 {
		t.Fatalf("p99 = %g, want within (1,2]", p99)
	}
	h.Observe(100) // overflow bucket
	if q := h.Snapshot().Quantile(1); q != 8 {
		t.Fatalf("overflow quantile = %g, want 8 (last bound)", q)
	}
	if q := (HistogramSnapshot{Bounds: []float64{1}, Counts: []int64{0, 0}}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
}

func TestSpanRingBounded(t *testing.T) {
	tr := NewTracer(8)
	tr.SetSlowThreshold(time.Nanosecond) // every span is slow
	for i := 0; i < 50; i++ {
		s := tr.StartSpan(fmt.Sprintf("op-%d", i))
		s.End(nil)
	}
	slow := tr.Slow()
	if len(slow) != 8 {
		t.Fatalf("slow log holds %d spans, want 8", len(slow))
	}
	// Oldest-first order: the survivors are ops 42..49.
	for i, s := range slow {
		if want := fmt.Sprintf("op-%d", 42+i); s.Op() != want {
			t.Fatalf("slow[%d] = %s, want %s", i, s.Op(), want)
		}
	}
	tr.SetSlowThreshold(0)
	tr.StartSpan("uncaptured").End(nil)
	if got := tr.Slow(); got[len(got)-1].Op() != "op-49" {
		t.Fatalf("a span ended with capture disabled reached the slow log")
	}
}

func TestSlowLogCapture(t *testing.T) {
	tr := NewTracer(4)
	tr.SetSlowThreshold(5 * time.Millisecond)
	fast := tr.StartSpan("fast")
	fast.End(nil)
	slow := tr.StartSpan("slow").SetAttr("strategy", "scan")
	time.Sleep(10 * time.Millisecond)
	slow.End(errors.New("deadline"))
	got := tr.Slow()
	if len(got) != 1 {
		t.Fatalf("slow log has %d spans, want 1", len(got))
	}
	s := got[0]
	if s.Op() != "slow" || s.Err() != "deadline" {
		t.Fatalf("slow span = %s err=%q", s.Op(), s.Err())
	}
	if len(s.Attrs()) != 1 || s.Attrs()[0].Key != "strategy" || s.Attrs()[0].Value != "scan" {
		t.Fatalf("slow span attrs = %v", s.Attrs())
	}
	if s.Duration() < 5*time.Millisecond {
		t.Fatalf("slow span duration %v below threshold", s.Duration())
	}
}

// TestRingKeepsEventsAndFailures: below the slow threshold the ring
// keeps a span that failed and every event, and an event is made and
// kept while timing instrumentation is off.
func TestRingKeepsEventsAndFailures(t *testing.T) {
	tr := NewTracer(8)
	tr.StartSpan("ok").End(nil)
	tr.StartSpan("failed").End(errors.New("boom"))
	tr.StartEvent("event").End(nil)
	SetEnabled(false)
	defer SetEnabled(true)
	tr.StartEvent("event-off").End(errors.New("off"))
	var got []string
	for _, s := range tr.Slow() {
		got = append(got, s.Op()+":"+s.Err())
	}
	if want := []string{"failed:boom", "event:", "event-off:off"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ring = %v, want %v", got, want)
	}
}

func TestSpanParentLinkage(t *testing.T) {
	tr := NewTracer(0)
	parent := tr.StartSpan("parent")
	child := tr.StartChild("child", parent)
	if child.ParentID() != parent.ID() {
		t.Fatalf("child parent = %d, want %d", child.ParentID(), parent.ID())
	}
	child.End(nil)
	parent.End(nil)
}

func TestDisabledInstrumentation(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	r := NewRegistry()
	h := r.Histogram("h_seconds", nil)
	h.Observe(1)
	if h.Snapshot().Count != 0 {
		t.Fatalf("histogram observed while disabled")
	}
	if s := r.Tracer().StartSpan("x"); s != nil {
		t.Fatalf("span started while disabled")
	}
	// Nil-span methods must all be safe.
	var s *Span
	s.SetAttr("k", "v")
	s.End(nil)
	s.Observe(h, nil)
	if s.Op() != "" || s.ID() != 0 || s.Duration() != 0 {
		t.Fatalf("nil span not inert")
	}
	// Counters stay live: accounting must not stop when profiling does.
	c := r.Counter("c_total")
	c.Add(3)
	if c.Load() != 3 {
		t.Fatalf("counter suppressed while disabled")
	}
}

// TestPrometheusExposition renders a mixed registry set and checks the
// text format parses: one TYPE line per family, histogram bucket
// cumulativeness, label injection, and sorted stability.
func TestPrometheusExposition(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter(`requests_total{action="record"}`).Add(7)
	r1.Counter(`requests_total{action="query"}`).Add(3)
	r1.Gauge("journal_pending").Set(5)
	r1.GaugeFunc("garbage_ratio", func() float64 { return 0.25 })
	h := r1.Histogram("op_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	r2 := NewRegistry()
	r2.Counter(`requests_total{action="record"}`).Add(2)

	var sb strings.Builder
	if err := WritePrometheus(&sb, Export{Reg: r1}, Export{Labels: `shard="1"`, Reg: r2}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	if n := strings.Count(out, "# TYPE requests_total counter"); n != 1 {
		t.Fatalf("requests_total TYPE emitted %d times, want 1:\n%s", n, out)
	}
	for _, want := range []string{
		`requests_total{action="record"} 7`,
		`requests_total{action="query"} 3`,
		`requests_total{shard="1",action="record"} 2`,
		`journal_pending 5`,
		`garbage_ratio 0.25`,
		`op_seconds_bucket{le="0.001"} 1`,
		`op_seconds_bucket{le="0.01"} 2`,
		`op_seconds_bucket{le="+Inf"} 3`,
		`op_seconds_count 3`,
		"# TYPE op_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be `name value` with a parseable value.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("counter identity not stable")
	}
	if r.Histogram("h", nil) != r.Histogram("h", SizeBuckets) {
		t.Fatal("histogram identity not stable")
	}
	if r.Tracer() != r.Tracer() {
		t.Fatal("tracer identity not stable")
	}
}

// Numeric attributes are held as set and rendered only when the ring
// keeps the span, in the order they were set among the others.
func TestLazyAttrsRenderWhenKept(t *testing.T) {
	tr := NewTracer(4)
	tr.SetSlowThreshold(time.Nanosecond)
	tr.StartSpan("planned").SetAttr("strategy", "index").
		SetStrings("dims", []string{"session", "service"}).SetInts("dim_counts", []int{3, -40}).
		SetInts("none", nil).SetInt("postings", -7).End(nil)
	want := []Attr{{"strategy", "index"}, {"dims", "session,service"}, {"dim_counts", "3,-40"}, {"none", ""}, {"postings", "-7"}}
	if got := tr.Slow()[0].Attrs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("kept span attrs = %v, want %v", got, want)
	}
}

// A span the ring does not keep goes back to the pool: timing an
// operation, numeric attributes and all, allocates nothing.
func TestSpanNotKeptAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops what it holds at random under the race detector")
	}
	tr := NewTracer(4)
	h := NewRegistry().Histogram("h_seconds", nil)
	dims, counts := []string{"session"}, []int{3}
	if n := testing.AllocsPerRun(100, func() {
		tr.StartSpan("op").SetInt("batch", 100).SetStrings("dims", dims).SetInts("dim_counts", counts).Observe(h, nil)
	}); n != 0 {
		t.Fatalf("a span the ring did not keep cost %.0f allocations, want 0", n)
	}
	if len(tr.Slow()) != 0 {
		t.Fatal("the ring kept a fast span")
	}
}

// A kept span's attributes are rendered before the ring publishes it:
// readers may read them at once.
func TestKeptSpanAttrsReadConcurrently(t *testing.T) {
	tr := NewTracer(4)
	tr.SetSlowThreshold(time.Nanosecond)
	tr.StartSpan("op").SetInt("batch", 3).SetInts("counts", []int{1, 2}).End(nil)
	s := tr.Slow()[0]
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := s.Attrs(); len(got) != 2 || got[0].Value != "3" || got[1].Value != "1,2" {
				t.Errorf("attrs = %v", got)
			}
		}()
	}
	wg.Wait()
}
