// Package obs is the store's dependency-free instrumentation core: a
// metrics registry of atomic counters, gauges and fixed-bucket latency
// histograms with quantile extraction, plus lightweight per-operation
// spans (span.go), the slow and failed ones kept in a bounded ring beside
// background events (compactions, opens), the component's history. The
// paper's thesis is that a system becomes trustworthy when what it did
// is inspectable after the fact; obs applies that to the provenance
// store itself — every layer (store, planner, router, service, client)
// records what each operation cost, and the telemetry is exposed over
// the wire (urn:prep:stats), as a Prometheus-text /metrics endpoint,
// and through `provq stats`.
//
// Design constraints: no dependencies beyond the standard library, and
// near-zero overhead on hot paths — counters and gauges are single
// atomics, histogram observation is two atomic adds plus a branch-free
// bucket search, and SetEnabled(false) turns the timing instruments
// (histogram observation and span creation, the parts that call
// time.Now or allocate) into no-ops while counters and events keep
// working, since service accounting and the history depend on them.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled is the package-wide switch for the *timing* instruments:
// histogram observation and span creation. Counters, gauges and events
// (Tracer.StartEvent) are always live — service statistics and the
// history are built on them. It defaults on.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns timing instrumentation (histograms, spans) on or
// off process-wide. The overhead benchmark gate flips it to measure
// what instrumentation costs.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether timing instrumentation is on.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing atomic counter. Counters are
// exempt from SetEnabled: accounting must not stop when profiling does.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value (a queue depth, a backlog).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// LatencyBuckets is the default histogram bucket layout for operation
// latencies in seconds: exponential-ish from 10µs to 10s, matching the
// range between a memory-backend point write and a worst-case remote
// fan-out. Values above the last bound land in the overflow bucket.
var LatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
	100e-3, 250e-3, 500e-3, 1, 2.5, 5, 10,
}

// SizeBuckets is the default layout for count-valued distributions
// (batch sizes, page widths, postings per query).
var SizeBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Histogram is a fixed-bucket distribution: len(bounds)+1 atomic
// bucket counts (the last is the overflow bucket), an atomic total
// count and an atomic sum. Observation is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	count  atomic.Int64
	// sum accumulates as float64 bits via CAS — observation values are
	// float64 (seconds, sizes), and contention on one histogram is low
	// enough that the CAS loop effectively never spins.
	sum atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending bucket
// upper bounds (nil selects LatencyBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value. A no-op while instrumentation is disabled.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	// Binary search for the first bound >= v; linear would also do for
	// ~20 buckets, but sort.SearchFloat64s keeps it O(log n) and clear.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Snapshot captures the histogram's current state. Concurrent
// observations may straddle the capture (the per-bucket reads are not
// mutually atomic); quantiles are estimates regardless, so a
// one-observation skew is immaterial.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra entry,
	// the overflow bucket.
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the bucket the rank falls into; the overflow
// bucket reports the last finite bound. Zero observations estimate 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= rank {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			if c == 0 {
				return hi
			}
			// Position of the rank within this bucket's count.
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + (hi-lo)*frac
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns the observed mean (0 with no observations).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Registry names and owns a process component's instruments. Metric
// names follow the Prometheus convention and may carry inline labels:
// `preserv_request_seconds{action="record"}`. Lookup is
// get-or-create, so two layers naming the same metric share one
// instrument; callers hold the returned handle and never pay the map
// lookup on the hot path.
type Registry struct {
	mu         sync.Mutex // provlint:lock-order 20
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	histograms map[string]*Histogram
	tracerOnce sync.Once
	tracer     *Tracer
	// snapMu makes multi-counter updates atomic with respect to
	// snapshots: updates grouped under Batch hold it shared, and
	// CounterSnapshot holds it exclusively — so one snapshot can never
	// observe half of a grouped update (the Service.Stats torn-read
	// fix). Counters updated outside Batch are unaffected.
	// provlint:lock-order 10
	snapMu sync.RWMutex
}

// NewRegistry returns an empty registry with its own tracer.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() float64),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a pull-valued gauge (a garbage ratio, a cache
// size) evaluated at snapshot/render time. The first registration of a
// name wins; later ones are ignored, matching get-or-create elsewhere.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.gaugeFuncs[name]; !ok {
		r.gaugeFuncs[name] = fn
	}
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (nil bounds = LatencyBuckets). Bounds are fixed
// at creation; a later caller's differing bounds are ignored.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Tracer returns the registry's span tracer, created on first use.
func (r *Registry) Tracer() *Tracer {
	r.tracerOnce.Do(func() { r.tracer = NewTracer(DefaultSpanRing) })
	return r.tracer
}

// Batch runs fn — typically a handful of Counter.Add calls describing
// one completed request — such that a concurrent CounterSnapshot sees
// either all of fn's updates or none of them.
func (r *Registry) Batch(fn func()) {
	r.snapMu.RLock()
	defer r.snapMu.RUnlock()
	fn()
}

// CounterSnapshot returns every counter's value as one internally
// consistent view: it excludes all in-flight Batch groups, so sums and
// ratios across counters hold the invariants the updaters maintained.
func (r *Registry) CounterSnapshot() map[string]int64 {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	return out
}

// HistogramSnapshots captures every histogram, keyed by name.
func (r *Registry) HistogramSnapshots() map[string]HistogramSnapshot {
	r.mu.Lock()
	hs := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		hs[name] = h
	}
	r.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(hs))
	for name, h := range hs {
		out[name] = h.Snapshot()
	}
	return out
}
