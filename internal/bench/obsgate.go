package bench

// Instrumentation-overhead gate: the telemetry layer (spans + latency
// histograms on the store's write path) must cost within a few percent
// of running uninstrumented, or it cannot default to on. The claim is
// about work, so the gate reads process CPU time, and it compares the
// modes inside one ingest (a whole ingest's CPU time varies by ≈ 10 %
// between runs on a shared host): telemetry switches off and on between
// steps of every writer's next batch. A round's ratio is the modes'
// records per CPU second; the gate reads the median round.

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"preserv/internal/core"
	"preserv/internal/obs"
	"preserv/internal/store"
)

// ObsGateThreshold is the minimum enabled/disabled throughput ratio the
// gate accepts: instrumentation may cost at most 5%.
const ObsGateThreshold = 0.95

// ObsGateOptions configures the overhead measurement.
type ObsGateOptions struct {
	// Backend selects the store backend ("memory" default — the kvdb log
	// in memory pays no file-system cost, so fixed instrumentation cost
	// is the largest fraction of its ingest, the hardest case).
	Backend string
	// Records is the size of one ingest; a round runs two. Each
	// writer's share is cut into batches of 100.
	Records int
	// Writers is the ingest concurrency.
	Writers int
}

func (o ObsGateOptions) withDefaults() ObsGateOptions {
	if o.Backend == "" {
		o.Backend = "memory"
	}
	if o.Records <= 0 {
		o.Records = 16000
	}
	if o.Writers <= 0 {
		o.Writers = 4
	}
	return o
}

// ObsGateResult reports both modes' median throughput and the verdict.
type ObsGateResult struct {
	Backend string
	Records int
	// DisabledRecSec and EnabledRecSec are records per second of
	// process CPU time.
	DisabledRecSec float64
	EnabledRecSec  float64
	// Ratio is the median round's enabled/disabled throughput; 1.0
	// means free telemetry.
	Ratio float64
	Pass  bool
}

// RunObsGate measures ingest throughput with instrumentation off and
// on, restoring the previous obs state before returning.
func RunObsGate(opts ObsGateOptions, progress io.Writer) (*ObsGateResult, error) {
	o := opts.withDefaults()
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)

	work := ingestWorkload(IngestOptions{Backend: o.Backend, Writers: o.Writers, Records: o.Records}.withDefaults())
	medians, err := interleave(rounds, 1, func(int) ([]float64, error) {
		// The second ingest swaps the modes' steps, so each mode runs
		// every step position once: the store's growth costs (map and
		// index resizes) land on fixed positions.
		var recs [2]int
		var cpu [2]time.Duration
		for first := 0; first < 2; first++ {
			err := withIngestStore(o.Backend, func(s *store.Store) error {
				return obsSteps(s, work, first, &recs, &cpu)
			})
			if err != nil {
				return nil, fmt.Errorf("bench: obs gate: %w", err)
			}
		}
		off := float64(recs[0]) / cpu[0].Seconds()
		on := float64(recs[1]) / cpu[1].Seconds()
		if progress != nil {
			fmt.Fprintf(progress, "obsgate: off %.0f on %.0f rec/cpu-s\n", off, on)
		}
		return []float64{off, on, on / off}, nil
	})
	if err != nil {
		return nil, err
	}

	r := &ObsGateResult{
		Backend:        o.Backend,
		Records:        o.Records,
		DisabledRecSec: medians[0][0],
		EnabledRecSec:  medians[0][1],
		Ratio:          medians[0][2],
	}
	r.Pass = r.Ratio >= ObsGateThreshold
	return r, nil
}

// obsSteps records work into s one step at a time, a step being every
// writer's next batch recorded concurrently, and adds each step's
// records and process CPU time to mode 0 (telemetry off) or 1 (on). The
// steps take the modes in ABBA order starting with mode first. The
// collector is paused for the ingest and runs only before each ABBA
// group of steps, so no step pays to collect another's garbage:
// interleave's GC off the clock, at step grain.
func obsSteps(s *store.Store, work [][][]core.Record, first int, recs *[2]int, cpu *[2]time.Duration) error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for k := range work[0] {
		if k%4 == 0 {
			runtime.GC()
		}
		mode := first ^ (k+1)/2%2
		step := make([][][]core.Record, len(work))
		for w := range work {
			step[w] = work[w][k : k+1]
		}
		obs.SetEnabled(mode == 1)
		start := cpuTime()
		n, err := recordAll(s, step)
		if err != nil {
			return err
		}
		cpu[mode] += cpuTime() - start
		recs[mode] += n
	}
	return nil
}

// RenderObsGate prints the gate verdict.
func RenderObsGate(w io.Writer, r *ObsGateResult) {
	fmt.Fprintf(w, "## instrumentation overhead gate (%s backend, %d records, process CPU, telemetry switched per step, median of %d rounds)\n\n",
		r.Backend, r.Records, rounds)
	fmt.Fprintf(w, "  telemetry off: %9.0f rec/cpu-s\n", r.DisabledRecSec)
	fmt.Fprintf(w, "  telemetry on:  %9.0f rec/cpu-s\n", r.EnabledRecSec)
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "  ratio: %.3f (floor %.2f) — %s\n", r.Ratio, ObsGateThreshold, verdict)
}
