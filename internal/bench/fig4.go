// Package bench is the evaluation harness: it regenerates every table
// and figure of the paper's Section 6 (see DESIGN.md's experiment index
// E1-E8), printing the same series the paper plots. Absolute times
// depend on hardware; the shapes — linearity, configuration ordering,
// overhead bounds, slope ratios — are the reproduction targets.
package bench

import (
	"fmt"
	"io"
	"slices"

	"preserv/internal/experiment"
	"preserv/internal/preserv"
	"preserv/internal/stats"
	"preserv/internal/store"
)

// Fig4Modes are the four recording configurations of Figure 4, plotted
// top to bottom in the paper's legend order.
var Fig4Modes = []experiment.RecordingMode{
	experiment.RecordSyncExtra,
	experiment.RecordSync,
	experiment.RecordAsync,
	experiment.RecordOff,
}

// Fig4Options parameterises the Figure 4 sweep. The zero value gives a
// laptop-scale run (the paper's testbed used a 100 KB sample and 100-800
// permutations; cmd/benchfig can run that scale with -paper).
type Fig4Options struct {
	// SampleBytes is the collated sample size.
	SampleBytes int
	// PermSteps are the x-axis values (number of permutations).
	PermSteps []int
	// BatchSize is permutations per grid script.
	BatchSize int
	// Seed fixes the workload.
	Seed int64
}

func (o *Fig4Options) withDefaults() Fig4Options {
	out := *o
	if out.SampleBytes <= 0 {
		out.SampleBytes = 16 << 10
	}
	if len(out.PermSteps) == 0 {
		out.PermSteps = []int{10, 20, 30, 40, 50, 60, 70, 80}
	}
	if out.BatchSize <= 0 {
		out.BatchSize = 10
	}
	return out
}

// Fig4Point is one measured point of Figure 4.
type Fig4Point struct {
	Permutations int
	Mode         experiment.RecordingMode
	// Seconds is the process CPU time of the run, client and store
	// together: the work the configuration costs.
	Seconds float64
	Records int64
}

// RunFigure4 executes the sweep, every (permutations, mode) point once
// per interleaved round, and reports each point's median CPU time.
// Every run gets a fresh in-memory provenance store so store growth
// does not contaminate later points. Progress lines go to progress
// when non-nil.
//
// Points run permutation count by permutation count, the four modes of
// each side by side: a change in the host's speed part-way through a
// round then falls on every mode alike, and cannot decide the ordering
// between modes the figure asserts by landing on one mode's block.
func RunFigure4(opts Fig4Options, progress io.Writer) ([]Fig4Point, error) {
	o := opts.withDefaults()
	points := make([]Fig4Point, 0, len(Fig4Modes)*len(o.PermSteps))
	for _, perms := range o.PermSteps {
		for _, mode := range Fig4Modes {
			points = append(points, Fig4Point{Permutations: perms, Mode: mode})
		}
	}
	medians, err := interleave(rounds, len(points), func(i int) ([]float64, error) {
		p := &points[i]
		srv, err := preserv.Serve(preserv.NewService(store.New(store.NewMemoryBackend())), "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		cfg := experiment.Config{Mode: p.Mode}
		if p.Mode != experiment.RecordOff {
			cfg.StoreURLs = []string{srv.URL}
		}
		start := cpuTime()
		res, err := experiment.Run(experiment.Params{
			SampleBytes:  o.SampleBytes,
			Permutations: p.Permutations,
			BatchSize:    o.BatchSize,
			Seed:         o.Seed,
		}, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: fig4 %s/%d: %w", p.Mode, p.Permutations, err)
		}
		p.Records = res.RecordsCreated
		return []float64{(cpuTime() - start).Seconds()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range points {
		p := &points[i]
		p.Seconds = medians[i][0]
		if progress != nil {
			fmt.Fprintf(progress, "fig4 %-12s N=%-4d %8.3fs %6d records\n",
				p.Mode, p.Permutations, p.Seconds, p.Records)
		}
	}
	return points, nil
}

// Fig4Series extracts the (x, y) series of one mode.
func Fig4Series(points []Fig4Point, mode experiment.RecordingMode) (xs, ys []float64) {
	for _, p := range points {
		if p.Mode == mode {
			xs = append(xs, float64(p.Permutations))
			ys = append(ys, p.Seconds)
		}
	}
	return xs, ys
}

// Fig4Summary is the quantitative reading of Figure 4: per-mode linear
// fits, the async-vs-none overhead, and the configuration ordering.
type Fig4Summary struct {
	// Fits maps mode name to its linear fit (the paper reports r > 0.99
	// for every plot).
	Fits map[string]stats.Fit
	// AsyncOverhead is (async-none)/none per permutation step.
	AsyncOverhead []float64
	// MeanAsyncOverhead aggregates AsyncOverhead.
	MeanAsyncOverhead float64
	// SlopeOrderOK reports none <= async <= sync <= sync+extra by slope.
	SlopeOrderOK bool
}

// SummarizeFig4 computes the summary from the sweep points.
func SummarizeFig4(points []Fig4Point) (*Fig4Summary, error) {
	s := &Fig4Summary{Fits: make(map[string]stats.Fit)}
	for _, mode := range Fig4Modes {
		xs, ys := Fig4Series(points, mode)
		fit, err := stats.LinearFit(xs, ys)
		if err != nil {
			return nil, fmt.Errorf("bench: fitting %s: %w", mode, err)
		}
		s.Fits[mode.String()] = fit
	}
	noneX, noneY := Fig4Series(points, experiment.RecordOff)
	asyncX, asyncY := Fig4Series(points, experiment.RecordAsync)
	for i := range noneX {
		for j := range asyncX {
			if asyncX[j] == noneX[i] {
				s.AsyncOverhead = append(s.AsyncOverhead, stats.RelativeOverhead(noneY[i], asyncY[j]))
			}
		}
	}
	s.MeanAsyncOverhead = stats.Mean(s.AsyncOverhead)
	s.SlopeOrderOK = s.Fits[experiment.RecordOff.String()].Slope <= s.Fits[experiment.RecordAsync.String()].Slope &&
		s.Fits[experiment.RecordAsync.String()].Slope <= s.Fits[experiment.RecordSync.String()].Slope &&
		s.Fits[experiment.RecordSync.String()].Slope <= s.Fits[experiment.RecordSyncExtra.String()].Slope
	return s, nil
}

// RenderFig4 writes the series in the paper's layout: one row per
// permutation count, one column per configuration.
func RenderFig4(w io.Writer, points []Fig4Point, summary *Fig4Summary) {
	perms := map[int]bool{}
	for _, p := range points {
		perms[p.Permutations] = true
	}
	var steps []int
	for p := range perms {
		steps = append(steps, p)
	}
	slices.Sort(steps)

	fmt.Fprintf(w, "Figure 4: overall execution time (process CPU seconds, median of %d rounds) vs number of permutations\n", rounds)
	fmt.Fprintf(w, "%-8s", "perms")
	for _, mode := range Fig4Modes {
		fmt.Fprintf(w, " %14s", mode)
	}
	fmt.Fprintln(w)
	for _, step := range steps {
		fmt.Fprintf(w, "%-8d", step)
		for _, mode := range Fig4Modes {
			for _, p := range points {
				if p.Permutations == step && p.Mode == mode {
					fmt.Fprintf(w, " %14.3f", p.Seconds)
				}
			}
		}
		fmt.Fprintln(w)
	}
	if summary != nil {
		fmt.Fprintln(w)
		for _, mode := range Fig4Modes {
			fit := summary.Fits[mode.String()]
			fmt.Fprintf(w, "fit %-12s %s\n", mode, fit)
		}
		fmt.Fprintf(w, "async overhead vs no-recording: mean %.1f%% (paper: < 10%%)\n",
			100*summary.MeanAsyncOverhead)
		fmt.Fprintf(w, "slope ordering none<=async<=sync<=sync+extra: %v\n", summary.SlopeOrderOK)
	}
}
