package bench

// One timing discipline for every comparison the harness asserts: each
// configuration runs once per round, rounds interleave the
// configurations, and a configuration's result is its median over the
// rounds. Each run reads the clock its claim is about: process CPU time
// (cpuTime) where the claim is about work, the wall clock where it is
// about waiting. DESIGN.md's "Timing discipline" names the clock of each
// figure and gate.

import (
	"runtime"
	"syscall"
	"time"

	"preserv/internal/stats"
)

// rounds is how many interleaved rounds every asserted comparison runs.
const rounds = 5

// interleave runs configurations 0..n-1 once per round for the given
// number of rounds, in ABBA order: forward in even rounds and backward
// in odd ones, so no configuration always runs first and drift of the
// host over the sweep falls on every configuration alike. Before each
// run it calls runtime.GC(), off the clock, so no run pays to collect an
// earlier run's garbage. run returns its measurements; the result holds,
// per configuration, the median of each measurement over the rounds. A
// run's error stops the rounds and is returned.
func interleave(rounds, n int, run func(cfg int) ([]float64, error)) ([][]float64, error) {
	samples := make([][][]float64, n)
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			cfg := i
			if r%2 == 1 {
				cfg = n - 1 - i
			}
			runtime.GC()
			m, err := run(cfg)
			if err != nil {
				return nil, err
			}
			samples[cfg] = append(samples[cfg], m)
		}
	}
	medians := make([][]float64, n)
	for cfg, runs := range samples {
		for k := range runs[0] {
			col := make([]float64, len(runs))
			for r, m := range runs {
				col[r] = m[k]
			}
			medians[cfg] = append(medians[cfg], stats.Median(col))
		}
	}
	return medians, nil
}

// cpuTime is the CPU time the process has used so far, user plus
// system, over all its threads: the clock for claims about work, since
// the harness runs client and server in one process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic("bench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
