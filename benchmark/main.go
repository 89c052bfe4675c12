// Command benchmark is the repository's benchmark: it drives the
// shipped stack — preserv.Client / client.AsyncRecorder over real
// loopback HTTP into preserv.Service, shard.Router, store.Store and a
// kvdb or file backend — in one process, closed loop, with fixed
// operation counts, checks every reply against the generator's model,
// and prints the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1) named in BENCHMARK.json. See README.md.
//
// Usage:
//
//	go run ./benchmark -seed N [-workload NAME[,NAME...]] [-seconds S]
//	    [-trace 0|1] [-trace-out FILE] [-dir TMP] [-json]
//	go run ./benchmark -repeat N -out runs.json [-other BINARY -other-out FILE] ...
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// resultLine is the last line of standard output of a single-workload
// run: the form the driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is printed with every run: what the numbers were
// measured under.
const environment = `closed loop, one process on one processor (pinned, GOMAXPROCS=1);
one client connection (two in mixed-live; the async phase keeps two batches in flight);
telemetry on (obs.SetEnabled(true), the cmd/preserv default), mmap on, default 32 MiB block cache per store;
flush policy as shipped: no fsync on the write path of either backend (kvdb syncs only in Sync/Compact/Close),
so latencies are the sandbox's page cache, not a device's;
end-to-end times are at reference speed (scaled by the speed bursts), and the garbage collector runs between
the timed sections, never inside one.`

func main() {
	var (
		seed      = flag.Int64("seed", 1, "workload seed: every identifier and every drawn operation derives from it")
		names     = flag.String("workload", "all", "workload name, comma-separated names, or all")
		seconds   = flag.Float64("seconds", refSeconds, "measured length of a run; operation counts scale by seconds/"+fmt.Sprint(refSeconds))
		trace     = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and direct probes, per-layer metrics")
		traceOut  = flag.String("trace-out", "", "write the traced run's spans to this file (JSON lines)")
		dir       = flag.String("dir", "", "directory for the run's data (default: the system temp directory)")
		jsonOnly  = flag.Bool("json", false, "print only the JSON result line(s)")
		repeat    = flag.Int("repeat", 0, "run each selected workload N times and write every run's end-to-end metrics to -out")
		out       = flag.String("out", "", "with -repeat: the runs file to write")
		other     = flag.String("other", "", "with -repeat: a second benchmark binary to run in alternating order with this one")
		otherOut  = flag.String("other-out", "", "with -other: the runs file for the second binary")
		compareFl = flag.Bool("compare", false, "compare two runs files: -compare old.json new.json")
	)
	flag.Parse()

	if *compareFl {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two runs files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fatal(err)
	}
	cfg := config{
		seed: *seed, dir: *dir, baseMul: 1, opsMul: *seconds / refSeconds,
		setups: setupRepeats, rounds: rounds, traced: *trace == 1, traceOut: *traceOut,
	}
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fatal(err)
		}
	}

	if *repeat > 0 {
		if err := repeatRuns(selected, cfg, *repeat, *out, *other, *otherOut); err != nil {
			fatal(err)
		}
		return
	}

	pinToOneCPU()
	failed := false
	for _, w := range selected {
		rep, err := runWorkload(w, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		if !*jsonOnly {
			printReport(rep)
		}
		line, err := json.Marshal(rep.line())
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		failed = failed || rep.Failed > 0
	}
	if failed {
		os.Exit(1)
	}
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "all" {
		return workloads, nil
	}
	var out []workload
	for _, n := range strings.Split(names, ",") {
		w, err := findWorkload(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

func runWorkload(w workload, cfg config) (*report, error) {
	if cfg.traced {
		return runTraced(w, cfg)
	}
	return runEndToEnd(w, cfg)
}

// reported lists the metrics a run of this kind prints.
func (rep *report) reported() []metric {
	if rep.Traced {
		return perLayer
	}
	return endToEnd
}

func (rep *report) line() resultLine {
	l := resultLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, m := range rep.reported() {
		l.Metrics[m.Name] = metricValue{Value: rep.Metrics[m.Name], Unit: m.Unit}
	}
	return l
}

func printReport(rep *report) {
	w, _ := findWorkload(rep.Workload)
	kind := "end-to-end (untraced)"
	if rep.Traced {
		kind = "per-layer (traced run + direct probes)"
	}
	fmt.Printf("== %s  seed %d  %s ==\n", rep.Workload, rep.Seed, kind)
	fmt.Printf("   %s\n", w.Why)
	fmt.Printf("   %s-%d, %s backend, base store %d records, Record batch %d\n", w.Topo, w.Shards, w.Backend, w.baseRecords(), w.Batch)
	fmt.Printf("   %s\n", strings.ReplaceAll(environment, "\n", "\n   "))
	for _, m := range rep.reported() {
		arrow := "↓"
		if m.Better == "higher" {
			arrow = "↑"
		}
		line := fmt.Sprintf("%-34s %14.4f %-6s %s", m.Name, rep.Metrics[m.Name], m.Unit, arrow)
		if m.Bound > 0 {
			line += fmt.Sprintf("  bound %.2f", m.Bound)
		}
		if n, ok := rep.Samples[m.Name]; ok {
			line += "  " + n
		}
		fmt.Println(line)
		if vals, ok := rep.Rounds[m.Name]; ok {
			fmt.Printf("   %-31s per round:%s\n", "", fmt.Sprintf(" %.4g", vals)[1:])
		}
	}
	fmt.Printf("   phases: %s\n", strings.Join(rep.Phases, " "))
	if rep.Speed != "" {
		fmt.Printf("   speed: %s\n", rep.Speed)
	}
	fmt.Printf("%-34s %14d\n%-34s %14d\n", "ops_attempted", rep.Attempted, "ops_failed", rep.Failed)
	for _, f := range rep.Failures {
		fmt.Println("   FAILED", f)
	}
}
