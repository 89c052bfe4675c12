// Command pcomp runs the protein compressibility experiment: the
// Figure 1 workflow over a synthetic (or FASTA-supplied) sample, with
// provenance recorded to a PReServ store under a chosen configuration.
//
// Usage:
//
//	pcomp -sample 102400 -perms 100 -batch 100 \
//	      -mode async -store http://127.0.0.1:8734
//
// The session identifier printed at the end is the handle for the
// provenance use cases (see provq).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"preserv/internal/bio"
	"preserv/internal/experiment"
	"preserv/internal/grid"
)

// fatal logs msg and its fields as one error line and exits 1.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func main() {
	sample := flag.Int("sample", 100<<10, "collated sample size in bytes")
	perms := flag.Int("perms", 100, "number of shuffled permutations (N)")
	batch := flag.Int("batch", 100, "permutations per grid script")
	mode := flag.String("mode", "off", "recording mode: off, async, sync, sync+extra")
	stores := flag.String("store", "", "comma-separated provenance store URLs")
	groupingName := flag.String("grouping", "hydropathy4", "group coding: hydropathy4, sampath8 or identity20")
	codecs := flag.String("codecs", "gzip,ppmz", "comma-separated compression methods")
	seed := flag.Int64("seed", 2005, "workload seed")
	nucleotide := flag.Bool("nucleotide", false, "inject the use-case-2 error: nucleotide input sample")
	fasta := flag.String("fasta", "", "FASTA file of input sequences (default: synthetic proteome)")
	slots := flag.Int("slots", 0, "simulated grid slots (0 = local execution)")
	schedDelay := flag.Duration("sched-delay", 50*time.Millisecond, "simulated grid scheduling delay per job")
	flag.Parse()

	var recMode experiment.RecordingMode
	switch *mode {
	case "off", "none":
		recMode = experiment.RecordOff
	case "async":
		recMode = experiment.RecordAsync
	case "sync":
		recMode = experiment.RecordSync
	case "sync+extra", "extra":
		recMode = experiment.RecordSyncExtra
	default:
		fatal("pcomp: unknown mode", "mode", *mode)
	}

	grouping, ok := bio.Groupings()[*groupingName]
	if !ok {
		fatal("pcomp: unknown grouping (have: hydropathy4, sampath8, identity20)", "grouping", *groupingName)
	}

	var storeURLs []string
	if *stores != "" {
		storeURLs = strings.Split(*stores, ",")
	}

	var cluster *grid.Cluster
	if *slots > 0 {
		var err error
		cluster, err = grid.NewCluster(*slots, *schedDelay, 0)
		if err != nil {
			fatal("pcomp: starting the grid", "slots", *slots, "err", err)
		}
	}

	var sequences []*bio.Sequence
	if *fasta != "" {
		f, err := os.Open(*fasta)
		if err != nil {
			fatal("pcomp: opening sequences", "fasta", *fasta, "err", err)
		}
		sequences, err = bio.ParseFASTA(f)
		f.Close()
		if err != nil {
			fatal("pcomp: parsing sequences", "fasta", *fasta, "err", err)
		}
		slog.Info("pcomp: loaded sequences", "fasta", *fasta, "sequences", len(sequences))
	}

	params := experiment.Params{
		SampleBytes:     *sample,
		Permutations:    *perms,
		BatchSize:       *batch,
		Grouping:        grouping,
		Codecs:          strings.Split(*codecs, ","),
		Seed:            *seed,
		NucleotideInput: *nucleotide,
		Sequences:       sequences,
	}
	cfg := experiment.Config{
		Mode:      recMode,
		StoreURLs: storeURLs,
		Cluster:   cluster,
	}

	slog.Info("pcomp: running", "sample_bytes", *sample, "perms", *perms, "batch", *batch,
		"grouping", grouping.Name(), "codecs", *codecs, "mode", recMode, "target", *stores)
	res, err := experiment.Run(params, cfg)
	if err != nil {
		fatal("pcomp: running the experiment", "target", *stores, "err", err)
	}

	fmt.Println()
	fmt.Print(res.ResultsText)
	fmt.Println()
	fmt.Printf("session:   %s\n", res.SessionID)
	fmt.Printf("elapsed:   %.3fs (workflow %.3fs)\n", res.Elapsed.Seconds(), res.WorkflowElapsed.Seconds())
	fmt.Printf("records:   %d p-assertions\n", res.RecordsCreated)
	if cluster != nil {
		st := cluster.Stats()
		fmt.Printf("grid:      %d jobs, overhead fraction %.3f\n", st.JobsRun, st.OverheadFraction())
	}
	os.Exit(0)
}
