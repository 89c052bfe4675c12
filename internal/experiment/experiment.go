// Package experiment implements the protein compressibility experiment
// of the paper's Section 2: the comparative sequence compressibility
// workflow (Figure 1) with its Measure sub-workflow (Figure 2), executed
// over the workflow/grid substrates with provenance recorded through
// PReP under the four configurations that Figure 4 compares.
//
// The experiment batches permutations into grid scripts ("we grouped the
// execution of 100 permutations into a single script to increase the
// granularity of the activities to be scheduled by Condor") while still
// documenting every activity of the Measure workflow for every
// permutation — six p-assertion records per permutation.
package experiment

import (
	"fmt"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"preserv/internal/bio"
	"preserv/internal/client"
	"preserv/internal/compress"
	"preserv/internal/core"
	"preserv/internal/grid"
	"preserv/internal/ids"
	"preserv/internal/ontology"
	"preserv/internal/preserv"
	"preserv/internal/workflow"
)

// RecordingMode selects the Figure 4 configuration.
type RecordingMode int

// Recording configurations, in the order plotted in Figure 4.
const (
	// RecordOff runs without recording p-assertions.
	RecordOff RecordingMode = iota
	// RecordAsync accumulates p-assertions in a local file and ships
	// them after execution.
	RecordAsync
	// RecordSync records by direct service invocation during execution.
	RecordSync
	// RecordSyncExtra is synchronous recording with extra actor-state
	// p-assertions (script provenance for use case 1).
	RecordSyncExtra
)

// String names the mode as in the Figure 4 legend.
func (m RecordingMode) String() string {
	switch m {
	case RecordOff:
		return "no-recording"
	case RecordAsync:
		return "async"
	case RecordSync:
		return "sync"
	case RecordSyncExtra:
		return "sync+extra"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Params describes the scientific workload.
type Params struct {
	// SampleBytes is the collated sample size (the paper uses ~100 KB).
	SampleBytes int
	// Permutations is N, the number of shuffled permutations.
	Permutations int
	// BatchSize is how many permutations one grid script processes
	// (the paper uses 100).
	BatchSize int
	// Grouping is the amino-acid group coding; nil selects Hydropathy4.
	Grouping *bio.Grouping
	// Codecs names the compression methods; nil selects gzip and ppmz,
	// the pair of Figure 2.
	Codecs []string
	// Seed makes the whole experiment deterministic.
	Seed int64
	// SeqMinLen and SeqMaxLen bound generated sequence lengths.
	SeqMinLen, SeqMaxLen int
	// NucleotideInput injects the use-case-2 error: the collated sample
	// is nucleotide data, which recodes without any syntactic error.
	NucleotideInput bool
	// ScriptConfigs customises the recorded script content per service
	// (keyed by actor ID); use case 1 detects these as process changes.
	ScriptConfigs map[core.ActorID]string
	// Sequences supplies real input sequences (e.g. parsed from FASTA,
	// the paper's RefSeq download). When nil, a seeded synthetic
	// proteome is generated instead.
	Sequences []*bio.Sequence
}

func (p *Params) withDefaults() Params {
	out := *p
	if out.SampleBytes <= 0 {
		out.SampleBytes = 100 << 10
	}
	if out.Permutations < 0 {
		out.Permutations = 0
	}
	if out.BatchSize <= 0 {
		out.BatchSize = 100
	}
	if out.Grouping == nil {
		out.Grouping = bio.Hydropathy4()
	}
	if len(out.Codecs) == 0 {
		out.Codecs = []string{"gzip", "ppmz"}
	}
	if out.SeqMinLen <= 0 {
		out.SeqMinLen = 200
	}
	if out.SeqMaxLen < out.SeqMinLen {
		out.SeqMaxLen = out.SeqMinLen * 3
	}
	return out
}

// RecordsPerPermutation returns how many p-assertion records one
// permutation generates in the base configurations: one per Measure
// activity — the compressions, the size measurements (original plus one
// per compressed form) and the collation. With the paper's two codecs
// this is six.
func RecordsPerPermutation(codecs int) int { return 2*codecs + 2 }

// Config describes the provenance and execution environment.
type Config struct {
	// Mode selects the recording configuration.
	Mode RecordingMode
	// StoreURLs are the provenance store endpoints (ignored for
	// RecordOff; async mode stripes over all of them, sync uses the
	// first).
	StoreURLs []string
	// JournalDir holds the async journal file; "" uses the OS temp dir.
	JournalDir string
	// AsyncBatch is the async shipping batch size; 0 uses the default.
	AsyncBatch int
	// Cluster simulates the grid; nil runs locally.
	Cluster *grid.Cluster
	// IDs supplies identifiers; nil uses the cryptographic source.
	IDs ids.Source
}

// Result is the outcome of one experiment run.
type Result struct {
	// SessionID groups every p-assertion of the run.
	SessionID ids.ID
	// Results holds the compressibility statistics per codec.
	Results *Results
	// ResultsText is the rendered table the Average activity emitted.
	ResultsText string
	// Elapsed is the overall execution time: workflow plus (for async
	// mode) the post-execution shipping — the y-axis of Figure 4.
	Elapsed time.Duration
	// WorkflowElapsed excludes the async shipping phase.
	WorkflowElapsed time.Duration
	// RecordsCreated counts p-assertions submitted to the recorder.
	RecordsCreated int64
	// Mode echoes the recording configuration.
	Mode RecordingMode
}

// runner carries the state shared between coarse workflow activities and
// the fine-grained Measure recording inside batch scripts.
type runner struct {
	params   Params
	mode     RecordingMode
	rec      client.Recorder
	ids      ids.Source
	session  ids.ID
	seq      atomic.Uint64
	enactor  core.ActorID
	maxBytes int
	records  atomic.Int64
}

func (x *runner) scriptFor(svc core.ActorID) string {
	return DefaultScript(svc, x.params.ScriptConfigs[svc])
}

// recordExchange documents one fine-grained Measure activity, and in the
// extra configuration also its script.
func (x *runner) recordExchange(service core.ActorID, op string, inputs, outputs map[string]workflow.Value) error {
	if x.mode == RecordOff {
		return nil
	}
	interaction := core.Interaction{
		ID:        x.ids.NewID(),
		Sender:    x.enactor,
		Receiver:  service,
		Operation: op,
	}
	n := x.seq.Add(1)
	recs := []core.Record{
		workflow.NewExchangeRecord(interaction, x.enactor, x.session, n, inputs, outputs, x.maxBytes),
	}
	if x.mode == RecordSyncExtra {
		recs = append(recs, workflow.NewScriptRecord(interaction, x.enactor, x.session, n, x.scriptFor(service)))
	}
	if err := x.rec.Record(recs...); err != nil {
		return err
	}
	x.records.Add(int64(len(recs)))
	return nil
}

// value mints a workflow.Value with a fresh data identifier.
func (x *runner) value(semanticType, contentType string, content []byte) workflow.Value {
	return workflow.Value{
		DataID:       x.ids.NewID(),
		SemanticType: semanticType,
		ContentType:  contentType,
		Content:      content,
	}
}

// measureOne runs the Measure sub-workflow (Figure 2) for one
// permutation: compress with every codec, measure every form's size,
// collate. It records one p-assertion per activity.
func (x *runner) measureOne(perm int, sample workflow.Value) ([]SizeEntry, error) {
	entries := []SizeEntry{{Perm: perm, Label: LabelOriginal, Size: len(sample.Content)}}
	sizeValues := map[string]workflow.Value{}

	// Size of the (permuted) sample itself.
	origSize := x.value(ontology.TypeSize, "text/plain", []byte(strconv.Itoa(len(sample.Content))))
	if err := x.recordExchange(SvcMeasure, "measure",
		map[string]workflow.Value{"data": sample},
		map[string]workflow.Value{"size": origSize}); err != nil {
		return nil, err
	}
	sizeValues["size-"+LabelOriginal] = origSize

	for _, codecName := range x.params.Codecs {
		codec, err := compress.Lookup(codecName)
		if err != nil {
			return nil, err
		}
		compressed, err := codec.Compress(sample.Content)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s on perm %d: %w", codecName, perm, err)
		}
		compVal := x.value(ontology.TypeCompressed, "application/octet-stream", compressed)
		if err := x.recordExchange(CompressorService(codecName), "compress",
			map[string]workflow.Value{"sample": sample},
			map[string]workflow.Value{"compressed": compVal}); err != nil {
			return nil, err
		}

		sizeVal := x.value(ontology.TypeSize, "text/plain", []byte(strconv.Itoa(len(compressed))))
		if err := x.recordExchange(SvcMeasure, "measure",
			map[string]workflow.Value{"data": compVal},
			map[string]workflow.Value{"size": sizeVal}); err != nil {
			return nil, err
		}
		sizeValues["size-"+codecName] = sizeVal
		entries = append(entries, SizeEntry{Perm: perm, Label: codecName, Size: len(compressed)})
	}

	// Collate this permutation's sizes into a table.
	table := x.value(ontology.TypeSizesTable, "text/tab-separated-values", FormatSizes(entries))
	if err := x.recordExchange(SvcCollateSizes, "collate-permutation",
		sizeValues,
		map[string]workflow.Value{"sizes": table}); err != nil {
		return nil, err
	}
	return entries, nil
}

// Run executes the experiment.
func Run(params Params, cfg Config) (*Result, error) {
	p := params.withDefaults()

	src := cfg.IDs
	if src == nil {
		src = cryptoIDs{}
	}
	session := src.NewID()

	// Assemble the recorder for the requested configuration.
	var rec client.Recorder
	switch cfg.Mode {
	case RecordOff:
		rec = client.NullRecorder{}
	case RecordSync, RecordSyncExtra:
		if len(cfg.StoreURLs) == 0 {
			return nil, fmt.Errorf("experiment: %s mode needs a store URL", cfg.Mode)
		}
		rec = client.NewSyncRecorder(preserv.NewClient(cfg.StoreURLs[0], nil), SvcEnactor)
	case RecordAsync:
		if len(cfg.StoreURLs) == 0 {
			return nil, fmt.Errorf("experiment: async mode needs at least one store URL")
		}
		dir := cfg.JournalDir
		if dir == "" {
			dir = filepath.Join(".", "")
		}
		clients := make([]*preserv.Client, len(cfg.StoreURLs))
		for i, u := range cfg.StoreURLs {
			clients[i] = preserv.NewClient(u, nil)
		}
		journal := filepath.Join(dir, fmt.Sprintf("pcomp-journal-%s", session.Short()))
		async, err := client.NewAsyncRecorder(SvcEnactor, journal, cfg.AsyncBatch, clients...)
		if err != nil {
			return nil, err
		}
		rec = async
	default:
		return nil, fmt.Errorf("experiment: unknown recording mode %d", cfg.Mode)
	}

	x := &runner{
		params:   p,
		mode:     cfg.Mode,
		rec:      rec,
		ids:      src,
		session:  session,
		enactor:  SvcEnactor,
		maxBytes: workflow.DefaultMaxContentBytes,
	}

	w, holder, err := buildWorkflow(x, p)
	if err != nil {
		return nil, err
	}

	engine := workflow.Engine{
		Enactor:          SvcEnactor,
		IDs:              src,
		Cluster:          cfg.Cluster,
		RecordActorState: cfg.Mode == RecordSyncExtra,
		Session:          session,
	}
	if cfg.Mode != RecordOff {
		engine.Recorder = rec
	}

	start := time.Now()
	res, err := engine.Run(w)
	if err != nil {
		rec.Close()
		return nil, err
	}
	workflowElapsed := time.Since(start)
	// Async mode ships the accumulated journal after execution; the
	// overall time the paper plots includes this phase.
	if err := rec.Flush(); err != nil {
		rec.Close()
		return nil, fmt.Errorf("experiment: shipping journaled p-assertions: %w", err)
	}
	elapsed := time.Since(start)
	if err := rec.Close(); err != nil {
		return nil, err
	}

	if holder.results == nil {
		return nil, fmt.Errorf("experiment: average activity produced no results")
	}
	return &Result{
		SessionID:       session,
		Results:         holder.results,
		ResultsText:     holder.text,
		Elapsed:         elapsed,
		WorkflowElapsed: workflowElapsed,
		RecordsCreated:  res.RecordsCreated + x.records.Load(),
		Mode:            cfg.Mode,
	}, nil
}

type cryptoIDs struct{}

func (cryptoIDs) NewID() ids.ID { return ids.New() }
