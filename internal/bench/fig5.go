package bench

import (
	"fmt"
	"io"
	"slices"

	"preserv/internal/compare"
	"preserv/internal/core"
	"preserv/internal/experiment"
	"preserv/internal/ids"
	"preserv/internal/ontology"
	"preserv/internal/preserv"
	"preserv/internal/registry"
	"preserv/internal/semval"
	"preserv/internal/stats"
	"preserv/internal/store"
	"preserv/internal/workflow"
)

// Fig5Options parameterises the Figure 5 sweep: query time for the two
// use cases as a function of the number of interaction records in the
// store (the paper sweeps 0-4000).
type Fig5Options struct {
	// RecordSteps are the x-axis values (interaction records in store).
	RecordSteps []int
	// Seed fixes the synthetic population.
	Seed int64
}

func (o *Fig5Options) withDefaults() Fig5Options {
	out := *o
	if len(out.RecordSteps) == 0 {
		out.RecordSteps = []int{120, 240, 480, 720, 960, 1200}
	}
	return out
}

// Fig5Point is one measured point of Figure 5.
type Fig5Point struct {
	// Interactions is the number of interaction records in the store.
	Interactions int
	// CompareMillis is the script-comparison (use case 1) process CPU
	// time.
	CompareMillis float64
	// SemvalMillis is the semantic-validation (use case 2) process CPU
	// time.
	SemvalMillis float64
	// RegistryCallsPerInteraction reports semval's registry fan-out
	// (the paper observes ≈10, giving the ≈11× slope ratio).
	RegistryCallsPerInteraction float64
}

// populator writes measure-workflow-shaped records into a store: per
// permutation unit, the six Figure 2 activities (with correct data
// links and script actor states) so that both use cases run over
// faithful documentation without paying for real compression.
type populator struct {
	ids     ids.Source
	session ids.ID
	seq     uint64
	batch   []core.Record
	client  *preserv.Client
}

func (p *populator) value(semanticType string) workflow.Value {
	return workflow.Value{
		DataID:       p.ids.NewID(),
		SemanticType: semanticType,
		Content:      []byte("x"),
	}
}

func (p *populator) exchange(service core.ActorID, op string, in, out map[string]workflow.Value) {
	p.seq++
	interaction := core.Interaction{
		ID:        p.ids.NewID(),
		Sender:    experiment.SvcEnactor,
		Receiver:  service,
		Operation: op,
	}
	p.batch = append(p.batch,
		workflow.NewExchangeRecord(interaction, experiment.SvcEnactor, p.session, p.seq, in, out, 64),
		workflow.NewScriptRecord(interaction, experiment.SvcEnactor, p.session, p.seq,
			experiment.DefaultScript(service, "")),
	)
}

// permutationUnit emits the six Measure-workflow records for one
// permutation, mirroring experiment.measureOne's shapes.
func (p *populator) permutationUnit(encoded workflow.Value) {
	permuted := p.value(ontology.TypePermutedEncoded)
	_ = encoded
	origSize := p.value(ontology.TypeSize)
	p.exchange(experiment.SvcMeasure, "measure",
		map[string]workflow.Value{"data": permuted},
		map[string]workflow.Value{"size": origSize})
	sizes := map[string]workflow.Value{"size-original": origSize}
	for _, codec := range []string{"gzip", "ppmz"} {
		compressed := p.value(ontology.TypeCompressed)
		p.exchange(experiment.CompressorService(codec), "compress",
			map[string]workflow.Value{"sample": permuted},
			map[string]workflow.Value{"compressed": compressed})
		size := p.value(ontology.TypeSize)
		p.exchange(experiment.SvcMeasure, "measure",
			map[string]workflow.Value{"data": compressed},
			map[string]workflow.Value{"size": size})
		sizes["size-"+codec] = size
	}
	p.exchange(experiment.SvcCollateSizes, "collate-permutation",
		sizes,
		map[string]workflow.Value{"sizes": p.value(ontology.TypeSizesTable)})
}

// flush ships accumulated records in batches of 200.
func (p *populator) flush() error {
	for batch := range slices.Chunk(p.batch, 200) {
		resp, err := p.client.Record(experiment.SvcEnactor, batch)
		if err != nil {
			return err
		}
		if len(resp.Rejects) > 0 {
			return fmt.Errorf("bench: populate rejected: %s", resp.Rejects[0].Reason)
		}
	}
	p.batch = p.batch[:0]
	return nil
}

// Populate fills a store with the given number of interaction records
// (rounded up to whole permutation units of six) and returns the session
// they belong to.
func Populate(client *preserv.Client, interactions int, seed int64) (ids.ID, error) {
	src := &ids.SeqSource{Prefix: uint64(seed)&0xFFFF | 0xF0000}
	p := &populator{ids: src, session: src.NewID(), client: client}
	encoded := p.value(ontology.TypeGroupEncoded)
	units := (interactions + 5) / 6
	for u := 0; u < units; u++ {
		p.permutationUnit(encoded)
	}
	if err := p.flush(); err != nil {
		return ids.Nil, err
	}
	return p.session, nil
}

// RunFigure5 executes the sweep: each step, once per interleaved round,
// populates a fresh store to the target size and then times both use
// cases on the process CPU clock; a point holds each time's median.
func RunFigure5(opts Fig5Options, progress io.Writer) ([]Fig5Point, error) {
	o := opts.withDefaults()

	reg := registry.NewRegistry()
	rsrv, err := registry.Serve(reg, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer rsrv.Close()
	regClient := registry.NewClient(rsrv.URL, nil)
	if err := experiment.PublishAll(regClient, []string{"gzip", "ppmz"}); err != nil {
		return nil, err
	}

	points := make([]Fig5Point, len(o.RecordSteps))
	medians, err := interleave(rounds, len(points), func(i int) ([]float64, error) {
		srv, err := preserv.Serve(preserv.NewService(store.New(store.NewMemoryBackend())), "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		client := preserv.NewClient(srv.URL, nil)
		session, err := Populate(client, o.RecordSteps[i], o.Seed)
		if err != nil {
			return nil, err
		}
		cnt, err := client.Count()
		if err != nil {
			return nil, err
		}

		// Use case 1: script comparison. Legacy selects the paper's
		// per-interaction access pattern — Figure 5 characterises the
		// scan path, not the indexed planner (internal/bench's indexed
		// benchmarks measure that comparison).
		compStart := cpuTime()
		cat, err := (&compare.Categorizer{Store: client, Legacy: true}).Categorize()
		if err != nil {
			return nil, err
		}
		compareCPU := cpuTime() - compStart

		// Use case 2: semantic validity.
		validator := &semval.Validator{
			Store:    client,
			Registry: regClient,
			Ontology: ontology.Bioinformatics(),
			Legacy:   true, // paper access pattern, as for compare above
		}
		semStart := cpuTime()
		rep, err := validator.ValidateSession(session)
		if err != nil {
			return nil, err
		}
		semvalCPU := cpuTime() - semStart

		if !rep.Valid() {
			return nil, fmt.Errorf("bench: synthetic population failed validation: %v", rep.Violations[0])
		}
		if cat.InteractionsScanned != cnt.Interactions {
			return nil, fmt.Errorf("bench: categorised %d of %d interactions", cat.InteractionsScanned, cnt.Interactions)
		}
		points[i].Interactions = cnt.Interactions
		if rep.Interactions > 0 {
			points[i].RegistryCallsPerInteraction = float64(rep.RegistryCalls) / float64(rep.Interactions)
		}
		return []float64{compareCPU.Seconds() * 1000, semvalCPU.Seconds() * 1000}, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range points {
		p := &points[i]
		p.CompareMillis, p.SemvalMillis = medians[i][0], medians[i][1]
		if progress != nil {
			fmt.Fprintf(progress, "fig5 n=%-5d compare=%9.2fms semval=%9.2fms regCalls/i=%.1f\n",
				p.Interactions, p.CompareMillis, p.SemvalMillis, p.RegistryCallsPerInteraction)
		}
	}
	return points, nil
}

// Fig5Summary quantifies Figure 5's claims: both series linear, and the
// semantic-validity slope a small multiple (paper: ≈11×) of the
// script-comparison slope.
type Fig5Summary struct {
	CompareFit stats.Fit
	SemvalFit  stats.Fit
	SlopeRatio float64
}

// SummarizeFig5 fits both series.
func SummarizeFig5(points []Fig5Point) (*Fig5Summary, error) {
	var xs, compY, semY []float64
	for _, p := range points {
		xs = append(xs, float64(p.Interactions))
		compY = append(compY, p.CompareMillis)
		semY = append(semY, p.SemvalMillis)
	}
	cf, err := stats.LinearFit(xs, compY)
	if err != nil {
		return nil, err
	}
	sf, err := stats.LinearFit(xs, semY)
	if err != nil {
		return nil, err
	}
	s := &Fig5Summary{CompareFit: cf, SemvalFit: sf}
	if cf.Slope > 0 {
		s.SlopeRatio = sf.Slope / cf.Slope
	}
	return s, nil
}

// RenderFig5 writes the series and summary.
func RenderFig5(w io.Writer, points []Fig5Point, summary *Fig5Summary) {
	fmt.Fprintf(w, "Figure 5: use-case execution time (process CPU ms, median of %d rounds) vs interaction records in store\n", rounds)
	fmt.Fprintf(w, "%-10s %16s %16s %12s\n", "records", "scriptCompare", "semanticCheck", "regCalls/i")
	for _, p := range points {
		fmt.Fprintf(w, "%-10d %16.2f %16.2f %12.1f\n",
			p.Interactions, p.CompareMillis, p.SemvalMillis, p.RegistryCallsPerInteraction)
	}
	if summary != nil {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "fit script-comparison:  %s\n", summary.CompareFit)
		fmt.Fprintf(w, "fit semantic-validity:  %s\n", summary.SemvalFit)
		fmt.Fprintf(w, "slope ratio semval/compare: %.1fx (paper: ~11x)\n", summary.SlopeRatio)
	}
}
