package preserv_test

// Full-stack integration test: the complete story of the paper in one
// scenario. Two runs of the protein compressibility experiment record
// provenance asynchronously into two distributed store instances; the
// stores are consolidated into a persistent kvdb-backed store; the
// execution-comparison use case detects the configuration change between
// the runs; the semantic-validity use case passes for the protein
// sessions; lineage tracing links the collated sample to the final
// results; and the consolidated store survives a restart.

import (
	"path/filepath"
	"testing"

	"preserv/internal/compare"
	"preserv/internal/core"
	"preserv/internal/experiment"
	"preserv/internal/ontology"
	"preserv/internal/prep"
	"preserv/internal/preserv"
	"preserv/internal/registry"
	"preserv/internal/semval"
	"preserv/internal/store"
	"preserv/internal/trace"
)

func startMemoryStore(t *testing.T) (*preserv.Client, *preserv.Server) {
	t.Helper()
	svc := preserv.NewService(store.New(store.NewMemoryBackend()))
	srv, err := preserv.Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return preserv.NewClient(srv.URL, nil), srv
}

func TestFullStackScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second end-to-end scenario")
	}

	// Two distributed store instances (the E8 deployment).
	client1, srv1 := startMemoryStore(t)
	client2, srv2 := startMemoryStore(t)

	// The registry with annotated service descriptions.
	reg := registry.NewRegistry()
	rsrv, err := registry.Serve(reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	regClient := registry.NewClient(rsrv.URL, nil)
	if err := experiment.PublishAll(regClient, []string{"gzip", "ppmz"}); err != nil {
		t.Fatal(err)
	}

	// Run 1: the baseline experiment, recording striped over both stores.
	params := experiment.Params{
		SampleBytes:  2 << 10,
		Permutations: 4,
		BatchSize:    2,
		Seed:         2005,
	}
	cfg := experiment.Config{
		Mode:       experiment.RecordSyncExtra, // scripts needed for use case 1
		StoreURLs:  []string{srv1.URL},
		JournalDir: t.TempDir(),
	}
	run1, err := experiment.Run(params, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Run 2: the ppmz service was reconfigured (higher order).
	params.ScriptConfigs = map[core.ActorID]string{
		experiment.CompressorService("ppmz"): "order=5",
	}
	cfg.StoreURLs = []string{srv2.URL}
	run2, err := experiment.Run(params, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Consolidate both stores into one persistent kvdb-backed store.
	kvDir := filepath.Join(t.TempDir(), "consolidated")
	kb, err := store.NewKVBackend(kvDir)
	if err != nil {
		t.Fatal(err)
	}
	consolidatedStore := store.New(kb)
	csvc := preserv.NewService(consolidatedStore)
	csrv, err := preserv.Serve(csvc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cclient := preserv.NewClient(csrv.URL, nil)
	accepted, err := preserv.Consolidate(cclient, client1, client2)
	if err != nil {
		t.Fatal(err)
	}
	if accepted == 0 {
		t.Fatal("consolidation moved nothing")
	}

	// Both sessions are discoverable in the consolidated store.
	sessions, err := cclient.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	foundSessions := map[string]bool{}
	for _, s := range sessions {
		foundSessions[s.String()] = true
	}
	if !foundSessions[run1.SessionID.String()] || !foundSessions[run2.SessionID.String()] {
		t.Fatalf("sessions missing after consolidation: %v", sessions)
	}

	// Use case 1 on the consolidated store: the ppmz change is detected.
	cat, err := (&compare.Categorizer{Store: cclient}).Categorize()
	if err != nil {
		t.Fatal(err)
	}
	diffs := cat.SameProcess(run1.SessionID, run2.SessionID)
	if len(diffs) != 1 || diffs[0].Service != experiment.CompressorService("ppmz") {
		t.Fatalf("diffs = %+v, want exactly the ppmz service", diffs)
	}

	// Use case 2 on the consolidated store: both sessions are valid.
	validator := &semval.Validator{
		Store:    cclient,
		Registry: regClient,
		Ontology: ontology.Bioinformatics(),
	}
	rep1, err := validator.ValidateSession(run1.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Valid() {
		t.Fatalf("run1 invalid: %v", rep1.Violations)
	}
	rep2, err := validator.ValidateSession(run2.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Valid() {
		t.Fatalf("run2 invalid: %v", rep2.Violations)
	}

	// Lineage on the consolidated store: the collated sample is an
	// ancestor of the results table.
	g, err := trace.Build(cclient, run1.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := cclient.Query(&prep.Query{
		SessionID: run1.SessionID,
		Kind:      core.KindInteraction.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var sampleID, resultsID = run1.SessionID, run1.SessionID // placeholders, reassigned below
	foundSample, foundResults := false, false
	for i := range records {
		ip := records[i].Interaction
		switch ip.Interaction.Receiver {
		case experiment.SvcCollate:
			for _, p := range ip.Response.Parts {
				if p.Name == "sample" {
					sampleID, foundSample = p.DataID, true
				}
			}
		case experiment.SvcAverage:
			for _, p := range ip.Response.Parts {
				if p.Name == "results" {
					resultsID, foundResults = p.DataID, true
				}
			}
		}
	}
	if !foundSample || !foundResults {
		t.Fatal("sample/results data ids not found in consolidated records")
	}
	if !g.WasInputTo(sampleID, resultsID) {
		t.Error("lineage broken after consolidation: sample not an ancestor of results")
	}

	// Persistence: close everything, reopen the kvdb store, count again.
	wantCount, err := cclient.Count()
	if err != nil {
		t.Fatal(err)
	}
	csrv.Close()
	if err := consolidatedStore.Close(); err != nil {
		t.Fatal(err)
	}
	kb2, err := store.NewKVBackend(kvDir)
	if err != nil {
		t.Fatal(err)
	}
	reopened := store.New(kb2)
	defer reopened.Close()
	csrv2, err := preserv.Serve(preserv.NewService(reopened), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer csrv2.Close()
	gotCount, err := preserv.NewClient(csrv2.URL, nil).Count()
	if err != nil {
		t.Fatal(err)
	}
	if gotCount.Records != wantCount.Records {
		t.Errorf("restart lost records: %d -> %d", wantCount.Records, gotCount.Records)
	}

	// The experiment's science still holds end to end.
	for _, codec := range run1.Results.Codecs() {
		cs := run1.Results.PerCodec[codec]
		if cs.SampleRatio <= 0 || cs.MeanRatio <= 0 {
			t.Errorf("%s stats degenerate: %+v", codec, cs)
		}
	}
}
