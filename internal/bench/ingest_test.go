package bench

import (
	"fmt"
	"testing"
)

// BenchmarkIngest sweeps the batched write path over backends × writer
// counts × batch sizes. Run with -bench Ingest -benchtime to taste;
// records/s is the metric that matters.
func BenchmarkIngest(b *testing.B) {
	for _, backend := range []string{"memory", "file", "kvdb"} {
		for _, writers := range []int{1, 4, 8} {
			for _, batch := range []int{1, 25, 100} {
				name := fmt.Sprintf("%s/writers=%d/batch=%d", backend, writers, batch)
				b.Run(name, func(b *testing.B) {
					benchIngest(b, IngestOptions{
						Backend:   backend,
						Writers:   writers,
						BatchSize: batch,
						Records:   b.N,
					})
				})
			}
		}
	}
}

func benchIngest(b *testing.B, o IngestOptions) {
	b.ReportAllocs()
	r, err := RunIngest(o)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.RecordsPerSec, "records/s")
	b.ReportMetric(0, "ns/op") // wall time is the per-config Elapsed, not per-iteration
}

// TestIngestAllBackendsCorrect sanity-checks that every configuration
// the sweep exercises actually lands its records.
func TestIngestAllBackendsCorrect(t *testing.T) {
	for _, backend := range []string{"memory", "file", "kvdb"} {
		r, err := RunIngest(IngestOptions{Backend: backend, Writers: 4, BatchSize: 10, Records: 120})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if r.Records != 120 {
			t.Errorf("%s: recorded %d, want 120", backend, r.Records)
		}
	}
}
