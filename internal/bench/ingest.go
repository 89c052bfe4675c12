package bench

// Ingest benchmarking for the concurrent batched write path: records/sec
// through store.Store.Record across backends × writer counts × batch
// sizes.

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/ontology"
	"preserv/internal/store"
)

// IngestOptions configures one ingest measurement.
type IngestOptions struct {
	// Backend selects "memory", "file" or "kvdb".
	Backend string
	// Writers is how many goroutines record concurrently.
	Writers int
	// BatchSize is how many records each Record call carries.
	BatchSize int
	// Records is the total workload size across all writers.
	Records int
}

func (o IngestOptions) withDefaults() IngestOptions {
	if o.Backend == "" {
		o.Backend = "memory"
	}
	if o.Writers <= 0 {
		o.Writers = 1
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 100
	}
	if o.Records <= 0 {
		o.Records = 2000
	}
	return o
}

// IngestResult is one measured ingest configuration.
type IngestResult struct {
	Backend       string
	Writers       int
	BatchSize     int
	Records       int
	Elapsed       time.Duration
	RecordsPerSec float64
}

// ingestWorkload pre-generates per-writer record batches (measure-
// workflow shaped, distinct sessions per writer so writers do not
// contend on storage keys, which is the realistic multi-client shape).
func ingestWorkload(o IngestOptions) [][][]core.Record {
	perWriter := (o.Records + o.Writers - 1) / o.Writers
	work := make([][][]core.Record, o.Writers)
	for w := 0; w < o.Writers; w++ {
		src := &ids.SeqSource{Prefix: 0x16000 + uint64(w)<<24}
		gen := &populator{ids: src, session: src.NewID()}
		encoded := gen.value(ontology.TypeGroupEncoded)
		for len(gen.batch) < perWriter {
			gen.permutationUnit(encoded)
		}
		work[w] = slices.Collect(slices.Chunk(gen.batch[:perWriter], o.BatchSize))
	}
	return work
}

// withIngestStore opens a store on a fresh backend of the given flavour
// for fn, and closes and removes it afterwards.
func withIngestStore(backend string, fn func(s *store.Store) error) error {
	dir, err := os.MkdirTemp("", "preserv-ingest")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := store.Open(backend, dir)
	if err != nil {
		return err
	}
	defer s.Close()
	return fn(s)
}

// recordAll records every writer's batches into s, one goroutine per
// writer, and returns how many records it landed.
func recordAll(s *store.Store, work [][][]core.Record) (int, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(work))
	for w := range work {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, batch := range work[w] {
				acc, rejects, err := s.Record(batch[0].Asserter(), batch)
				if err == nil && (len(rejects) > 0 || acc != len(batch)) {
					err = fmt.Errorf("bench: ingest accepted %d/%d, %d rejects", acc, len(batch), len(rejects))
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for w, batches := range work {
		if errs[w] != nil {
			return 0, errs[w]
		}
		for _, batch := range batches {
			total += len(batch)
		}
	}
	return total, nil
}

// RunIngest measures one ingest configuration and reports records/sec.
func RunIngest(opts IngestOptions) (*IngestResult, error) {
	o := opts.withDefaults()
	work := ingestWorkload(o)
	var res *IngestResult
	err := withIngestStore(o.Backend, func(s *store.Store) error {
		start := time.Now()
		total, err := recordAll(s, work)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		res = &IngestResult{
			Backend:       o.Backend,
			Writers:       o.Writers,
			BatchSize:     o.BatchSize,
			Records:       total,
			Elapsed:       elapsed,
			RecordsPerSec: float64(total) / elapsed.Seconds(),
		}
		return nil
	})
	return res, err
}

// RunIngestSweep measures the write path across writer counts, writing
// one line per configuration.
func RunIngestSweep(backend string, writerCounts []int, batchSize, records int, w io.Writer) ([]IngestResult, error) {
	if len(writerCounts) == 0 {
		writerCounts = []int{1, 2, 4, 8}
	}
	var out []IngestResult
	for _, writers := range writerCounts {
		r, err := RunIngest(IngestOptions{
			Backend:   backend,
			Writers:   writers,
			BatchSize: batchSize,
			Records:   records,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, *r)
		if w != nil {
			fmt.Fprintf(w, "ingest %s writers=%d batch=%d: %.0f records/s (%.2fs for %d)\n",
				r.Backend, r.Writers, r.BatchSize, r.RecordsPerSec, r.Elapsed.Seconds(), r.Records)
		}
	}
	return out, nil
}
