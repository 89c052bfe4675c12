package bench

// Ingest benchmarking for the concurrent batched write path: records/sec
// through store.Store.Record across backends × writer counts × batch
// sizes.

import (
	"fmt"
	"io"
	"os"
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

// ingestBackend opens the requested backend flavour in dir (ignored for
// memory).
func ingestBackend(flavour, dir string) (store.Backend, error) {
	switch flavour {
	case "memory":
		return store.NewMemoryBackend(), nil
	case "file", "kvdb":
		return store.NewKVBackend(dir)
	}
	return nil, fmt.Errorf("bench: unknown backend %q", flavour)
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
		records := gen.batch[:perWriter]
		var batches [][]core.Record
		for len(records) > 0 {
			n := o.BatchSize
			if n > len(records) {
				n = len(records)
			}
			batches = append(batches, records[:n])
			records = records[n:]
		}
		work[w] = batches
	}
	return work
}

// RunIngest measures one ingest configuration and reports records/sec.
func RunIngest(opts IngestOptions) (*IngestResult, error) {
	o := opts.withDefaults()
	dir, err := os.MkdirTemp("", "preserv-ingest")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b, err := ingestBackend(o.Backend, dir)
	if err != nil {
		return nil, err
	}
	defer b.Close()

	work := ingestWorkload(o)
	total := 0
	for _, batches := range work {
		for _, batch := range batches {
			total += len(batch)
		}
	}

	s := store.New(b)
	record := func(batch []core.Record) error {
		acc, rejects, err := s.Record(batch[0].Asserter(), batch)
		if err != nil {
			return err
		}
		if len(rejects) > 0 || acc != len(batch) {
			return fmt.Errorf("bench: ingest accepted %d/%d, %d rejects", acc, len(batch), len(rejects))
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make([]error, o.Writers)
	start := time.Now()
	for w := range work {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, batch := range work[w] {
				if err := record(batch); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &IngestResult{
		Backend:       o.Backend,
		Writers:       o.Writers,
		BatchSize:     o.BatchSize,
		Records:       total,
		Elapsed:       elapsed,
		RecordsPerSec: float64(total) / elapsed.Seconds(),
	}, nil
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
