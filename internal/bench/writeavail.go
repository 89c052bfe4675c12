package bench

// Write-availability benchmarking for the incremental compactors and
// the rotating async journal: ingest throughput measured WHILE a
// compaction loop runs against the same backend (vs the quiescent
// rate), and Record tail latency measured WHILE the async recorder's
// auto-flush seals and ships journals in the background. Each workload
// gates on store equivalence before anything is believed — the
// concurrent and quiescent sides must end holding byte-identical
// contents — and the floors below are enforced by `benchfig -exp
// writeavail` (non-zero exit when missed).

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sync"
	"time"

	"preserv/internal/client"
	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/preserv"
	"preserv/internal/store"
)

// Floors and ceilings: the write-availability claims CheckWriteAvailFloors
// turns into errors (benchfig exits non-zero on a miss).
const (
	// WriteAvailIngestFloor bounds how much ingest throughput a
	// concurrent compaction loop may take: writes racing the
	// snapshot-rewrite-swap protocol must keep at least this fraction
	// of the quiescent rate. A compactor that held the write lock for
	// its whole rewrite would drive this ratio toward zero over
	// compaction-dominated intervals.
	WriteAvailIngestFloor = 0.8
	// WriteAvailP99CeilingMillis caps the p99 Record latency while
	// auto-flush rotation and shipping run in the background: sealing
	// the active journal is an O(1) rename under the record lock, so no
	// Record call may stall behind a whole journal's network shipment.
	WriteAvailP99CeilingMillis = 25.0
)

// WriteAvailOptions sizes the sweep. Zero values select laptop-scale
// defaults; benchfig -paper raises them.
type WriteAvailOptions struct {
	// Batches and BatchSize shape the ingest corpus written while the
	// compactor runs (defaults 8 x 256).
	Batches   int
	BatchSize int
	// ValueBytes is the value size (default 1024).
	ValueBytes int
	// Records is how many interactions the tail-latency workload
	// records through the async journal (default 600).
	Records int
	// FlushEvery is the auto-flush threshold driving background
	// rotation during the tail-latency workload (default 64).
	FlushEvery int64
	Seed       int64
}

func (o *WriteAvailOptions) defaults() {
	if o.Batches <= 0 {
		o.Batches = 8
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.ValueBytes <= 0 {
		o.ValueBytes = 1024
	}
	if o.Records <= 0 {
		o.Records = 600
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = 64
	}
}

// WriteAvailResult is one workload's comparison: per-operation latency
// quiescent and under concurrent background work, the availability
// ratio (quiescent/concurrent — 1.0 means the background work cost
// nothing), the observed p99 in milliseconds where the workload tracks
// tails, and the enforced floor/ceiling (0 = report-only).
type WriteAvailResult struct {
	Workload         string
	Ops              int
	QuiescentMicros  float64
	ConcurrentMicros float64
	Ratio            float64
	P99Millis        float64
	Floor            float64
	CeilingMillis    float64
}

// CheckWriteAvailFloors returns an error naming every workload whose
// availability ratio fell below its floor or whose p99 exceeded its
// ceiling.
func CheckWriteAvailFloors(points []WriteAvailResult) error {
	var fails []string
	for _, p := range points {
		if p.Floor > 0 && p.Ratio < p.Floor {
			fails = append(fails, fmt.Sprintf("%s ratio %.2fx < %.2fx", p.Workload, p.Ratio, p.Floor))
		}
		if p.CeilingMillis > 0 && p.P99Millis > p.CeilingMillis {
			fails = append(fails, fmt.Sprintf("%s p99 %.2fms > %.2fms", p.Workload, p.P99Millis, p.CeilingMillis))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("write-availability floors missed: %v", fails)
	}
	return nil
}

// RunWriteAvailSweep runs the two workloads and returns their results.
func RunWriteAvailSweep(o WriteAvailOptions, progress io.Writer) ([]WriteAvailResult, error) {
	o.defaults()
	var results []WriteAvailResult
	for _, w := range []struct {
		name string
		run  func(WriteAvailOptions) (WriteAvailResult, error)
	}{
		{"compact-ingest-kvdb", runCompactIngest},
		{"journal-record-p99", runJournalRecordP99},
	} {
		fmt.Fprintf(progress, "writeavail: %s\n", w.name)
		p, err := w.run(o)
		if err != nil {
			return nil, fmt.Errorf("bench: writeavail %s: %w", w.name, err)
		}
		results = append(results, p)
	}
	return results, nil
}

// writeAvailCorpus builds the deterministic ingest batches plus the
// seed corpus whose deletions give the compactor standing work.
func writeAvailCorpus(o WriteAvailOptions) (seed []store.KV, doomed []string, batches [][]store.KV) {
	rng := rand.New(rand.NewSource(o.Seed))
	seed = make([]store.KV, 2*o.BatchSize)
	for i := range seed {
		v := make([]byte, o.ValueBytes)
		rng.Read(v)
		seed[i] = store.KV{Key: fmt.Sprintf("i/wa/seed/%06d", i), Value: v}
	}
	for i := 0; i < len(seed)/2; i++ {
		doomed = append(doomed, seed[i].Key)
	}
	batches = make([][]store.KV, o.Batches)
	for b := range batches {
		batches[b] = make([]store.KV, o.BatchSize)
		for i := range batches[b] {
			v := make([]byte, o.ValueBytes)
			rng.Read(v)
			batches[b][i] = store.KV{Key: fmt.Sprintf("i/wa/%03d/%06d", b, i), Value: v}
		}
	}
	return seed, doomed, batches
}

// backendContents snapshots a backend's live keys and values.
func backendContents(b store.Backend) (map[string]string, error) {
	out := make(map[string]string)
	err := b.ScanFrom("", "", func(k string, v []byte) error {
		out[k] = string(v)
		return nil
	})
	return out, err
}

// runCompactIngest writes the corpus into a quiescent kvdb backend and
// into an identical one with a compaction loop hammering it the whole
// time, in interleaved rounds, and compares the median wall-clock write
// latency: the claim is about writes waiting on the compactor. A run
// only counts if its backend ends holding the same contents as every
// other run (reflect.DeepEqual over every key and value) — availability
// bought with lost or corrupted writes is no availability at all.
func runCompactIngest(o WriteAvailOptions) (WriteAvailResult, error) {
	seed, doomed, batches := writeAvailCorpus(o)
	ops := o.Batches * o.BatchSize

	// Prefer a tmpfs when one is mounted, for the same reason the
	// read-path ingest gate does: this compares two code paths, and
	// disk writeback stalls would only add variance.
	tmpRoot := ""
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		tmpRoot = "/dev/shm"
	}

	// One run: seed garbage, optionally start the compaction loop, time
	// the batch writes, stop the loop, run one final compaction, and
	// check the contents against the first run's.
	var want map[string]string
	medians, err := interleave(rounds, 2, func(i int) ([]float64, error) {
		concurrent := i == 1
		dir, err := os.MkdirTemp(tmpRoot, "writeavail-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		b, err := store.NewKVBackend(dir)
		if err != nil {
			return nil, err
		}
		defer b.Close()
		if err := b.PutBatch(seed); err != nil {
			return nil, err
		}
		if err := b.DeleteBatch(doomed); err != nil {
			return nil, err
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var compactErr error
		if concurrent {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if err := b.Compact(); err != nil {
						compactErr = err
						return
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		start := time.Now()
		for _, batch := range batches {
			if err := b.PutBatch(batch); err != nil {
				close(stop)
				wg.Wait()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		close(stop)
		wg.Wait()
		if compactErr != nil {
			return nil, fmt.Errorf("concurrent compaction: %w", compactErr)
		}
		if err := b.Compact(); err != nil {
			return nil, err
		}
		got, err := backendContents(b)
		if err != nil {
			return nil, err
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(want, got) {
			return nil, fmt.Errorf("contents diverged: a run holds %d keys, another %d — a write was lost to the swap",
				len(want), len(got))
		}
		return []float64{elapsed.Seconds() * 1e6 / float64(ops)}, nil
	})
	if err != nil {
		return WriteAvailResult{}, err
	}
	qui, con := medians[0][0], medians[1][0]
	return WriteAvailResult{
		Workload: "compact-ingest-kvdb", Ops: ops,
		QuiescentMicros: qui, ConcurrentMicros: con,
		Ratio: qui / con, Floor: WriteAvailIngestFloor,
	}, nil
}

// writeAvailRecord builds one interaction record for the tail-latency
// workload.
func writeAvailRecord(src *ids.SeqSource, session ids.ID, n int) core.Record {
	in := core.Interaction{ID: src.NewID(), Sender: "svc:enactor", Receiver: "svc:gzip", Operation: "run"}
	return *core.NewInteractionRecord(&core.InteractionPAssertion{
		LocalID:     "e",
		Asserter:    "svc:enactor",
		Interaction: in,
		View:        core.SenderView,
		Request:     core.Message{Name: "invoke", Parts: []core.MessagePart{{Name: "in", DataID: src.NewID()}}},
		Response:    core.Message{Name: "result", Parts: []core.MessagePart{{Name: "out", DataID: src.NewID()}}},
		Groups:      []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: uint64(n + 1)}},
		Timestamp:   time.Date(2026, 7, 3, 11, 0, 0, n, time.UTC),
	})
}

// runJournalRecordP99 measures the Record call's wall-clock latency
// through the rotating async journal, in interleaved rounds: with
// auto-flush disabled (the journal only ever grows — the quiescent
// baseline) and with auto-flush sealing and shipping every FlushEvery
// records while the caller keeps recording. The gate is the ceiling on
// the concurrent median p99: sealing is an O(1) rename, so no Record may
// wait out a network shipment. Equivalence gate: the store must end
// holding exactly the recorded set.
func runJournalRecordP99(o WriteAvailOptions) (WriteAvailResult, error) {
	medians, err := interleave(rounds, 2, func(i int) ([]float64, error) {
		var flushEvery int64
		if i == 1 {
			flushEvery = o.FlushEvery
		}
		ids1 := &ids.SeqSource{Prefix: 0xA7}
		s := store.New(store.NewMemoryBackend())
		srv, err := preserv.Serve(preserv.NewService(s), "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		dir, err := os.MkdirTemp("", "writeavail-journal-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		r, err := client.NewAsyncRecorder("svc:enactor", dir+"/journal", 50, preserv.NewClient(srv.URL, nil))
		if err != nil {
			return nil, err
		}
		if flushEvery > 0 {
			r.SetAutoFlushThreshold(flushEvery)
		}
		session := ids1.NewID()
		wantKeys := make(map[string]bool, o.Records)
		lats := make([]time.Duration, 0, o.Records)
		for i := 0; i < o.Records; i++ {
			rec := writeAvailRecord(ids1, session, i)
			wantKeys[rec.StorageKey()] = true
			start := time.Now()
			if err := r.Record(rec); err != nil {
				r.Close()
				return nil, err
			}
			lats = append(lats, time.Since(start))
		}
		if err := r.Close(); err != nil { // ships whatever auto-flush has not
			return nil, err
		}
		if aerr := r.AutoFlushErr(); aerr != nil {
			return nil, fmt.Errorf("auto-flush failed during run: %w", aerr)
		}
		// Equivalence gate: every recorded interaction — and nothing
		// else — made it to the store.
		shipped, _, err := s.Query(&prep.Query{})
		if err != nil {
			return nil, err
		}
		gotKeys := make(map[string]bool, len(shipped))
		for i := range shipped {
			gotKeys[shipped[i].StorageKey()] = true
		}
		if !reflect.DeepEqual(gotKeys, wantKeys) {
			return nil, fmt.Errorf("store holds %d records, recorded %d — journal rotation lost or duplicated work",
				len(gotKeys), len(wantKeys))
		}
		var total time.Duration
		for _, l := range lats {
			total += l
		}
		slices.Sort(lats)
		p99 := lats[(len(lats)*99+99)/100-1]
		return []float64{float64(total.Microseconds()) / float64(len(lats)), float64(p99.Microseconds()) / 1e3}, nil
	})
	if err != nil {
		return WriteAvailResult{}, err
	}
	qui, con := medians[0][0], medians[1][0]
	return WriteAvailResult{
		Workload: "journal-record-p99", Ops: o.Records,
		QuiescentMicros: qui, ConcurrentMicros: con,
		Ratio: qui / con, P99Millis: medians[1][1],
		CeilingMillis: WriteAvailP99CeilingMillis,
	}, nil
}

// RenderWriteAvail prints the sweep as a table.
func RenderWriteAvail(w io.Writer, points []WriteAvailResult) {
	fmt.Fprintf(w, "Write availability under background compaction and journal shipping (us/op)\n")
	fmt.Fprintf(w, "%-20s %8s %10s %10s %7s %9s %9s %6s\n",
		"workload", "ops", "quiescent", "during", "avail", "p99(ms)", "bound", "gate")
	for _, p := range points {
		bound, gate := "-", "-"
		if p.Floor > 0 {
			bound = fmt.Sprintf(">=%.2fx", p.Floor)
			if p.Ratio >= p.Floor {
				gate = "pass"
			} else {
				gate = "FAIL"
			}
		}
		if p.CeilingMillis > 0 {
			bound = fmt.Sprintf("<=%.0fms", p.CeilingMillis)
			if p.P99Millis <= p.CeilingMillis {
				gate = "pass"
			} else {
				gate = "FAIL"
			}
		}
		p99 := "-"
		if p.P99Millis > 0 {
			p99 = fmt.Sprintf("%.2f", p.P99Millis)
		}
		fmt.Fprintf(w, "%-20s %8d %10.2f %10.2f %6.2fx %9s %9s %6s\n",
			p.Workload, p.Ops, p.QuiescentMicros, p.ConcurrentMicros, p.Ratio, p99, bound, gate)
	}
}
