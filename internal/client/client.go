// Package client provides the actor-side recording API for PReP. The
// protocol specifies how p-assertions are recorded but deliberately not
// when; this package implements the strategies the paper evaluates in
// Figure 4:
//
//   - NullRecorder: no recording (the baseline);
//   - SyncRecorder: each p-assertion is shipped to the store by a web
//     service invocation as execution proceeds;
//   - AsyncRecorder: p-assertions are accumulated locally in a file and
//     shipped to the store after execution, in batches — the strategy
//     whose overhead the paper reports as staying under 10%.
//
// An AsyncRecorder may ship to several store endpoints round-robin,
// which implements the paper's future-work "distributed PReServ" and is
// measured by experiment E8.
//
// A record the store refuses (invalid, or a different record under a
// stored key) is the store's verdict on that record, not a failure to
// reach the store. The AsyncRecorder counts the records the store
// accepted as shipped, reports the first refusal once (ErrRejected, in
// the Flush or Close error and in that flush's failed client.flush
// entry) and removes the journal file. Only a file that could not reach
// the store is kept whole, to be shipped again by the next flush.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"preserv/internal/core"
	"preserv/internal/obs"
	"preserv/internal/preserv"
)

// Recorder accepts p-assertions from an actor. Implementations must be
// safe for concurrent use by the workflow engine's parallel activities.
type Recorder interface {
	// Record accepts p-assertions for eventual storage.
	Record(records ...core.Record) error
	// Flush ships anything pending and blocks until it is stored.
	Flush() error
	// Close flushes and releases resources.
	Close() error
}

// Stats reports how much a recorder has processed.
type Stats struct {
	// Recorded counts p-assertions accepted by Record.
	Recorded int64
	// Shipped counts p-assertions confirmed stored.
	Shipped int64
	// FlushRetries counts re-ship attempts of sealed journal files whose
	// earlier ship failed — the signal that an endpoint is flapping.
	FlushRetries int64
}

// StatsReporter is implemented by recorders that track Stats.
type StatsReporter interface {
	Stats() Stats
}

// ErrRejected is returned when the store refuses records.
var ErrRejected = errors.New("client: store rejected records")

// NullRecorder drops all records: the paper's "without recording
// p-assertions" configuration.
type NullRecorder struct{}

// Record implements Recorder.
func (NullRecorder) Record(...core.Record) error { return nil }

// Flush implements Recorder.
func (NullRecorder) Flush() error { return nil }

// Close implements Recorder.
func (NullRecorder) Close() error { return nil }

// SyncRecorder ships every Record call immediately by direct service
// invocation of the provenance store.
type SyncRecorder struct {
	client   *preserv.Client
	asserter core.ActorID
	recorded atomic.Int64
	shipped  atomic.Int64
}

// NewSyncRecorder returns a synchronous recorder for the given asserter.
func NewSyncRecorder(c *preserv.Client, asserter core.ActorID) *SyncRecorder {
	return &SyncRecorder{client: c, asserter: asserter}
}

// Record implements Recorder.
func (r *SyncRecorder) Record(records ...core.Record) error {
	if len(records) == 0 {
		return nil
	}
	r.recorded.Add(int64(len(records)))
	resp, err := r.client.Record(r.asserter, records)
	if err != nil {
		return err
	}
	r.shipped.Add(int64(resp.Accepted))
	if len(resp.Rejects) > 0 {
		return fmt.Errorf("%w: %d rejects, first: %s", ErrRejected, len(resp.Rejects), resp.Rejects[0].Reason)
	}
	return nil
}

// Flush implements Recorder (synchronous recording has nothing pending).
func (r *SyncRecorder) Flush() error { return nil }

// Close implements Recorder.
func (r *SyncRecorder) Close() error { return nil }

// Stats implements StatsReporter.
func (r *SyncRecorder) Stats() Stats {
	return Stats{Recorded: r.recorded.Load(), Shipped: r.shipped.Load()}
}

// DefaultBatchSize is how many p-assertions an AsyncRecorder ships per
// store invocation during Flush.
const DefaultBatchSize = 100

// DefaultFlushConcurrency is how many record batches an AsyncRecorder
// keeps in flight at once during Flush.
const DefaultFlushConcurrency = 4

// AsyncRecorder accumulates p-assertions in a local journal file and
// ships them on Flush. Record is cheap — "p-assertion recording may
// require just a few milliseconds to prepare a record to be temporarily
// stored in a file and submitted asynchronously".
//
// Journals rotate: a flush first SEALS the active journal — an O(1)
// rename under the record lock — then ships the sealed file with no
// record lock held, while new Record calls append to a fresh active
// journal. Recording therefore never waits on network shipping, and a
// failed ship re-ships one sealed file instead of the whole backlog.
// Journal files left behind by a crash (the recorder died with records
// in its active journal, mid-rotation or mid-ship) are adopted on the
// next open and re-enter the pending backlog. journal.go holds the
// journal's format.
//
// Shipping is a streaming pipeline: the sealed journal is decoded
// incrementally and batches ship through a bounded pool of concurrent
// POSTs, batches striped round-robin across the configured endpoints.
// The bounded channel between decoder and shippers is the backpressure
// — at most roughly 2× the concurrency's worth of batches is ever
// materialised, however large the backlog grew.
type AsyncRecorder struct {
	// provlint:lock-order 20
	mu          sync.Mutex
	asserter    core.ActorID
	clients     []*preserv.Client
	journal     *os.File
	bw          *bufio.Writer
	frames      []byte // Record's scratch: the call's frames
	path        string
	batchSize   int
	concurrency int
	// pending is the total backlog: records in the active journal
	// (activeCount) plus every sealed journal's count.
	pending     int64
	activeCount int64
	// sealSeq numbers sealed journal files; sealed lists them
	// oldest-first. Both are guarded by mu; a sealed file's contents are
	// only touched by the shipper holding shipMu.
	sealSeq uint64
	sealed  []*sealedJournal
	// shipMu serialises shippers (background auto-flush, explicit Flush,
	// Close) against each other. Ordered above mu: a shipper takes
	// shipMu first and mu only in short sections, so Record calls keep
	// flowing while a ship is on the wire.
	// provlint:lock-order 10
	shipMu sync.Mutex
	// flushRetries counts re-ship attempts of sealed files whose earlier
	// ship failed (Stats.FlushRetries).
	flushRetries atomic.Int64
	recorded     atomic.Int64
	// shipped counts p-assertions confirmed stored. Workers add to it
	// live during a ship; a failed ship rolls it back to the value it
	// had when that sealed file's ship started (the file is kept whole,
	// so the retry re-ships and re-counts everything — without the
	// rollback every retried batch would double-count, since the store
	// accepts idempotent re-records, and Shipped could exceed Recorded).
	shipped atomic.Int64
	// rr is the round-robin endpoint cursor. It lives on the recorder —
	// not inside one flush — so consecutive flushes continue around the
	// endpoint ring instead of each restarting at endpoint 0, which
	// under small frequent auto-flushes starved every endpoint but the
	// first.
	rr     atomic.Uint64
	closed bool
	// autoFlushAt triggers a background flush once pending reaches it
	// (0 disables); flushing marks one in flight so Record never stacks
	// a second goroutine behind it. retryAt is the failure backoff:
	// after a failed background flush it holds the backlog level that
	// must accumulate before another attempt, so a dead endpoint costs
	// one failed flush per threshold's worth of new records instead of
	// one O(journal) attempt per Record call.
	autoFlushAt int64
	retryAt     int64
	flushing    bool
	// autoFlushErr keeps the most recent background-flush failure for
	// AutoFlushErr. A file that could not reach the store is kept whole,
	// and the next flush (background or explicit) re-ships it; a refused
	// record is reported here once and not re-shipped.
	autoFlushErr error
	// reg holds the recorder's telemetry: flush latency and the journal
	// backlog gauge. The gauge mirrors pending so an operator scraping
	// the recorder's registry sees the backlog without taking r.mu.
	reg            *obs.Registry
	flushSec       *obs.Histogram
	journalPending *obs.Gauge
}

// sealedExt suffixes rotated-out journal files: <journal>.<seq>.sealed.
const sealedExt = ".sealed"

// sealedJournal is one rotated-out journal file awaiting shipment.
type sealedJournal struct {
	path string
	// count is how many records the file holds, for pending accounting.
	count int64
	// failed marks a file whose last ship could not reach the store, so
	// its next ship is a retry (Stats.FlushRetries). Mutated only under
	// shipMu.
	failed bool
	// recovered marks a file adopted from a crashed predecessor: its
	// tail may be torn, so the shipper treats a decode error as the end
	// of the clean prefix rather than corruption.
	recovered bool
}

// NewAsyncRecorder creates an asynchronous recorder journaling to
// journalPath and shipping to the given endpoints (at least one).
// batchSize <= 0 selects DefaultBatchSize. The journal files a crashed
// predecessor left are adopted — its sealed files beside journalPath,
// and its active journal, which is sealed first under the next sequence
// number: their clean prefixes re-enter the pending backlog and ship
// with the next flush.
func NewAsyncRecorder(asserter core.ActorID, journalPath string, batchSize int, clients ...*preserv.Client) (*AsyncRecorder, error) {
	if len(clients) == 0 {
		return nil, errors.New("client: async recorder needs at least one store endpoint")
	}
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	reg := obs.NewRegistry()
	adopt := reg.Tracer().StartEvent("client.adopt") // ended only if there is something to adopt
	// Every journal is read before any is renamed or removed, so that a
	// gob journal refuses the open with the directory as it was.
	dir, base := filepath.Split(journalPath)
	if dir == "" {
		dir = "."
	}
	var (
		found   []*sealedJournal
		sealSeq uint64
	)
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries { // ReadDir sorts: oldest first
			n := e.Name()
			if !strings.HasPrefix(n, base+".") || !strings.HasSuffix(n, sealedExt) {
				continue
			}
			seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(n, base+"."), sealedExt), 10, 64)
			if err != nil {
				continue
			}
			sealSeq = max(sealSeq, seq)
			found = append(found, &sealedJournal{path: filepath.Join(dir, n), recovered: true})
		}
	}
	if st, err := os.Stat(journalPath); err == nil && st.Size() > 0 {
		found = append(found, &sealedJournal{path: journalPath, recovered: true})
	}
	for _, sj := range found {
		var err error
		if sj.count, err = countJournalRecords(sj.path); err != nil {
			return nil, err
		}
	}
	sealed, pending := found[:0], int64(0)
	for _, sj := range found {
		if sj.count == 0 {
			os.Remove(sj.path) // nothing recoverable in it
			continue
		}
		if sj.path == journalPath { // a predecessor's active journal
			sealSeq++
			sj.path = fmt.Sprintf("%s.%06d%s", journalPath, sealSeq, sealedExt)
			if err := os.Rename(journalPath, sj.path); err != nil {
				return nil, fmt.Errorf("client: sealing a predecessor's journal: %w", err)
			}
		}
		sealed = append(sealed, sj)
		pending += sj.count
	}
	f, err := os.OpenFile(journalPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("client: opening journal: %w", err)
	}
	if len(sealed) > 0 {
		adopt.SetAttr("journals", strconv.Itoa(len(sealed))).
			SetAttr("records", strconv.FormatInt(pending, 10)).End(nil)
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	r := &AsyncRecorder{
		asserter:       asserter,
		clients:        clients,
		journal:        f,
		bw:             bw,
		path:           journalPath,
		batchSize:      batchSize,
		sealSeq:        sealSeq,
		sealed:         sealed,
		pending:        pending,
		reg:            reg,
		flushSec:       reg.Histogram("client_flush_seconds", nil),
		journalPending: reg.Gauge("client_journal_pending"),
	}
	r.journalPending.Set(pending)
	bw.WriteString(journalMagic) // a bufio.Writer's error waits for its Flush
	return r, nil
}

// Obs returns the recorder's telemetry registry: client_flush_seconds
// (latency of each flush, batching and shipping included),
// client_journal_pending (the journal backlog, live) and the tracer's
// ring, the recorder's history: the adoption of a predecessor's
// journals (client.adopt) and every background flush that failed.
func (r *AsyncRecorder) Obs() *obs.Registry { return r.reg }

// SetFlushConcurrency bounds how many batches Flush keeps in flight at
// once; n <= 0 restores DefaultFlushConcurrency.
func (r *AsyncRecorder) SetFlushConcurrency(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.concurrency = n
}

// SetAutoFlushThreshold arranges for a background flush whenever the
// journal backlog reaches n pending records, so a long-running actor
// ships continuously instead of accumulating everything until an
// explicit Flush or Close. n <= 0 disables (the default — the paper's
// record-everything-then-ship-after-execution mode). Crossing the
// threshold seals the active journal (an O(1) rename) and ships the
// sealed file in the background, so Record calls keep flowing into a
// fresh journal while the ship is on the wire. A background ship that
// cannot reach the store keeps the sealed file whole (the next flush
// re-ships, idempotent recording absorbs the overlap); its error, or a
// refused record's, is reported by AutoFlushErr.
func (r *AsyncRecorder) SetAutoFlushThreshold(n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.autoFlushAt = n
	r.retryAt = 0
}

// AutoFlushErr returns (and clears) the most recent background-flush
// failure, nil if none since the last call.
func (r *AsyncRecorder) AutoFlushErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.autoFlushErr
	r.autoFlushErr = nil
	return err
}

// maybeAutoFlushLocked seals the active journal and spawns the
// background shipper when the backlog crossed the threshold and none is
// already in flight. The seal is O(1) (rename + reopen) so the Record
// call paying for it barely notices; the shipping happens off-lock.
// Callers hold r.mu.
//
// provlint:requires mu
func (r *AsyncRecorder) maybeAutoFlushLocked() {
	if r.autoFlushAt <= 0 || r.pending < r.autoFlushAt || r.pending < r.retryAt || r.flushing || r.closed {
		return
	}
	if err := r.sealActiveLocked(); err != nil {
		r.autoFlushErr = err
		return
	}
	r.flushing = true
	go func() {
		ev := r.reg.Tracer().StartEvent("client.flush")
		err := r.shipSealed()
		if err != nil {
			ev.End(err) // only a failed background flush enters the history
		}
		r.flushSec.Observe(ev.Duration().Seconds())
		r.mu.Lock()
		defer r.mu.Unlock()
		r.flushing = false
		if err != nil {
			r.autoFlushErr = err
			// Back off: the sealed files are whole, so re-attempting on
			// the very next Record would just replay the same failure.
			// Wait for another threshold's worth of backlog first.
			r.retryAt = r.pending + r.autoFlushAt
		} else {
			r.retryAt = 0
		}
	}()
}

// Record implements Recorder: it only appends to the local journal.
func (r *AsyncRecorder) Record(records ...core.Record) error {
	if len(records) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errors.New("client: recorder closed")
	}
	frames := r.frames[:0]
	for i := range records {
		var err error
		if frames, err = appendFrame(frames, &records[i]); err != nil {
			return fmt.Errorf("client: journaling record: %w", err)
		}
	}
	r.frames = frames
	if _, err := r.bw.Write(frames); err != nil {
		return fmt.Errorf("client: journaling records: %w", err)
	}
	r.activeCount += int64(len(records))
	r.pending += int64(len(records))
	r.journalPending.Set(r.pending)
	r.recorded.Add(int64(len(records)))
	r.maybeAutoFlushLocked()
	return nil
}

// Rotate seals the active journal — an O(1) rename — without shipping
// it: the records become a sealed file the next flush (background or
// explicit) ships. Exposed for tests and crash harnesses that need the
// mid-rotation on-disk state.
func (r *AsyncRecorder) Rotate() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errors.New("client: recorder closed")
	}
	return r.sealActiveLocked()
}

// sealActiveLocked rotates the active journal out: flush the buffer,
// rename the file to <journal>.<seq>.sealed, and start a fresh journal.
// No-op when the active journal is empty. Callers hold r.mu.
//
// provlint:requires mu
func (r *AsyncRecorder) sealActiveLocked() error {
	if r.activeCount == 0 {
		return nil
	}
	if err := r.bw.Flush(); err != nil {
		return fmt.Errorf("client: flushing journal buffer: %w", err)
	}
	if err := r.journal.Close(); err != nil {
		return fmt.Errorf("client: closing journal for rotation: %w", err)
	}
	r.sealSeq++
	sp := fmt.Sprintf("%s.%06d%s", r.path, r.sealSeq, sealedExt)
	if err := os.Rename(r.path, sp); err != nil {
		// The records still sit at r.path; reopen it and append to it,
		// so the recorder stays usable.
		r.sealSeq--
		f, oerr := os.OpenFile(r.path, os.O_RDWR|os.O_CREATE, 0o644)
		if oerr == nil {
			if _, oerr = f.Seek(0, io.SeekEnd); oerr == nil {
				r.journal = f
				r.bw.Reset(f)
			}
		}
		return fmt.Errorf("client: sealing journal: %w", err)
	}
	f, err := os.OpenFile(r.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("client: reopening journal after rotation: %w", err)
	}
	r.journal = f
	r.bw.Reset(f)
	r.bw.WriteString(journalMagic)
	r.sealed = append(r.sealed, &sealedJournal{path: sp, count: r.activeCount})
	r.activeCount = 0
	return nil
}

// Flush seals the active journal and ships every sealed file to the
// configured endpoints in batches, striped round-robin when several
// endpoints are configured. Shipped files are removed, and so are their
// refused records: the error reports the first refusal, once.
func (r *AsyncRecorder) Flush() error {
	r.mu.Lock()
	if err := r.sealActiveLocked(); err != nil {
		r.mu.Unlock()
		return err
	}
	pending := r.pending
	r.mu.Unlock()
	if pending == 0 {
		return nil
	}
	span := r.reg.Tracer().StartSpan("client.flush").
		SetAttr("pending", strconv.FormatInt(pending, 10))
	err := r.shipSealed()
	span.Observe(r.flushSec, err)
	if err == nil {
		r.mu.Lock()
		r.retryAt = 0 // the endpoint evidently recovered
		r.mu.Unlock()
	}
	return err
}

// shipSealed ships sealed journals oldest-first until none remain, or
// one could not reach the store, which stays whole for the next flush.
// A refused record is the store's verdict on it, which a retry would
// only repeat: its file counts as shipped, deducted from pending and
// removed like any other, and the first refusal is returned, once.
// Callers must NOT hold r.mu.
func (r *AsyncRecorder) shipSealed() error {
	r.shipMu.Lock()
	defer r.shipMu.Unlock()
	var refused error
	for {
		r.mu.Lock()
		var sj *sealedJournal
		if len(r.sealed) > 0 {
			sj = r.sealed[0] // only this loop removes a file
		}
		workers := r.concurrency
		r.mu.Unlock()
		if sj == nil {
			return refused
		}
		if sj.failed {
			r.flushRetries.Add(1)
		}
		rejected, err := r.shipJournal(sj, workers)
		if err != nil {
			sj.failed = true
			return errors.Join(refused, err)
		}
		if refused == nil {
			refused = rejected
		}
		r.mu.Lock()
		r.sealed = slices.Delete(r.sealed, 0, 1)
		r.pending -= sj.count
		r.journalPending.Set(r.pending)
		r.mu.Unlock()
		os.Remove(sj.path)
	}
}

// shipJournal decodes one sealed journal and ships its batches through
// the bounded worker pipeline. It returns the first refusal of a record,
// if any, or err when the file could not be read or a batch could not
// reach the store: the file is then left whole and the shipped counter
// rolls back to this ship's starting point.
func (r *AsyncRecorder) shipJournal(sj *sealedJournal, workers int) (refused, err error) {
	f, err := os.Open(sj.path)
	if err != nil {
		return nil, fmt.Errorf("client: opening sealed journal: %w", err)
	}
	defer f.Close()
	jr, err := newJournalReader(f, sj.path)
	if err != nil {
		return nil, fmt.Errorf("client: reading journal: %w", err)
	}

	if workers <= 0 {
		workers = DefaultFlushConcurrency
	}

	// shippedBase is this ship's rollback point: workers add confirmed
	// batches to r.shipped as they land (so Stats sees live progress),
	// and a failed ship restores the starting value — the file is kept
	// whole, the retry re-ships everything, and counting any batch
	// twice would let Shipped exceed Recorded (the store accepts
	// idempotent re-records as accepted).
	shippedBase := r.shipped.Load()

	// Decode → ship pipeline. The channel's bound is the backpressure:
	// once every worker is mid-POST and the queue is full, the decoder
	// blocks instead of materialising the rest of the backlog.
	batches := make(chan []core.Record, workers)
	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		errOnce  sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errOnce.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errOnce.Unlock()
		failed.Store(true)
	}
	refuse := func(err error) {
		errOnce.Lock()
		if refused == nil {
			refused = err
		}
		errOnce.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for records := range batches {
				if failed.Load() {
					continue // drain the channel without shipping
				}
				// Round-robin striping (E8's distributed submission),
				// continuing where the previous flush left the ring.
				ci := int(r.rr.Add(1)-1) % len(r.clients)
				resp, err := r.clients[ci].Record(r.asserter, records)
				if err != nil {
					fail(err)
					continue
				}
				r.shipped.Add(int64(resp.Accepted))
				if len(resp.Rejects) > 0 {
					refuse(fmt.Errorf("%w: %d rejects, first: %s",
						ErrRejected, len(resp.Rejects), resp.Rejects[0].Reason))
				}
			}
		}()
	}

	var decodeErr error
	for !failed.Load() {
		records, err := jr.batch(r.batchSize)
		if err != nil && err != io.EOF && !sj.recovered {
			// A recovered file may end in a torn tail (the writer
			// crashed mid-write): its clean prefix ships, the tail
			// is gone either way. A file this process sealed was
			// fully flushed before the rename, so any bad frame
			// there is real corruption.
			decodeErr = fmt.Errorf("client: reading journal: %w", err)
			break
		}
		if len(records) > 0 {
			batches <- records
		}
		if err != nil {
			break
		}
	}
	close(batches)
	wg.Wait()
	errOnce.Lock()
	err = firstErr
	errOnce.Unlock()
	if decodeErr != nil {
		err = decodeErr
	}
	if err != nil {
		// The sealed file is kept whole: the retry re-ships everything
		// and the store's idempotent recording absorbs the overlap — so
		// the shipped counter must forget this attempt's partial
		// progress, or the retry would count those batches twice.
		r.shipped.Store(shippedBase)
		return nil, err
	}
	return refused, nil
}

// Pending reports how many records await shipping (active journal plus
// sealed files).
func (r *AsyncRecorder) Pending() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending
}

// Close flushes, then closes the journal. Shipped files are removed, and
// so is the active journal when it is empty; every file that did not
// ship stays on disk, so the next NewAsyncRecorder on the same path
// adopts it and ships it then. The error says why Close could not ship.
func (r *AsyncRecorder) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	sealErr := r.sealActiveLocked()
	r.closed = true
	r.mu.Unlock()

	var shipErr error
	if sealErr == nil {
		shipErr = r.shipSealed()
	}

	r.shipMu.Lock()
	r.mu.Lock()
	closeErr := r.journal.Close()
	if r.activeCount == 0 {
		os.Remove(r.path)
	}
	r.mu.Unlock()
	r.shipMu.Unlock()

	if sealErr != nil {
		return sealErr
	}
	if shipErr != nil {
		return shipErr
	}
	return closeErr
}

// Stats implements StatsReporter.
func (r *AsyncRecorder) Stats() Stats {
	return Stats{
		Recorded:     r.recorded.Load(),
		Shipped:      r.shipped.Load(),
		FlushRetries: r.flushRetries.Load(),
	}
}
