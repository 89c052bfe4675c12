package store

// Tests for the concurrent batched write path: packed posting segments
// on the file backend, striped commit locking, and the one-flush-per-
// Record index maintenance.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/prep"
)

// TestFileBackendPackedPostings verifies the headline file-count fix:
// recording a record must not cost one file pair per index posting
// (~20 pairs before packing). Postings flush through PutBatch, which
// packs the whole call into one segment file.
func TestFileBackendPackedPostings(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(fb)
	session := seq.NewID()
	const n = 10
	recs := make([]core.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, mkInteraction(session, "svc:gzip", fmt.Sprintf("op%d", i)))
	}
	acc, rej, err := s.Record("svc:enactor", recs)
	if err != nil || acc != n || len(rej) != 0 {
		t.Fatalf("Record: acc=%d rej=%v err=%v", acc, rej, err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	segments := 0
	for _, e := range entries {
		files++
		if strings.HasSuffix(e.Name(), segExt) {
			segments++
		}
		// No posting may own a record-file pair: every .key sidecar must
		// belong to a record or an index marker, never an "x/" posting.
		if strings.HasSuffix(e.Name(), ".key") {
			key, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(string(key), "x/") {
				t.Errorf("posting %q written as its own file pair", key)
			}
		}
	}
	if segments == 0 {
		t.Fatal("no packed segment file written for the posting batch")
	}
	// Pre-refactor cost was ~20 posting file pairs per record (~40 extra
	// files each). Now: 2 files per record, plus a handful of index
	// marker pairs and one segment per Record call.
	if files >= 3*n {
		t.Errorf("%d files for %d records — posting writes are not packed", files, n)
	}

	// The packed layout must survive a reopen.
	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(fb2)
	_, total, err := s2.Query(&prep.Query{})
	if err != nil || total != n {
		t.Fatalf("after reopen: total=%d err=%v, want %d", total, err, n)
	}
	ix, err := s2.Index()
	if err != nil {
		t.Fatal(err)
	}
	postings, err := ix.Postings("sess", session.String())
	if err != nil || len(postings) != n {
		t.Fatalf("session postings after reopen = %d err=%v, want %d", len(postings), err, n)
	}
}

// TestFileBackendTornSegmentTail verifies recovery: a torn batch write
// keeps the segment's intact prefix and drops only the damaged tail.
func TestFileBackendTornSegmentTail(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.PutBatch([]KV{
		{Key: "a", Value: []byte("alpha")},
		{Key: "b", Value: []byte("beta")},
		{Key: "c", Value: []byte("gamma")},
	}); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	var segPath string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segExt) {
			segPath = filepath.Join(dir, e.Name())
		}
	}
	if segPath == "" {
		t.Fatal("no segment written")
	}
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the last entry's CRC: "c" must be dropped, "a"/"b" kept.
	if err := os.WriteFile(segPath, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"a": "alpha", "b": "beta"} {
		v, ok, err := fb2.Get(key)
		if err != nil || !ok || string(v) != want {
			t.Errorf("Get(%s) after torn tail = %q ok=%v err=%v", key, v, ok, err)
		}
	}
	if _, ok, _ := fb2.Get("c"); ok {
		t.Error("torn entry survived recovery")
	}
}

// TestConcurrentRecordManyWriters drives parallel Record calls at every
// backend and checks nothing is lost, duplicated, or left unindexed.
func TestConcurrentRecordManyWriters(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := New(b)
			const writers = 8
			const perWriter = 5
			var wg sync.WaitGroup
			errs := make([]error, writers)
			session := seq.NewID()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					recs := make([]core.Record, 0, perWriter)
					for i := 0; i < perWriter; i++ {
						recs = append(recs, mkInteraction(session, "svc:gzip", fmt.Sprintf("w%d-op%d", w, i)))
					}
					acc, rej, err := s.Record("svc:enactor", recs)
					if err != nil {
						errs[w] = err
						return
					}
					if acc != perWriter || len(rej) != 0 {
						errs[w] = fmt.Errorf("writer %d: acc=%d rej=%v", w, acc, rej)
					}
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			cnt, err := s.Count()
			if err != nil || cnt.Records != writers*perWriter {
				t.Fatalf("Count = %d err=%v, want %d", cnt.Records, err, writers*perWriter)
			}
			// Every record must be planner-visible: the session posting
			// list has one entry per record.
			ix, err := s.Index()
			if err != nil {
				t.Fatal(err)
			}
			postings, err := ix.Postings("sess", session.String())
			if err != nil || len(postings) != writers*perWriter {
				t.Fatalf("postings = %d err=%v, want %d", len(postings), err, writers*perWriter)
			}
			if s.Generation() == 0 {
				t.Error("generation did not advance")
			}
		})
	}
}

// TestConcurrentIdempotentSameRecord races identical re-records of one
// record: the per-key stripe lock must make every call see either
// "absent" or "identical", never a spurious duplicate conflict.
func TestConcurrentIdempotentSameRecord(t *testing.T) {
	s := New(NewMemoryBackend())
	session := seq.NewID()
	r := mkInteraction(session, "svc:gzip", "compress")
	const callers = 16
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			acc, rej, err := s.Record("svc:enactor", []core.Record{r})
			if err != nil {
				errs[c] = err
				return
			}
			if acc != 1 || len(rej) != 0 {
				errs[c] = fmt.Errorf("caller %d: acc=%d rej=%v", c, acc, rej)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	cnt, err := s.Count()
	if err != nil || cnt.Records != 1 {
		t.Fatalf("Count = %d err=%v, want exactly 1", cnt.Records, err)
	}
}

// TestRejectOrderPreserved checks that rejects come back in submission
// order even though validation rejects and commit-time conflicts are
// discovered in different phases.
func TestRejectOrderPreserved(t *testing.T) {
	s := New(NewMemoryBackend())
	session := seq.NewID()
	dup := mkInteraction(session, "svc:gzip", "compress")
	if _, _, err := s.Record("svc:enactor", []core.Record{dup}); err != nil {
		t.Fatal(err)
	}
	// Same key, different content → commit-time conflict at index 0;
	// invalid record → validation reject at index 1.
	conflict := dup
	clone := *dup.Interaction
	clone.Request = core.Message{Name: "invoke", Parts: []core.MessagePart{{Name: "other"}}}
	conflict.Interaction = &clone
	var invalid core.Record
	acc, rej, err := s.Record("svc:enactor", []core.Record{conflict, invalid})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0 || len(rej) != 2 {
		t.Fatalf("acc=%d rej=%v, want 0 accepted and 2 rejects", acc, rej)
	}
	if rej[0].Index != 0 || rej[1].Index != 1 {
		t.Fatalf("reject order = [%d %d], want [0 1]", rej[0].Index, rej[1].Index)
	}
	if !strings.Contains(rej[0].Reason, "duplicate") {
		t.Errorf("reject 0 = %q, want duplicate conflict", rej[0].Reason)
	}
}

// TestIdempotentReRecordAcrossCodecChange pre-seeds a backend with a
// record in the legacy gob storage format: re-recording the same record
// must land on the idempotent path, not a duplicate conflict.
func TestIdempotentReRecordAcrossCodecChange(t *testing.T) {
	b := NewMemoryBackend()
	session := seq.NewID()
	r := mkInteraction(session, "svc:gzip", "compress")
	legacy, err := core.EncodeRecordLegacy(&r)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(r.StorageKey(), legacy); err != nil {
		t.Fatal(err)
	}
	s := New(b)
	acc, rej, err := s.Record("svc:enactor", []core.Record{r})
	if err != nil || acc != 1 || len(rej) != 0 {
		t.Fatalf("re-record over legacy blob: acc=%d rej=%v err=%v", acc, rej, err)
	}
	cnt, err := s.Count()
	if err != nil || cnt.Records != 1 {
		t.Fatalf("Count = %d err=%v, want 1", cnt.Records, err)
	}
	// A genuinely different record under the same key still conflicts.
	r2 := r
	clone := *r.Interaction
	clone.Request = core.Message{Name: "invoke", Parts: []core.MessagePart{{Name: "other"}}}
	r2.Interaction = &clone
	acc, rej, err = s.Record("svc:enactor", []core.Record{r2})
	if err != nil || acc != 0 || len(rej) != 1 {
		t.Fatalf("conflicting record over legacy blob: acc=%d rej=%v err=%v", acc, rej, err)
	}
}

// TestFileBackendCorruptSegmentLengths guards the torn-write parser: a
// corrupted length varint (huge values, overflow bait) must make the
// entry parse as torn, never panic the open.
func TestFileBackendCorruptSegmentLengths(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.PutBatch([]KV{{Key: "good", Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	var segPath string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segExt) {
			segPath = filepath.Join(dir, e.Name())
		}
	}
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Append a forged entry whose keyLen varint decodes to ~2^63.
	forged := append(append([]byte(nil), data...),
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, // keyLen
		0x01,     // valLen
		'k', 'v') // far too short for the declared lengths
	if err := os.WriteFile(segPath, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatalf("open paniced or failed on corrupt lengths: %v", err)
	}
	if v, ok, err := fb2.Get("good"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("intact prefix entry lost: %q ok=%v err=%v", v, ok, err)
	}
}

// TestFileBackendCrossLayoutOverwrite pins the mixed Put/PutBatch
// story: identical re-puts across layouts are accepted and survive a
// reopen with the same value, differing overwrites are rejected (the
// two layouts have no durable ordering a reopen could arbitrate).
func TestFileBackendCrossLayoutOverwrite(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.PutBatch([]KV{{Key: "seg", Value: []byte("v1")}}); err != nil {
		t.Fatal(err)
	}
	if err := fb.Put("rec", []byte("w1")); err != nil {
		t.Fatal(err)
	}
	// Differing cross-layout overwrites: rejected, value unchanged.
	if err := fb.Put("seg", []byte("CHANGED")); err == nil {
		t.Fatal("differing Put over segment-stored key accepted")
	}
	if err := fb.PutBatch([]KV{{Key: "rec", Value: []byte("CHANGED")}}); err == nil {
		t.Fatal("differing batch over file-stored key accepted")
	}
	// Identical cross-layout re-puts: accepted. (The batch re-put
	// migrates "rec" into a segment; from there on, later segments give
	// a durable last-write-wins order, so this stays consistent.)
	if err := fb.Put("seg", []byte("v1")); err != nil {
		t.Fatalf("identical Put over segment key rejected: %v", err)
	}
	if err := fb.PutBatch([]KV{{Key: "rec", Value: []byte("w1")}}); err != nil {
		t.Fatalf("identical batch over record key rejected: %v", err)
	}
	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"seg": "v1", "rec": "w1"} {
		v, ok, err := fb2.Get(key)
		if err != nil || !ok || string(v) != want {
			t.Errorf("after reopen Get(%s) = %q ok=%v err=%v, want %q", key, v, ok, err, want)
		}
	}
}

// heldPutBatch is a memory backend whose PutBatch announces itself and
// then waits to be released — a writer queued behind readers or a
// compaction holding the backend's lock.
type heldPutBatch struct {
	*MemoryBackend
	entered, release chan struct{}
}

func (h *heldPutBatch) PutBatch(kvs []KV) error {
	h.entered <- struct{}{}
	<-h.release
	return h.MemoryBackend.PutBatch(kvs)
}

// TestWriteStallCoversIndexFlush pins what store_write_stall_seconds
// times: a Record call's wait in the index flush's PutBatch — where the
// wait on a busy backend actually is — lands in the histogram, not only
// the per-record commit sections before it.
func TestWriteStallCoversIndexFlush(t *testing.T) {
	b := &heldPutBatch{MemoryBackend: NewMemoryBackend(), entered: make(chan struct{}), release: make(chan struct{})}
	s := New(b)
	if _, err := s.Index(); err != nil { // opened here so Record's only PutBatch is the flush
		t.Fatal(err)
	}
	const held = 40 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Record("svc:enactor", []core.Record{mkInteraction(seq.NewID(), "svc:gzip", "op")})
		done <- err
	}()
	<-b.entered
	time.Sleep(held)
	b.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wp := s.WritePathStats()
	if wp.StallCount != 2 { // one record's commit section + one flush
		t.Errorf("StallCount = %d, want 2", wp.StallCount)
	}
	if wp.StallSeconds < held.Seconds() || wp.StallP99 < held.Seconds()/2 {
		t.Errorf("a %v PutBatch wait reads as total %.4fs, p99 %.4fs", held, wp.StallSeconds, wp.StallP99)
	}
}
