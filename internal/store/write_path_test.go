package store

// Tests for the concurrent batched write path: one log file per store,
// striped commit locking, and the one-flush-per-Record index
// maintenance; and for the adoption of torn and corrupt segments.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/prep"
)

// TestFileBackendPackedPostings verifies the file-count bound: a store
// is one log file however many Record calls, records and postings it
// takes — never a file (or pair) per call, per record or per posting.
func TestFileBackendPackedPostings(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(fb)
	if _, err := s.Index(); err != nil { // the schema marker's own write
		t.Fatal(err)
	}
	session := seq.NewID()
	n := 0
	for _, size := range []int{1, 10, 40} {
		recs := make([]core.Record, 0, size)
		for i := 0; i < size; i++ {
			recs = append(recs, mkInteraction(session, "svc:gzip", fmt.Sprintf("op%d", n+i)))
		}
		acc, rej, err := s.Record("svc:enactor", recs)
		if err != nil || acc != size || len(rej) != 0 {
			t.Fatalf("Record: acc=%d rej=%v err=%v", acc, rej, err)
		}
		n += size
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "data.log" {
			t.Errorf("after a Record call of %d records the store is %d files, want data.log alone", size, len(entries))
		}
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

// TestFileBackendTornSegmentTail verifies the adoption of a torn batch
// write: the segment's intact prefix is adopted, only the damaged tail
// is dropped.
func TestFileBackendTornSegmentTail(t *testing.T) {
	dir := t.TempDir()
	seg := []byte(segMagic)
	for _, p := range []KV{{Key: "a", Value: []byte("alpha")}, {Key: "b", Value: []byte("beta")}, {Key: "c", Value: []byte("gamma")}} {
		seg = appendSegEntry(seg, p.Key, p.Value)
	}
	// Chop into the last entry's CRC: "c" must be dropped, "a"/"b" kept.
	writeSegments(t, dir, seg[:len(seg)-2])
	fb2 := openFile(t, dir)
	defer fb2.Close()
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
// record set on every backend. Callers submit overlapping multi-record
// batches, half of them in reverse order, so their commits need
// overlapping stripe sets: the ascending stripe order must keep them
// from deadlocking, and every call must see each key either absent or
// identical — never a spurious duplicate conflict. Each record is
// stored exactly once.
func TestConcurrentIdempotentSameRecord(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := New(b)
			session := seq.NewID()
			recs := make([]core.Record, 12)
			for i := range recs {
				recs[i] = mkInteraction(session, "svc:gzip", fmt.Sprintf("op%d", i))
			}
			windows := [][2]int{{0, 8}, {4, 12}, {0, 12}, {5, 6}}
			const callers = 16
			var wg sync.WaitGroup
			errs := make([]error, callers)
			for c := 0; c < callers; c++ {
				w := windows[c%len(windows)]
				batch := append([]core.Record(nil), recs[w[0]:w[1]]...)
				if c%2 == 1 {
					for i, j := 0, len(batch)-1; i < j; i, j = i+1, j-1 {
						batch[i], batch[j] = batch[j], batch[i]
					}
				}
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					acc, rej, err := s.Record("svc:enactor", batch)
					if err != nil {
						errs[c] = err
						return
					}
					if acc != len(batch) || len(rej) != 0 {
						errs[c] = fmt.Errorf("caller %d: acc=%d of %d, rej=%v", c, acc, len(batch), rej)
					}
				}(c)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("concurrent overlapping Record calls did not finish: deadlock")
			}
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			cnt, err := s.Count()
			if err != nil || cnt.Records != len(recs) {
				t.Fatalf("Count = %d err=%v, want exactly %d", cnt.Records, err, len(recs))
			}
			ix, err := s.Index()
			if err != nil {
				t.Fatal(err)
			}
			if postings, err := ix.Postings("sess", session.String()); err != nil || len(postings) != len(recs) {
				t.Fatalf("session postings = %d err=%v, want %d", len(postings), err, len(recs))
			}
		})
	}
}

// conflicting returns a record under r's storage key with different
// content.
func conflicting(r core.Record) core.Record {
	clone := *r.Interaction
	clone.Request = core.Message{Name: "invoke", Parts: []core.MessagePart{{Name: "other"}}}
	r.Interaction = &clone
	return r
}

// TestRecordRepeatedKeyWithinCall pins how one call that names a storage
// key twice is decided against its own pending batch, on every backend:
// the same record twice is accepted twice and stored once, with one
// posting set; a different record under the same key is an ErrDuplicate
// reject at its index, and rejects stay in submission order.
func TestRecordRepeatedKeyWithinCall(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := New(b)
			session := seq.NewID()
			a := mkInteraction(session, "svc:gzip", "a")
			acc, rej, err := s.Record("svc:enactor", []core.Record{a, a})
			if err != nil || acc != 2 || len(rej) != 0 {
				t.Fatalf("same record twice: acc=%d rej=%v err=%v, want 2 accepted", acc, rej, err)
			}
			ix, err := s.Index()
			if err != nil {
				t.Fatal(err)
			}
			if postings, err := ix.Postings("sess", session.String()); err != nil || len(postings) != 1 {
				t.Fatalf("session postings = %v err=%v, want one", postings, err)
			}

			// A conflict at index 1 is found at commit time, the invalid
			// record at index 2 during validation: the rejects still come
			// back as [1 2].
			bRec := mkInteraction(session, "svc:gzip", "b")
			var invalid core.Record
			acc, rej, err = s.Record("svc:enactor", []core.Record{bRec, conflicting(bRec), invalid})
			if err != nil || acc != 1 || len(rej) != 2 {
				t.Fatalf("conflict within call: acc=%d rej=%v err=%v, want 1 accepted and 2 rejects", acc, rej, err)
			}
			if rej[0].Index != 1 || rej[1].Index != 2 {
				t.Fatalf("reject order = [%d %d], want [1 2]", rej[0].Index, rej[1].Index)
			}
			if !strings.Contains(rej[0].Reason, ErrDuplicate.Error()) {
				t.Errorf("reject 1 = %q, want %v", rej[0].Reason, ErrDuplicate)
			}
			want, err := core.EncodeRecord(&bRec)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok, err := b.Get(bRec.StorageKey()); err != nil || !ok || string(got) != string(want) {
				t.Fatalf("stored ok=%v err=%v, want the first submission's bytes", ok, err)
			}
			cnt, err := s.Count()
			if err != nil || cnt.Records != 2 {
				t.Fatalf("Count = %d err=%v, want 2", cnt.Records, err)
			}
			if postings, err := ix.Postings("sess", session.String()); err != nil || len(postings) != 2 {
				t.Fatalf("session postings = %d err=%v, want 2", len(postings), err)
			}
		})
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
	var invalid core.Record
	acc, rej, err := s.Record("svc:enactor", []core.Record{conflicting(dup), invalid})
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
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(&r); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(r.StorageKey(), legacy.Bytes()); err != nil {
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
	acc, rej, err = s.Record("svc:enactor", []core.Record{conflicting(r)})
	if err != nil || acc != 0 || len(rej) != 1 {
		t.Fatalf("conflicting record over legacy blob: acc=%d rej=%v err=%v", acc, rej, err)
	}
}

// TestFileBackendCorruptSegmentLengths guards the torn-write parser: a
// corrupted length varint (huge values, overflow bait) must make the
// entry parse as torn, never panic the open.
func TestFileBackendCorruptSegmentLengths(t *testing.T) {
	dir := t.TempDir()
	// A good entry, then a forged one whose keyLen varint decodes to
	// ~2^63.
	forged := append(appendSegEntry([]byte(segMagic), "good", []byte("v")),
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, // keyLen
		0x01,     // valLen
		'k', 'v') // far too short for the declared lengths
	writeSegments(t, dir, forged)
	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatalf("open paniced or failed on corrupt lengths: %v", err)
	}
	defer fb2.Close()
	if v, ok, err := fb2.Get("good"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("intact prefix entry lost: %q ok=%v err=%v", v, ok, err)
	}
}

// heldPutBatch is a memory backend whose PutBatch of a Record call (its
// records and their postings, "x/" keys among them) announces itself and
// then waits to be released — a writer queued behind readers or a
// compaction holding the backend's lock.
type heldPutBatch struct {
	*MemoryBackend
	entered, release chan struct{}
}

func (h *heldPutBatch) PutBatch(kvs []KV) error {
	if slices.ContainsFunc(kvs, func(p KV) bool { return strings.HasPrefix(p.Key, "x/") }) {
		h.entered <- struct{}{}
		<-h.release
	}
	return h.MemoryBackend.PutBatch(kvs)
}

// TestWriteStallCoversIndexFlush pins what store_write_stall_seconds
// times: a Record call's one observation covers its wait in the PutBatch
// that carries its records and their postings — where the wait on a busy
// backend actually is.
func TestWriteStallCoversIndexFlush(t *testing.T) {
	b := &heldPutBatch{MemoryBackend: NewMemoryBackend(), entered: make(chan struct{}), release: make(chan struct{})}
	s := New(b)
	if _, err := s.Index(); err != nil { // opened here so that the only held PutBatch is the Record's
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
	if wp.StallCount != 1 { // the call's one commit section
		t.Errorf("StallCount = %d, want 1", wp.StallCount)
	}
	if wp.StallSeconds < held.Seconds() || wp.StallP99 < held.Seconds()/2 {
		t.Errorf("a %v PutBatch wait reads as total %.4fs, p99 %.4fs", held, wp.StallSeconds, wp.StallP99)
	}
}
