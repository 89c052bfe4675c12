package store

// Tests for the record-deletion and compaction lifecycle: backend
// Delete/DeleteBatch conformance (including persistence across reopen,
// which is where tombstones earn their keep), store-level
// DeleteRecords/DeleteSession with index maintenance, and the acceptance
// property that deletion + compaction shrinks the on-disk footprint
// while keeping planner results byte-identical to a fresh scan.

import (
	"os"
	"path/filepath"
	"testing"

	"preserv/internal/core"
	"preserv/internal/kvdb"
	"preserv/internal/prep"
)

func TestBackendDeleteConformance(t *testing.T) {
	for _, but := range allBackends() {
		t.Run(but.name, func(t *testing.T) {
			t.Run("DeleteRoundTrip", func(t *testing.T) { conformDelete(t, but.open(t)) })
			t.Run("DeleteAbsentNoop", func(t *testing.T) { conformDeleteAbsent(t, but.open(t)) })
			t.Run("DeleteBatchMixed", func(t *testing.T) { conformDeleteBatch(t, but.open(t)) })
			t.Run("DeleteThenRePut", func(t *testing.T) { conformDeleteRePut(t, but.open(t)) })
			t.Run("DeleteEmptyKeyRejected", func(t *testing.T) { conformDeleteEmptyKey(t, but.open(t)) })
		})
	}
}

func conformDelete(t *testing.T, b Backend) {
	if err := b.PutBatch([]KV{
		{Key: "i/a/1", Value: []byte("one")},
		{Key: "i/a/2", Value: []byte("two")},
		{Key: "s/a/1", Value: []byte("state")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("i/a/1"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := b.Get("i/a/1"); err != nil || ok {
		t.Fatalf("deleted key still present: ok=%v err=%v", ok, err)
	}
	if v, ok, err := b.Get("i/a/2"); err != nil || !ok || string(v) != "two" {
		t.Fatalf("sibling key damaged by delete: %q %v %v", v, ok, err)
	}
	// Scan, ScanFrom and Count must all agree the key is gone.
	var seen []string
	if err := b.ScanFrom("i/", "", func(k string, _ []byte) error {
		seen = append(seen, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "i/a/2" {
		t.Fatalf("Scan after delete = %v", seen)
	}
	if n, err := b.Count("i/"); err != nil || n != 1 {
		t.Fatalf("Count after delete = %d %v", n, err)
	}
	values, present, err := b.GetBatch([]string{"i/a/1", "i/a/2"})
	if err != nil {
		t.Fatal(err)
	}
	if present[0] || !present[1] || string(values[1]) != "two" {
		t.Fatalf("GetBatch after delete = %q %v", values, present)
	}
}

func conformDeleteAbsent(t *testing.T, b Backend) {
	if err := b.Delete("i/never/was"); err != nil {
		t.Fatalf("deleting absent key: %v", err)
	}
	if err := b.DeleteBatch([]string{"i/nope/1", "i/nope/2"}); err != nil {
		t.Fatalf("batch-deleting absent keys: %v", err)
	}
	if n, err := b.Count(""); err != nil || n != 0 {
		t.Fatalf("Count after absent deletes = %d %v", n, err)
	}
}

func conformDeleteBatch(t *testing.T, b Backend) {
	var batch []KV
	for _, k := range []string{"i/b/1", "i/b/2", "i/b/3", "s/b/1"} {
		batch = append(batch, KV{Key: k, Value: []byte("v-" + k)})
	}
	if err := b.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	// A mixed batch: two present keys, one absent, one duplicate.
	if err := b.DeleteBatch([]string{"i/b/1", "i/b/3", "i/absent", "i/b/1"}); err != nil {
		t.Fatal(err)
	}
	var seen []string
	if err := b.ScanFrom("", "", func(k string, _ []byte) error {
		seen = append(seen, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != "i/b/2" || seen[1] != "s/b/1" {
		t.Fatalf("survivors = %v", seen)
	}
}

func conformDeleteRePut(t *testing.T, b Backend) {
	if err := b.Put("i/c/1", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("i/c/1"); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("i/c/1", []byte("second")); err != nil {
		t.Fatalf("re-putting deleted key: %v", err)
	}
	if v, ok, err := b.Get("i/c/1"); err != nil || !ok || string(v) != "second" {
		t.Fatalf("re-put value = %q %v %v", v, ok, err)
	}
}

func conformDeleteEmptyKey(t *testing.T, b Backend) {
	if err := b.DeleteBatch([]string{""}); err == nil {
		t.Error("empty key should be rejected")
	}
}

// persistentBackends returns reopenable flavours: open attaches to dir,
// creating it on first use.
type persistentBackend struct {
	name string
	open func(t *testing.T, dir string) Backend
}

func persistentBackends() []persistentBackend {
	return []persistentBackend{
		{"file", func(t *testing.T, dir string) Backend {
			b, err := NewFileBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"kvdb", func(t *testing.T, dir string) Backend {
			b, err := NewKVBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	}
}

// TestDeletePersistsAcrossReopen is the tombstone contract: a deletion
// must survive a restart even though older copies of the key (earlier
// log entries) are still on disk.
func TestDeletePersistsAcrossReopen(t *testing.T) {
	for _, pb := range persistentBackends() {
		t.Run(pb.name, func(t *testing.T) {
			dir := t.TempDir()
			b := pb.open(t, dir)
			// Keys from a batch and from a single put: each write is one
			// log append.
			if err := b.PutBatch([]KV{
				{Key: "i/x/1", Value: []byte("batch")},
				{Key: "i/x/2", Value: []byte("batch2")},
			}); err != nil {
				t.Fatal(err)
			}
			if err := b.Put("i/x/3", []byte("single")); err != nil {
				t.Fatal(err)
			}
			if err := b.DeleteBatch([]string{"i/x/1", "i/x/3"}); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}

			b = pb.open(t, dir)
			defer b.Close()
			if _, ok, _ := b.Get("i/x/1"); ok {
				t.Error("batch-stored key resurrected after reopen")
			}
			if _, ok, _ := b.Get("i/x/3"); ok {
				t.Error("single-put key resurrected after reopen")
			}
			if v, ok, err := b.Get("i/x/2"); err != nil || !ok || string(v) != "batch2" {
				t.Fatalf("survivor damaged: %q %v %v", v, ok, err)
			}
		})
	}
}

// TestDeleteSurvivesCompactionAndReopen pins the subtle case: Compact
// drops tombstones, so it must also have dropped every older copy that
// could resurrect the key on the next open.
func TestDeleteSurvivesCompactionAndReopen(t *testing.T) {
	for _, pb := range persistentBackends() {
		t.Run(pb.name, func(t *testing.T) {
			dir := t.TempDir()
			b := pb.open(t, dir)
			if err := b.Put("i/y/1", []byte("single")); err != nil {
				t.Fatal(err)
			}
			if err := b.PutBatch([]KV{{Key: "i/y/2", Value: []byte("segment")}}); err != nil {
				t.Fatal(err)
			}
			if err := b.DeleteBatch([]string{"i/y/1", "i/y/2"}); err != nil {
				t.Fatal(err)
			}
			if c, ok := b.(Compacter); ok {
				if err := c.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b = pb.open(t, dir)
			defer b.Close()
			for _, k := range []string{"i/y/1", "i/y/2"} {
				if _, ok, _ := b.Get(k); ok {
					t.Errorf("%s resurrected after compaction + reopen", k)
				}
			}
		})
	}
}

// TestFileDeleteOfRePutKey pins the two-copy corner: a key put and
// identically re-put lives in two log entries; deleting it must leave
// neither copy able to resurrect it — before or after compaction.
func TestFileDeleteOfRePutKey(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.Put("i/z/1", []byte("same")); err != nil {
		t.Fatal(err)
	}
	if err := fb.PutBatch([]KV{{Key: "i/z/1", Value: []byte("same")}}); err != nil {
		t.Fatal(err)
	}
	if err := fb.Delete("i/z/1"); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := reopened.Get("i/z/1"); ok {
		t.Error("an older copy resurrected the deleted key on reopen")
	}
	reopened.Close()
	if err := fb.Compact(); err != nil {
		t.Fatal(err)
	}
	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := fb2.Get("i/z/1"); ok {
		t.Error("an older copy resurrected the deleted key after compaction")
	}
}

// TestFileRePutAfterDeleteSurvivesReopen pins replay order across a
// tombstone: a re-put of a deleted key lands later in the log than the
// tombstone, so replay resolves the key to the re-put value.
func TestFileRePutAfterDeleteSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.PutBatch([]KV{{Key: "i/w/1", Value: []byte("v1")}}); err != nil {
		t.Fatal(err)
	}
	if err := fb.Delete("i/w/1"); err != nil {
		t.Fatal(err)
	}
	if err := fb.Put("i/w/1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := fb2.Get("i/w/1"); !ok || string(v) != "v2" {
		t.Fatalf("re-put after delete lost on reopen: %q %v", v, ok)
	}
}

// dirSize sums the on-disk bytes under dir.
func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// queryEquivalence asserts that the planner-free scan path and a fresh
// full sweep agree byte-for-byte on every record the store holds.
func recordsByScan(t *testing.T, s *Store, q *prep.Query) ([]core.Record, int) {
	t.Helper()
	recs, total, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return recs, total
}

// TestDeleteLifecycleShrinksDiskAndKeepsScanIdentity is the PR's
// acceptance property: after DeleteRecords/DeleteSession + Compact,
// query results are byte-identical to a fresh scan on every backend,
// and the persistent backends' on-disk size shrinks.
func TestDeleteLifecycleShrinksDiskAndKeepsScanIdentity(t *testing.T) {
	type flavour struct {
		name string
		dir  string // empty for memory
		open func(t *testing.T, dir string) Backend
	}
	flavours := []flavour{
		{"memory", "", func(t *testing.T, _ string) Backend { return NewMemoryBackend() }},
	}
	for _, pb := range persistentBackends() {
		pb := pb
		flavours = append(flavours, flavour{pb.name, t.TempDir(), pb.open})
	}
	for _, fl := range flavours {
		t.Run(fl.name, func(t *testing.T) {
			b := fl.open(t, fl.dir)
			s := New(b)
			keep := seq.NewID()
			doomed := seq.NewID()
			var keepRecs, doomedRecs []core.Record
			for i := 0; i < 8; i++ {
				keepRecs = append(keepRecs, mkInteraction(keep, "svc:gzip", "compress"))
				doomedRecs = append(doomedRecs, mkInteraction(doomed, "svc:ppmz", "compress"))
			}
			if acc, _, err := s.Record("svc:enactor", append(keepRecs, doomedRecs...)); err != nil || acc != 16 {
				t.Fatalf("Record = %d, %v", acc, err)
			}

			// Delete one record by key, then the rest of its session.
			gen := s.Generation()
			n, err := s.DeleteRecords([]string{doomedRecs[0].StorageKey()})
			if err != nil || n != 1 {
				t.Fatalf("DeleteRecords = %d, %v, want 1", n, err)
			}
			if s.Generation() == gen {
				t.Fatal("DeleteRecords did not advance the generation")
			}
			// Idempotent: deleting again is a no-op.
			if n, err := s.DeleteRecords([]string{doomedRecs[0].StorageKey()}); err != nil || n != 0 {
				t.Fatalf("re-delete = %d, %v, want 0", n, err)
			}
			gen = s.Generation()
			n, err = s.DeleteSession(doomed)
			if err != nil || n != 7 {
				t.Fatalf("DeleteSession = %d, %v", n, err)
			}
			if s.Generation() == gen {
				t.Fatal("DeleteSession did not advance the generation")
			}

			var before int64
			if fl.dir != "" {
				before = dirSize(t, fl.dir)
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			if fl.dir != "" {
				after := dirSize(t, fl.dir)
				if after >= before {
					t.Errorf("on-disk size did not shrink: %d -> %d bytes", before, after)
				}
			}
			if tombs := s.Tombstones(); tombs != 0 {
				t.Errorf("tombstones survive compaction: %d", tombs)
			}

			// Every read path agrees the session is gone and the kept
			// session is intact.
			all, total := recordsByScan(t, s, &prep.Query{})
			if total != 8 || len(all) != 8 {
				t.Fatalf("scan after delete+compact: %d records (total %d)", len(all), total)
			}
			for _, r := range all {
				if sid, _ := r.GroupID(core.GroupSession); sid == doomed {
					t.Fatalf("deleted session resurrected: %s", r.StorageKey())
				}
			}
			gone, total := recordsByScan(t, s, &prep.Query{SessionID: doomed})
			if len(gone) != 0 || total != 0 {
				t.Fatalf("deleted session still queryable: %d (total %d)", len(gone), total)
			}

			// Reopen (persistent backends): deletions and index must
			// survive.
			if fl.dir != "" {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s = New(fl.open(t, fl.dir))
				defer s.Close()
				if _, err := s.Index(); err != nil {
					t.Fatal(err)
				}
				all, total = recordsByScan(t, s, &prep.Query{})
				if total != 8 || len(all) != 8 {
					t.Fatalf("after reopen: %d records (total %d)", len(all), total)
				}
			}
		})
	}
}

// TestDeleteRecordCrashBeforeDeindexRecovers cuts the log at every byte
// of a delete's one batch — between its record tombstones and its
// posting tombstones too: the reopened store holds the record and its
// postings, or neither, and opens its index without a rebuild.
func TestDeleteRecordCrashBeforeDeindexRecovers(t *testing.T) {
	for _, pb := range persistentBackends() {
		t.Run(pb.name, func(t *testing.T) {
			dir := t.TempDir()
			b := pb.open(t, dir).(*kvdb.DB)
			s := New(b)
			session := seq.NewID()
			var recs []core.Record
			for i := 0; i < 4; i++ {
				recs = append(recs, mkInteraction(session, "svc:gzip", "compress"))
			}
			if _, _, err := s.Record("svc:enactor", recs); err != nil {
				t.Fatal(err)
			}
			before := b.LogBytes()
			if n, err := s.DeleteRecords([]string{recs[0].StorageKey()}); err != nil || n != 1 {
				t.Fatalf("DeleteRecords = %d, %v", n, err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			log, err := os.ReadFile(filepath.Join(dir, "data.log"))
			if err != nil {
				t.Fatal(err)
			}
			for cut := before; cut <= int64(len(log)); cut++ {
				d := t.TempDir()
				if err := os.WriteFile(filepath.Join(d, "data.log"), log[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				rb := pb.open(t, d).(*kvdb.DB)
				opened := rb.LogBytes()
				rs := New(rb)
				idx, err := rs.Index()
				if err != nil {
					t.Fatal(err)
				}
				if n := rb.LogBytes(); n != opened {
					t.Fatalf("cut %d: opening the index wrote %d bytes: it rebuilt", cut, n-opened)
				}
				want := 1
				if cut == int64(len(log)) {
					want = 0
				}
				_, present, err := rb.Get(recs[0].StorageKey())
				if err != nil {
					t.Fatal(err)
				}
				postings, err := idx.CountPostings("int", recs[0].InteractionID().String())
				if err != nil {
					t.Fatal(err)
				}
				if present != (want == 1) || postings != want {
					t.Fatalf("cut %d: record present=%v with %d interaction postings, want %d of each", cut, present, postings, want)
				}
				if recsOut, total := recordsByScan(t, rs, &prep.Query{SessionID: session}); len(recsOut) != 3+want || total != 3+want {
					t.Fatalf("cut %d: %d records (total %d), want %d", cut, len(recsOut), total, 3+want)
				}
				if err := rs.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDeleteRecordWithCorruptValue pins the retraction policy for torn
// values: a record whose stored bytes no longer decode must still be
// deletable (any postings it had are skipped at fetch time) — otherwise
// one corrupt value would make itself and its session permanently
// unretractable.
func TestDeleteRecordWithCorruptValue(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := New(b)
			session := seq.NewID()
			good := mkInteraction(session, "svc:gzip", "compress")
			if _, _, err := s.Record("svc:enactor", []core.Record{good}); err != nil {
				t.Fatal(err)
			}
			// Plant a corrupt value directly at the backend, as a torn
			// write would leave it.
			corruptKey := "i/urn:pasoa:00000000000000000000000000000042/sender/svc:x/torn"
			if err := b.Put(corruptKey, []byte("\x01garbage")); err != nil {
				t.Fatal(err)
			}
			if n, err := s.DeleteRecords([]string{corruptKey}); err != nil || n != 1 {
				t.Fatalf("deleting corrupt record = %d, %v, want 1", n, err)
			}
			if _, present, _ := b.Get(corruptKey); present {
				t.Fatal("corrupt record survives deletion")
			}
			if recs, total := recordsByScan(t, s, &prep.Query{SessionID: session}); len(recs) != 1 || total != 1 {
				t.Fatalf("healthy record damaged: %d (total %d)", len(recs), total)
			}
		})
	}
}

// TestFileGarbageRatioAccounting sanity-checks the byte accounting the
// compaction scheduler reads.
func TestFileGarbageRatioAccounting(t *testing.T) {
	fb, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if r := fb.GarbageRatio(); r != 0 {
		t.Fatalf("empty backend garbage ratio = %v", r)
	}
	if err := fb.PutBatch([]KV{
		{Key: "i/g/1", Value: []byte("abcdef")},
		{Key: "i/g/2", Value: []byte("ghijkl")},
	}); err != nil {
		t.Fatal(err)
	}
	if r := fb.GarbageRatio(); r != 0 {
		t.Fatalf("all-live garbage ratio = %v", r)
	}
	if err := fb.Delete("i/g/1"); err != nil {
		t.Fatal(err)
	}
	if r := fb.GarbageRatio(); r <= 0 || r >= 1 {
		t.Fatalf("post-delete garbage ratio = %v, want in (0,1)", r)
	}
	if n := fb.Tombstones(); n != 1 {
		t.Fatalf("tombstones = %d", n)
	}
	if err := fb.Compact(); err != nil {
		t.Fatal(err)
	}
	if r := fb.GarbageRatio(); r != 0 {
		t.Fatalf("post-compaction garbage ratio = %v", r)
	}
	if n := fb.Tombstones(); n != 0 {
		t.Fatalf("post-compaction tombstones = %d", n)
	}
}

// TestStoreDeleteRecordsBatch covers the exported bulk retraction
// (DeleteRecords, the shard drain's delete half) on every backend:
// chunked deletion with index maintenance, absent keys as no-ops,
// generation bump, and planner-equals-scan afterwards.
func TestStoreDeleteRecordsBatch(t *testing.T) {
	for _, but := range allBackends() {
		t.Run(but.name, func(t *testing.T) {
			s := New(but.open(t))
			session := seq.NewID()
			var keys []string
			var recs []core.Record
			for i := 0; i < 9; i++ {
				r := mkInteraction(session, "svc:gzip", "run")
				recs = append(recs, r)
				keys = append(keys, r.StorageKey())
			}
			if acc, rejects, err := s.Record("svc:enactor", recs); err != nil || acc != 9 || len(rejects) != 0 {
				t.Fatalf("record: acc=%d rejects=%v err=%v", acc, rejects, err)
			}
			genBefore := s.Generation()

			// Delete a mix of present, absent and REPEATED keys: a key
			// arriving twice from the wire must delete (and count, and
			// tombstone) once.
			doomed := append([]string{"i/absent/sender/x/y", keys[0], keys[0]}, keys[:5]...)
			n, err := s.DeleteRecords(doomed)
			if err != nil {
				t.Fatal(err)
			}
			if n != 5 {
				t.Fatalf("deleted %d, want 5", n)
			}
			if s.Generation() == genBefore {
				t.Fatal("generation did not advance on batch delete")
			}

			// Survivors intact, deleted gone, both read paths agree.
			got, total, err := s.Query(&prep.Query{SessionID: session})
			if err != nil || total != 4 || len(got) != 4 {
				t.Fatalf("scan after batch delete: %d/%d err=%v", len(got), total, err)
			}
			for _, r := range got {
				for _, k := range keys[:5] {
					if r.StorageKey() == k {
						t.Fatalf("deleted record %s still queryable", k)
					}
				}
			}

			// Empty and all-absent batches are no-ops; empty keys rejected.
			if n, err := s.DeleteRecords(nil); err != nil || n != 0 {
				t.Fatalf("empty batch: %d %v", n, err)
			}
			if n, err := s.DeleteRecords(keys[:5]); err != nil || n != 0 {
				t.Fatalf("re-delete batch: %d %v", n, err)
			}
			if _, err := s.DeleteRecords([]string{"ok", ""}); err == nil {
				t.Fatal("empty key in batch accepted")
			}
		})
	}
}
