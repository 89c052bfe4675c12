package crashtest

// Crash-recovery tests: the kvdb log is truncated (and corrupted) at
// EVERY byte boundary inside an interrupted PutBatch / DeleteBatch
// tail, and so are the PSEG1 segments an earlier file backend left,
// then reopened. Recovery must keep a kvdb batch whole or drop it
// whole, and a segment's clean prefix — and at the store level, open
// an index with no rebuild whose planner answers match a full scan byte
// for byte.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/kv"
	"preserv/internal/kvdb"
	"preserv/internal/store"
)

// has reports whether key reads as present in a reopened log.
func has(t *testing.T, db *kvdb.DB, key string) bool {
	t.Helper()
	_, ok, err := db.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	return ok
}

// keysOf lists the live keys with the prefix in a reopened log.
func keysOf(t *testing.T, db *kvdb.DB, prefix string) []string {
	t.Helper()
	var keys []string
	if err := db.ScanFrom(prefix, "", func(k string, _ []byte) error {
		keys = append(keys, k)
		return nil
	}); err != nil {
		t.Fatalf("ScanFrom(%q): %v", prefix, err)
	}
	return keys
}

// tornBatch writes base and then batch with write into a fresh log and
// returns its directory and the log's size after each.
func tornBatch(t *testing.T, base []kv.Pair, write func(db *kvdb.DB) error) (dir string, baseSize, fullSize int64) {
	t.Helper()
	dir = t.TempDir()
	db, err := kvdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutBatch(base); err != nil {
		t.Fatal(err)
	}
	baseSize = db.LogBytes()
	if err := write(db); err != nil {
		t.Fatal(err)
	}
	fullSize = db.LogBytes()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, baseSize, fullSize
}

// cutsOf lists the cuts a torn-batch sweep makes in [lo, hi]: every byte
// of a tail of up to samples bytes, samples evenly spaced cuts in a
// longer one, and hi itself.
func cutsOf(lo, hi, samples int64) []int64 {
	step := max(1, (hi-lo)/samples)
	var cuts []int64
	for cut := lo; cut < hi; cut += step {
		cuts = append(cuts, cut)
	}
	return append(cuts, hi)
}

// TestKvdbTornPutBatchEveryByte interrupts a PutBatch at every byte of
// its log tail: recovery keeps the committed base intact and all of the
// batch or none of it — all only once the whole batch is on disk.
func TestKvdbTornPutBatchEveryByte(t *testing.T) {
	base := []kv.Pair{{Key: "i/base/1", Value: []byte("b1")}, {Key: "i/base/2", Value: []byte("b2")}}
	var batch []kv.Pair
	for i := 0; i < 5; i++ {
		batch = append(batch, kv.Pair{Key: fmt.Sprintf("i/torn/%d", i), Value: []byte(fmt.Sprintf("value-%d", i))})
	}
	src, baseSize, fullSize := tornBatch(t, base, func(db *kvdb.DB) error { return db.PutBatch(batch) })
	for _, cut := range cutsOf(baseSize, fullSize, 512) {
		dir := copyDir(t, src)
		logPath, _ := findOne(t, dir, ".log", false)
		truncateFile(t, logPath, cut)
		re, err := kvdb.Open(dir)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		checkFirstCount(t, re, append(keysOfPairs(base), keysOfPairs(batch)...), fmt.Sprintf("cut %d", cut))
		for _, p := range base {
			if !has(t, re, p.Key) {
				t.Fatalf("cut %d: committed base key %q lost", cut, p.Key)
			}
		}
		if got, want := len(keysOf(t, re, "i/torn/")), wholeAt(cut, fullSize, len(batch)); got != want {
			t.Fatalf("cut %d of %d: recovered %d of the batch's %d keys, want %d", cut, fullSize, got, len(batch), want)
		}
		re.Close()
	}
}

// wholeAt is how many of a batch's n keys a log cut at cut recovers: all
// of them once the cut reaches full, none before.
func wholeAt(cut, full int64, n int) int {
	if cut < full {
		return 0
	}
	return n
}

// TestKvdbTornDeleteBatchEveryByte interrupts a DeleteBatch the same
// way, once with its tombstones in one entry and once with so many long
// keys that kv.KeyBatchMax cuts them into two: the batch's deletions
// apply all together or not at all, and the undeleted keys are never
// harmed.
func TestKvdbTornDeleteBatchEveryByte(t *testing.T) {
	for _, c := range []struct {
		name string
		key  func(i int) string
		n    int
	}{
		{"one entry", func(i int) string { return fmt.Sprintf("i/del/%d", i) }, 6},
		{"split past KeyBatchMax", func(i int) string { return fmt.Sprintf("i/del/%02d/%s", i, strings.Repeat("k", 60<<10)) }, 22},
	} {
		t.Run(c.name, func(t *testing.T) {
			var base []kv.Pair
			var all []string
			for i := 0; i < c.n; i++ {
				all = append(all, c.key(i))
				base = append(base, kv.Pair{Key: all[i], Value: []byte("v")})
			}
			doomed, kept := all[:c.n-2], all[c.n-2:]
			src, baseSize, fullSize := tornBatch(t, base, func(db *kvdb.DB) error { return db.DeleteBatch(doomed) })
			// A long tail is sampled, and cut on both sides of the end of
			// its first entry.
			cuts := cutsOf(baseSize, fullSize, 512)
			if fullSize-baseSize > 512 {
				logPath, _ := findOne(t, src, ".log", false)
				log, err := os.ReadFile(logPath)
				if err != nil {
					t.Fatal(err)
				}
				// A kvdb entry is a 13-byte header (crc, flags, key and
				// value lengths) and a body of the value length here.
				first := baseSize + 13 + int64(binary.BigEndian.Uint32(log[baseSize+9:]))
				cuts = append(cutsOf(baseSize, fullSize, 100), first-1, first, first+1)
			}
			for _, cut := range cuts {
				dir := copyDir(t, src)
				logPath, _ := findOne(t, dir, ".log", false)
				truncateFile(t, logPath, cut)
				re, err := kvdb.Open(dir)
				if err != nil {
					t.Fatalf("cut %d: reopen: %v", cut, err)
				}
				checkFirstCount(t, re, all, fmt.Sprintf("cut %d", cut))
				gone := 0
				for _, k := range doomed {
					if !has(t, re, k) {
						gone++
					}
				}
				if want := wholeAt(cut, fullSize, len(doomed)); gone != want {
					t.Fatalf("cut %d of %d: %d of the batch's %d deletions applied, want %d", cut, fullSize, gone, len(doomed), want)
				}
				for _, k := range kept {
					if !has(t, re, k) {
						t.Fatalf("cut %d: undeleted key %q lost", cut, k[:min(len(k), 12)])
					}
				}
				re.Close()
			}
		})
	}
}

// keysOfPairs lists the keys of pairs, in order.
func keysOfPairs(pairs []kv.Pair) []string {
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = p.Key
	}
	return keys
}

// postingBatch is the shape of one Record call's postings: empty-valued
// keys in the index's order, which PutBatch writes as one sorted,
// front-coded key-batch entry.
func postingBatch(records int) []kv.Pair {
	var pairs []kv.Pair
	for r := 0; r < records; r++ {
		for _, dim := range []string{"session", "actor", "kind"} {
			pairs = append(pairs, kv.Pair{Key: fmt.Sprintf("x/%s/urn:pasoa:%02d/i/rec/%d", dim, r%2, r)})
		}
	}
	return pairs
}

// TestKvdbTornPostingBatchEveryByte interrupts the batch of one Record
// call — its records, then their postings — at every byte of its log
// tail: recovery keeps the committed base intact and every record and
// posting of the batch, or none of them.
func TestKvdbTornPostingBatchEveryByte(t *testing.T) {
	base := []kv.Pair{{Key: "i/rec/0", Value: []byte("r0")}, {Key: "x/kind/i/i/rec/0"}}
	var batch []kv.Pair
	for r := 0; r < 6; r++ {
		batch = append(batch, kv.Pair{Key: fmt.Sprintf("i/rec/%d", r+1), Value: []byte(fmt.Sprintf("record-%d", r+1))})
	}
	batch = append(batch, postingBatch(6)...)
	src, baseSize, fullSize := tornBatch(t, base, func(db *kvdb.DB) error { return db.PutBatch(batch) })
	for _, cut := range cutsOf(baseSize, fullSize, 512) {
		dir := copyDir(t, src)
		logPath, _ := findOne(t, dir, ".log", false)
		truncateFile(t, logPath, cut)
		re, err := kvdb.Open(dir)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		checkFirstCount(t, re, append(keysOfPairs(base), keysOfPairs(batch)...), fmt.Sprintf("cut %d", cut))
		for _, p := range base {
			if !has(t, re, p.Key) {
				t.Fatalf("cut %d: committed base key %q lost", cut, p.Key)
			}
		}
		got := 0
		for _, p := range batch {
			if has(t, re, p.Key) {
				got++
			}
		}
		if want := wholeAt(cut, fullSize, len(batch)); got != want {
			t.Fatalf("cut %d of %d: %d of the batch's %d records and postings recovered, want %d", cut, fullSize, got, len(batch), want)
		}
		re.Close()
	}
}

// TestKvdbCorruptedLogRecoversPrefix flips a byte at every offset of
// the log: Open must never fail or panic, and must recover a prefix of
// the put sequence (CRCs catch the flip; everything after it is
// discarded). A key-batch entry sits in the middle of the sequence.
func TestKvdbCorruptedLogRecoversPrefix(t *testing.T) {
	src := t.TempDir()
	db, err := kvdb.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 4; i++ {
		if i == 2 {
			batch := postingBatch(2)
			if err := db.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
			for _, p := range batch {
				keys = append(keys, p.Key)
			}
		}
		k := fmt.Sprintf("i/corrupt/%d", i)
		keys = append(keys, k)
		if err := db.Put(k, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	size := db.LogBytes()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for off := int64(0); off < size; off++ {
		dir := copyDir(t, src)
		logPath, _ := findOne(t, dir, ".log", false)
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0xFF
		if err := os.WriteFile(logPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := kvdb.Open(dir)
		if err != nil {
			t.Fatalf("offset %d: reopen after corruption: %v", off, err)
		}
		checkFirstCount(t, re, keys, fmt.Sprintf("offset %d", off))
		got := make(map[string]bool)
		for _, k := range keysOf(t, re, "") {
			got[k] = true
		}
		// A flipped length field can alias a later record's framing, but
		// the CRC guarantees at least: recovered keys of OUR sequence
		// form a prefix (corrupting record i discards i and everything
		// after it).
		prefixOf(t, got, keys, fmt.Sprintf("offset %d", off))
		re.Close()
	}
}

// TestFileTornSegmentEveryByte truncates a packed PSEG1 segment at
// every byte: the open adopts a clean prefix of the batch and never
// fails.
func TestFileTornSegmentEveryByte(t *testing.T) {
	src := t.TempDir()
	seg := []byte(segMagic)
	var batchKeys []string
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("i/seg/%d", i)
		seg = segPut(seg, k, []byte(fmt.Sprintf("value-%d", i)))
		batchKeys = append(batchKeys, k)
	}
	writeSegment(t, src, 1, seg)

	lastK := 0
	for cut := int64(0); cut <= int64(len(seg)); cut++ {
		dir := copyDir(t, src)
		segPath, _ := findOne(t, dir, ".seg", true)
		truncateFile(t, segPath, cut)
		re, err := store.NewFileBackend(dir)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		checkFirstCount(t, re, batchKeys, fmt.Sprintf("cut %d", cut))
		got := backendKeys(t, re)
		k := prefixOf(t, got, batchKeys, fmt.Sprintf("cut %d", cut))
		if len(got) != k {
			t.Fatalf("cut %d: recovered %d keys but prefix is %d", cut, len(got), k)
		}
		if k < lastK {
			t.Fatalf("cut %d: prefix shrank from %d to %d", cut, lastK, k)
		}
		lastK = k
		re.Close()
	}
	if lastK != len(batchKeys) {
		t.Fatalf("whole segment recovered only %d/%d keys", lastK, len(batchKeys))
	}
}

// TestFileTornPostingSegmentEveryByte is the file layout's twin of
// TestKvdbTornPostingBatchEveryByte: the postings segment, truncated at
// every byte, adopts the batch's postings all or none, never fewer as
// the cut grows, and leaves the base segment's keys alone.
func TestFileTornPostingSegmentEveryByte(t *testing.T) {
	src := t.TempDir()
	base := []kv.Pair{{Key: "i/rec/0", Value: []byte("r0")}, {Key: "x/kind/i/i/rec/0"}}
	writeSegment(t, src, 1, segKeyBatch(segPut([]byte(segMagic), base[0].Key, base[0].Value), []string{base[1].Key}, false))
	batch := postingBatch(6)
	keys := keysOfPairs(batch)
	slices.Sort(keys)
	seg := segKeyBatch([]byte(segMagic), keys, false)
	writeSegment(t, src, 2, seg)

	whole := false
	for cut := int64(0); cut <= int64(len(seg)); cut++ {
		dir := copyDir(t, src)
		segPath, _ := findOne(t, dir, ".seg", true)
		truncateFile(t, segPath, cut)
		re, err := store.NewFileBackend(dir)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		checkFirstCount(t, re, append(keysOfPairs(base), keys...), fmt.Sprintf("cut %d", cut))
		got := backendKeys(t, re)
		for _, p := range base {
			if !got[p.Key] {
				t.Fatalf("cut %d: committed base key %q lost", cut, p.Key)
			}
		}
		n := 0
		for _, p := range batch {
			if got[p.Key] {
				n++
			}
		}
		switch {
		case n != 0 && n != len(batch):
			t.Fatalf("cut %d: %d of the batch's %d postings recovered", cut, n, len(batch))
		case whole && n == 0:
			t.Fatalf("cut %d: the batch recovered at a shorter cut is lost", cut)
		}
		whole = n == len(batch)
		re.Close()
	}
	if !whole {
		t.Fatal("the whole segment did not recover the batch")
	}
}

// TestFileTornTombstoneSegmentEveryByte truncates the tombstone segment
// a DeleteBatch wrote: the applied deletions form a prefix of the
// batch, and the committed base keys are never harmed.
func TestFileTornTombstoneSegmentEveryByte(t *testing.T) {
	src := t.TempDir()
	var all []string
	seg := []byte(segMagic)
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("i/ts/%d", i)
		all = append(all, k)
		seg = segPut(seg, k, []byte("v"))
	}
	writeSegment(t, src, 1, seg)
	doomed := all[:4]
	tomb := segKeyBatch([]byte(segMagic), doomed, true)
	writeSegment(t, src, 2, tomb)

	for cut := int64(0); cut <= int64(len(tomb)); cut++ {
		dir := copyDir(t, src)
		segPath, _ := findOne(t, dir, ".seg", true)
		truncateFile(t, segPath, cut)
		re, err := store.NewFileBackend(dir)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		checkFirstCount(t, re, all, fmt.Sprintf("cut %d", cut))
		got := backendKeys(t, re)
		j := 0
		for j < len(doomed) && !got[doomed[j]] {
			j++
		}
		for i := j; i < len(doomed); i++ {
			if !got[doomed[i]] {
				t.Fatalf("cut %d: deletion of %q applied without earlier %q", cut, doomed[i], doomed[j])
			}
		}
		for _, k := range all[4:] {
			if !got[k] {
				t.Fatalf("cut %d: undeleted key %q lost", cut, k)
			}
		}
		re.Close()
	}
}

// storeFlavours are the persistent store configurations the end-to-end
// crash tests run over.
func storeFlavours() []struct {
	name string
	open func(t *testing.T, dir string) store.Backend
	tail func(t *testing.T, dir string) (string, int64) // crash-prone tail file
} {
	return []struct {
		name string
		open func(t *testing.T, dir string) store.Backend
		tail func(t *testing.T, dir string) (string, int64)
	}{
		{
			name: "kvdb",
			open: func(t *testing.T, dir string) store.Backend {
				b, err := store.NewKVBackend(dir)
				if err != nil {
					t.Fatal(err)
				}
				return b
			},
			tail: func(t *testing.T, dir string) (string, int64) { return findOne(t, dir, ".log", false) },
		},
	}
}

// TestStoreCrashRecoveryPlannerEqualsScan is the end-to-end property:
// populate a store and compact it, then delete a session and record one
// more batch, crash by truncating the log at every byte boundary of that
// tail, reopen, and require that the index opens without a rebuild — no
// byte written past what the kvdb open left — and that planner results
// are byte-identical to a scan, whatever of the interrupted work
// survived.
func TestStoreCrashRecoveryPlannerEqualsScan(t *testing.T) {
	for _, fl := range storeFlavours() {
		t.Run(fl.name, func(t *testing.T) {
			src := t.TempDir()
			b := fl.open(t, src)
			s := store.New(b)
			var sessions []ids.ID
			for i := 0; i < 3; i++ {
				sid := seq.NewID()
				sessions = append(sessions, sid)
				var recs []core.Record
				for a := 0; a < 3; a++ {
					recs = append(recs, mkInteraction(sid, core.ActorID(fmt.Sprintf("svc:stage-%d", a)), a))
				}
				if _, _, err := s.Record("svc:enactor", recs); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			// The interrupted work: delete a whole session (records +
			// postings), then record one more batch — both land in the
			// log's tail.
			_, tailStart := fl.tail(t, src)
			if _, err := s.DeleteSession(sessions[0]); err != nil {
				t.Fatal(err)
			}
			extra := seq.NewID()
			sessions = append(sessions, extra)
			var recs []core.Record
			for a := 0; a < 2; a++ {
				recs = append(recs, mkInteraction(extra, "svc:tail", a))
			}
			if _, _, err := s.Record("svc:enactor", recs); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			_, hi := fl.tail(t, src)
			for _, cut := range cutsOf(tailStart, hi, 512) {
				dir := copyDir(t, src)
				path, _ := fl.tail(t, dir)
				truncateFile(t, path, cut)
				rb := fl.open(t, dir)
				_, opened := fl.tail(t, dir)
				rs := store.New(rb)
				if _, err := rs.Index(); err != nil {
					t.Fatalf("cut %d: index open: %v", cut, err)
				}
				if _, size := fl.tail(t, dir); size != opened {
					t.Fatalf("cut %d: opening the index grew the log from %d to %d bytes: it rebuilt", cut, opened, size)
				}
				assertPlannerEqualsScan(t, rs, sessions, fmt.Sprintf("cut %d", cut))
				if err := rs.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSchemaOneStoreMigratesOnce plants, in a store, the states that
// schema "1" could leave — a record without postings, postings whose
// record is gone, a deficit marker — under a schema "1" marker. The
// first open rebuilds the index; truncating the log anywhere in that
// rebuild leaves a store whose next open rebuilds again; and once a
// rebuild has finished, an open rebuilds nothing. Planned queries equal a
// scan throughout.
func TestSchemaOneStoreMigratesOnce(t *testing.T) {
	for _, fl := range storeFlavours() {
		t.Run(fl.name, func(t *testing.T) {
			src := t.TempDir()
			b := fl.open(t, src)
			s := store.New(b)
			var sessions []ids.ID
			var recs []core.Record
			for i := 0; i < 3; i++ {
				sid := seq.NewID()
				sessions = append(sessions, sid)
				recs = append(recs, mkInteraction(sid, "svc:stage", i), mkInteraction(sid, "svc:stage", i+3))
			}
			if _, _, err := s.Record("svc:enactor", recs[:4]); err != nil {
				t.Fatal(err)
			}
			unindexed, err := core.EncodeRecord(&recs[4])
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []kv.Pair{
				{Key: recs[4].StorageKey(), Value: unindexed},
				{Key: "xm/schema", Value: []byte("1")},
				{Key: "xm/deficit/i", Value: []byte("1")},
			} {
				if err := b.Put(p.Key, p.Value); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Delete(recs[0].StorageKey()); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			_, planted := fl.tail(t, src)

			// open reopens dir, opens its index and reports whether that
			// rebuilt it, after checking the planner against a scan and
			// that no dangling posting or deficit marker is left.
			open := func(dir, label string) (rebuilt bool) {
				t.Helper()
				rb := fl.open(t, dir)
				defer rb.Close()
				_, opened := fl.tail(t, dir)
				rs := store.New(rb)
				idx, err := rs.Index()
				if err != nil {
					t.Fatalf("%s: index open: %v", label, err)
				}
				assertPlannerEqualsScan(t, rs, sessions, label)
				if n, err := idx.CountPostings("int", recs[0].InteractionID().String()); err != nil || n != 0 {
					t.Fatalf("%s: the deleted record keeps %d interaction postings (%v)", label, n, err)
				}
				if n, err := rb.Count("xm/deficit/"); err != nil || n != 0 {
					t.Fatalf("%s: %d deficit markers left (%v)", label, n, err)
				}
				_, size := fl.tail(t, dir)
				return size != opened
			}
			migrated := copyDir(t, src)
			if !open(migrated, "first open") {
				t.Fatal("a schema-1 store opened without a rebuild")
			}
			if open(migrated, "second open") {
				t.Fatal("the migrated store rebuilt again")
			}
			path, full := fl.tail(t, migrated)
			log, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, cut := range cutsOf(planted, full, 512) {
				dir := copyDir(t, migrated)
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), log[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("rebuild cut at %d of %d", cut, full)
				if rebuilt := open(dir, label); rebuilt != (cut < full) {
					t.Fatalf("%s: rebuilt=%v", label, rebuilt)
				}
				if open(dir, label+", reopened") {
					t.Fatalf("%s: the store rebuilt again after a rebuild finished", label)
				}
			}
		})
	}
}

// TestSchemaOneMigrationKeepsPostings migrates a clean schema "1" store —
// 98 records whose postings are all right, under an old marker — and
// requires the rebuild to grow the log by under 5 %: it writes the
// difference between the postings the records call for and those
// stored, which here is nothing but the marker. Tombstoning every
// posting and putting it back, as the rebuild once did, doubled the log.
func TestSchemaOneMigrationKeepsPostings(t *testing.T) {
	for _, fl := range storeFlavours() {
		t.Run(fl.name, func(t *testing.T) {
			dir := t.TempDir()
			b := fl.open(t, dir)
			s := store.New(b)
			var sessions []ids.ID
			for i := 0; i < 7; i++ {
				sid := seq.NewID()
				sessions = append(sessions, sid)
				var recs []core.Record
				for a := 0; a < 14; a++ {
					recs = append(recs, mkInteraction(sid, core.ActorID(fmt.Sprintf("svc:stage-%d", a%3)), a))
				}
				if _, _, err := s.Record("svc:enactor", recs); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Put("xm/schema", []byte("1")); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			_, before := fl.tail(t, dir)

			rb := fl.open(t, dir)
			rs := store.New(rb)
			if _, err := rs.Index(); err != nil {
				t.Fatal(err)
			}
			assertPlannerEqualsScan(t, rs, sessions, "migrated")
			if err := rs.Close(); err != nil {
				t.Fatal(err)
			}
			_, after := fl.tail(t, dir)
			if after == before {
				t.Fatal("a schema-1 store opened without a rebuild")
			}
			if grown := float64(after-before) / float64(before); grown >= 0.05 {
				t.Fatalf("migrating a clean schema-1 store grew the log from %d to %d bytes (+%.1f%%), want under 5%%", before, after, 100*grown)
			}
		})
	}
}
