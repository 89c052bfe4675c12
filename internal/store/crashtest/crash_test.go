package crashtest

// Crash-recovery tests: the kvdb log is truncated (and corrupted) at
// EVERY byte boundary inside an interrupted PutBatch / DeleteBatch
// tail, and so are the PSEG1 segments an earlier file backend left,
// then reopened. Recovery must always produce a clean prefix of the
// batch — and at the store level, an index whose planner answers match
// a full scan byte for byte.

import (
	"fmt"
	"os"
	"slices"
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

// TestKvdbTornPutBatchEveryByte interrupts a PutBatch at every byte of
// its log tail: recovery keeps the committed base intact and a strict
// prefix of the batch, monotonically growing with the cut point.
func TestKvdbTornPutBatchEveryByte(t *testing.T) {
	src := t.TempDir()
	db, err := kvdb.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	base := []kv.Pair{{Key: "i/base/1", Value: []byte("b1")}, {Key: "i/base/2", Value: []byte("b2")}}
	if err := db.PutBatch(base); err != nil {
		t.Fatal(err)
	}
	baseSize := db.LogBytes()
	var batch []kv.Pair
	var batchKeys []string
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("i/torn/%d", i)
		batch = append(batch, kv.Pair{Key: k, Value: []byte(fmt.Sprintf("value-%d", i))})
		batchKeys = append(batchKeys, k)
	}
	if err := db.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	fullSize := db.LogBytes()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	lastK := 0
	for cut := baseSize; cut <= fullSize; cut++ {
		dir := copyDir(t, src)
		logPath, _ := findOne(t, dir, ".log", false)
		truncateFile(t, logPath, cut)
		re, err := kvdb.Open(dir)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		checkFirstCount(t, re, append(keysOfPairs(base), batchKeys...), fmt.Sprintf("cut %d", cut))
		for _, p := range base {
			if !has(t, re, p.Key) {
				t.Fatalf("cut %d: committed base key %q lost", cut, p.Key)
			}
		}
		got := make(map[string]bool)
		for _, k := range keysOf(t, re, "i/torn/") {
			got[k] = true
		}
		k := prefixOf(t, got, batchKeys, fmt.Sprintf("cut %d", cut))
		if len(got) != k {
			t.Fatalf("cut %d: recovered %d torn keys but prefix is %d", cut, len(got), k)
		}
		if k < lastK {
			t.Fatalf("cut %d: prefix shrank from %d to %d as the cut grew", cut, lastK, k)
		}
		lastK = k
		re.Close()
	}
	if lastK != len(batchKeys) {
		t.Fatalf("full log recovered only %d/%d batch keys", lastK, len(batchKeys))
	}
}

// TestKvdbTornDeleteBatchEveryByte interrupts a DeleteBatch the same
// way: the applied deletions always form a strict prefix of the batch.
func TestKvdbTornDeleteBatchEveryByte(t *testing.T) {
	src := t.TempDir()
	db, err := kvdb.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("i/del/%d", i)
		all = append(all, k)
		if err := db.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	baseSize := db.LogBytes()
	doomed := all[:4]
	if err := db.DeleteBatch(doomed); err != nil {
		t.Fatal(err)
	}
	fullSize := db.LogBytes()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	lastJ := 0
	for cut := baseSize; cut <= fullSize; cut++ {
		dir := copyDir(t, src)
		logPath, _ := findOne(t, dir, ".log", false)
		truncateFile(t, logPath, cut)
		re, err := kvdb.Open(dir)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		checkFirstCount(t, re, all, fmt.Sprintf("cut %d", cut))
		// Deletions apply in slice order: the missing keys must be
		// doomed[:j] for some j.
		j := 0
		for j < len(doomed) && !has(t, re, doomed[j]) {
			j++
		}
		for i := j; i < len(doomed); i++ {
			if !has(t, re, doomed[i]) {
				t.Fatalf("cut %d: deletion of %q applied without earlier %q", cut, doomed[i], doomed[j])
			}
		}
		for _, k := range all[4:] {
			if !has(t, re, k) {
				t.Fatalf("cut %d: undeleted key %q lost", cut, k)
			}
		}
		if j < lastJ {
			t.Fatalf("cut %d: deletion prefix shrank from %d to %d", cut, lastJ, j)
		}
		lastJ = j
		re.Close()
	}
	if lastJ != len(doomed) {
		t.Fatalf("full log applied only %d/%d deletions", lastJ, len(doomed))
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
// keys in the index's order (kind posting last for each record), which
// PutBatch writes as one sorted, front-coded key-batch entry.
func postingBatch(records int) []kv.Pair {
	var pairs []kv.Pair
	for r := 0; r < records; r++ {
		for _, dim := range []string{"session", "actor", "kind"} {
			pairs = append(pairs, kv.Pair{Key: fmt.Sprintf("x/%s/urn:pasoa:%02d/i/rec/%d", dim, r%2, r)})
		}
	}
	return pairs
}

// TestKvdbTornPostingBatchEveryByte interrupts a PutBatch of postings at
// every byte of its log tail. The postings are one key-batch entry, so
// recovery keeps the committed base intact and the batch's postings all
// or none, never fewer as the cut grows.
func TestKvdbTornPostingBatchEveryByte(t *testing.T) {
	src := t.TempDir()
	db, err := kvdb.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	base := []kv.Pair{{Key: "i/rec/0", Value: []byte("r0")}, {Key: "x/kind/i/i/rec/0"}}
	if err := db.PutBatch(base); err != nil {
		t.Fatal(err)
	}
	baseSize := db.LogBytes()
	batch := postingBatch(6)
	if err := db.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	fullSize := db.LogBytes()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	whole := false
	for cut := baseSize; cut <= fullSize; cut++ {
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
		switch {
		case got != 0 && got != len(batch):
			t.Fatalf("cut %d: %d of the batch's %d postings recovered", cut, got, len(batch))
		case whole && got == 0:
			t.Fatalf("cut %d: the batch recovered at a shorter cut is lost", cut)
		}
		whole = got == len(batch)
		re.Close()
	}
	if !whole {
		t.Fatal("the full log did not recover the batch")
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
// populate a store, keep writing and deleting, crash by truncating the
// backend's newest crash-prone file at every byte boundary of the tail
// region, reopen, force the index through its consistency check, and
// require planner results byte-identical to a scan — whatever prefix of
// the interrupted work survived.
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
			// The interrupted work: delete a whole session (records +
			// postings), then record one more batch — both land in the
			// backend's tail.
			tailPath, tailStart := fl.tail(t, src)
			_ = tailPath
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

			// The tail region is [tailStart, end) of the one log file.
			cuts := func(dir string) (string, int64, int64) {
				path, size := fl.tail(t, dir)
				return path, tailStart, size
			}
			_, lo, hi := cuts(src)
			step := int64(1)
			if hi-lo > 512 {
				// Every byte boundary of a long tail would run minutes;
				// sample densely instead, always including both ends.
				step = (hi - lo) / 512
			}
			for cut := lo; cut <= hi; cut += step {
				dir := copyDir(t, src)
				path, _, _ := cuts(dir)
				truncateFile(t, path, cut)
				rb := fl.open(t, dir)
				rs := store.New(rb)
				if _, err := rs.Index(); err != nil {
					t.Fatalf("cut %d: index open: %v", cut, err)
				}
				assertPlannerEqualsScan(t, rs, sessions, fmt.Sprintf("cut %d", cut))
				if err := rs.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
