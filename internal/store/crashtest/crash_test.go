package crashtest

// Crash-recovery tests: the kvdb log is truncated (and corrupted) at
// EVERY byte boundary inside an interrupted PutBatch / DeleteBatch
// tail, then reopened. Recovery must keep a kvdb batch whole or drop it
// whole — and at the store level, open an index that writes nothing
// and whose planner answers match a full scan byte for byte. A store in
// an earlier format is refused, and nothing is written.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/kv"
	"preserv/internal/kvdb"
	"preserv/internal/prep"
	"preserv/internal/query"
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

// requireRefusedUnchanged requires Store.Record and a planned query on
// the store in dir to fail with core.ErrOldFormat naming layout and
// commit, whose binary reads it, writing nothing: the log keeps its
// bytes.
func requireRefusedUnchanged(t *testing.T, open func(t *testing.T, dir string) store.Backend, dir, layout, commit string, sessions []ids.ID) {
	t.Helper()
	logPath, _ := findOne(t, dir, ".log", false)
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	b := open(t, dir)
	s := store.New(b)
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, core.ErrOldFormat) || !strings.Contains(err.Error(), layout) || !strings.Contains(err.Error(), commit) {
			t.Fatalf("%s: error %v, want core.ErrOldFormat naming %q and commit %s", what, err, layout, commit)
		}
	}
	_, _, err = s.Record("svc:enactor", []core.Record{mkInteraction(sessions[0], "svc:late", 9)})
	check("Record", err)
	_, _, _, err = query.New(s).Query(&prep.Query{SessionID: sessions[0]})
	check("planned query", err)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("the refused store's log changed from %d to %d bytes", len(before), len(after))
	}
}

// TestSchemaOneStoreRefused plants, in a store, the states that schema
// "1" could leave — a record without postings, postings whose record is
// gone, a deficit marker — under a schema "1" marker. Recording and
// querying are refused, by name, and write nothing.
func TestSchemaOneStoreRefused(t *testing.T) {
	for _, fl := range storeFlavours() {
		t.Run(fl.name, func(t *testing.T) {
			dir := t.TempDir()
			b := fl.open(t, dir)
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
			requireRefusedUnchanged(t, fl.open, dir, "index schema 1", core.LastAdoptingCommit, sessions)
		})
	}
}

// TestSchemaTwoStoreRefused turns a store into one schema "2" wrote —
// its marker, and an interaction and a kind posting beside each
// record's others. Recording and querying are refused, naming the
// commit whose binary still serves it, and write nothing.
func TestSchemaTwoStoreRefused(t *testing.T) {
	for _, fl := range storeFlavours() {
		t.Run(fl.name, func(t *testing.T) {
			dir := t.TempDir()
			b := fl.open(t, dir)
			sid := seq.NewID()
			recs := []core.Record{mkInteraction(sid, "svc:stage", 0), mkInteraction(sid, "svc:stage", 1)}
			if _, _, err := store.New(b).Record("svc:enactor", recs); err != nil {
				t.Fatal(err)
			}
			pairs := []kv.Pair{{Key: "xm/schema", Value: []byte("2")}}
			for _, r := range recs {
				pairs = append(pairs, kv.Pair{Key: "x/int/" + r.InteractionID().String() + "/" + r.StorageKey()},
					kv.Pair{Key: "x/kind/i/" + r.StorageKey()})
			}
			if err := b.PutBatch(pairs); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			requireRefusedUnchanged(t, fl.open, dir, "index schema 2", "f59a0e5", []ids.ID{sid})
		})
	}
}

// TestUnindexedStoreRefused removes the schema marker from a store of
// 98 records whose postings are all right, and then every posting too,
// as a store recorded before indexing existed holds them. Either way
// recording and querying are refused, by name, and write nothing.
func TestUnindexedStoreRefused(t *testing.T) {
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
			if err := b.Delete("xm/schema"); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			requireRefusedUnchanged(t, fl.open, dir, "unindexed store", core.LastAdoptingCommit, sessions)

			b = fl.open(t, dir)
			if err := b.DeleteBatch(keysOf(t, b.(*kvdb.DB), "x/")); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			requireRefusedUnchanged(t, fl.open, dir, "unindexed store", core.LastAdoptingCommit, sessions)
		})
	}
}
