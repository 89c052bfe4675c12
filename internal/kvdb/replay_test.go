package kvdb

// The replay window must be invisible: whatever its size, a log opens to
// the state its writer left, and a damaged log to the state of its
// longest valid prefix. These tests shrink the window until entries land
// before, on and across its boundaries and outgrow it.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"preserv/internal/kv"
)

// tinyWindow is smaller than most test entries and larger than a few.
const tinyWindow = 64

// setWindow runs the rest of the test under an n-byte replay window.
func setWindow(t testing.TB, n int) {
	t.Helper()
	old := replayWindow
	replayWindow = n
	t.Cleanup(func() { replayWindow = old })
}

// logView is everything a reopen must reproduce.
type logView struct {
	Keys, Values             []string
	Len                      int
	LogBytes, Garbage, Tombs int64
}

func viewOf(t testing.TB, db *DB) logView {
	t.Helper()
	// The scan folds the view, which charges the key-batch keys that
	// pending writes superseded: only then is garbage the writer's.
	keys := keysOf(t, db, "")
	v := logView{Keys: keys, Len: db.Len(),
		LogBytes: db.LogBytes(), Garbage: db.garbage, Tombs: db.Tombstones()}
	for _, k := range v.Keys {
		val, ok, err := db.Get(k)
		if err != nil || !ok {
			t.Fatalf("key %q does not read back: %v, %v", k, ok, err)
		}
		v.Values = append(v.Values, string(val))
	}
	return v
}

// checkBuiltAtOpen checks the sorted key view of a DB that Open just
// returned, before any other call: it is current, so no read has to fold
// it; its per-key keys are exactly the directory map's; and each of its
// key-batch keys lies in the key-batch entry its location names, charged
// the share kv.KeyShare gives it there. ScanFrom alone would not tell: it
// yields the view's keys as they are.
func checkBuiltAtOpen(t testing.TB, db *DB) {
	t.Helper()
	keys, ok := db.keys.Clean()
	if !ok {
		t.Fatal("Open returned with the sorted key view not current")
	}
	var valued []string
	for k, loc := range keys.Range("", "") {
		if !loc.batched() {
			valued = append(valued, k)
			continue
		}
		if _, ok := db.index[k]; ok {
			t.Fatalf("%q is in both the directory map and, at %d, a key batch", k, loc.off())
		}
		head := make([]byte, headerSize)
		if _, err := db.f.ReadAt(head, loc.off()); err != nil || head[4]&flagKeyBatch == 0 {
			t.Fatalf("%q placed at %d, which holds no key-batch entry (%v)", k, loc.off(), err)
		}
		rec := make([]byte, headerSize+int(binary.BigEndian.Uint32(head[9:])))
		if _, err := db.f.ReadAt(rec, loc.off()); err != nil {
			t.Fatal(err)
		}
		batch, err := kv.ParseKeyBatch(rec[headerSize:])
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for i, key := range batch.All() {
			if string(key) == k {
				found = true
				if share := kv.KeyShare(int64(len(rec)), batch.Len(), i); share != loc.share() {
					t.Fatalf("%q charged %d bytes of its entry, want %d", k, loc.share(), share)
				}
			}
		}
		if !found || batch.Delete() {
			t.Fatalf("the key-batch entry at %d does not put %q", loc.off(), k)
		}
	}
	if want := slices.Sorted(maps.Keys(db.index)); !slices.Equal(valued, want) {
		t.Fatalf("the view built at open holds the per-key keys\n%q\nthe directory\n%q", valued, want)
	}
	if n, err := db.Count(""); err != nil || n != keys.Len() || n != db.Len() {
		t.Fatalf("Count(\"\") = %d, %v; the view holds %d, Len %d", n, err, keys.Len(), db.Len())
	}
}

// openView opens the log bytes in a fresh directory on fs and returns
// the recovered view and the length recovery left the file at.
func openView(t testing.TB, fs fsys, log []byte) (logView, int64) {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, fs, filepath.Join(dir, dataFileName), log)
	db, err := open(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.f.Close() // not db.Close: thousands of opens need no fsync each
	checkBuiltAtOpen(t, db)
	st, err := db.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return viewOf(t, db), st.Size()
}

// sizedKey and sizedVal draw from a small key space, so sequences
// overwrite and delete what they wrote, with lengths that put entries
// between 15 and 110 bytes: several to a tiny window, or more than one.
func sizedKey(rng *rand.Rand) string {
	id := rng.Intn(12)
	return fmt.Sprintf("k%0*d", 1+3*id, id)
}

func sizedVal(rng *rand.Rand) []byte {
	return bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, rng.Intn(60))
}

func TestReopenReproducesLiveStateAtAnyWindow(t *testing.T) {
	onEachFS(t, func(t *testing.T, fs fsys, _ string) {
		windows := []int{replayWindow, tinyWindow, headerSize - 1}
		for seed := int64(0); seed < 40; seed++ {
			dir := t.TempDir()
			db, err := open(fs, dir)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			steps := 20 + rng.Intn(60)
			huge := rng.Intn(steps) // the step that writes a value several windows long
			for i := 0; i < steps; i++ {
				switch op := rng.Intn(24); {
				case i == huge:
					err = db.Put(sizedKey(rng), bytes.Repeat([]byte("H"), 5*tinyWindow+rng.Intn(tinyWindow)))
				case op < 8:
					err = db.Put(sizedKey(rng), sizedVal(rng))
				case op < 13:
					pairs := make([]kv.Pair, 1+rng.Intn(5))
					for j := range pairs {
						pairs[j] = kv.Pair{Key: sizedKey(rng), Value: sizedVal(rng)}
					}
					err = db.PutBatch(pairs)
				case op < 16:
					// Posting-shaped: runs of empty values, each one key-batch
					// entry, between per-key entries.
					pairs := make([]kv.Pair, 1+rng.Intn(8))
					for j := range pairs {
						pairs[j] = kv.Pair{Key: sizedKey(rng)}
						if rng.Intn(4) == 0 {
							pairs[j].Value = sizedVal(rng)
						}
					}
					err = db.PutBatch(pairs)
				case op < 19:
					err = db.Delete(sizedKey(rng))
				case op < 23:
					keys := make([]string, 1+rng.Intn(4))
					for j := range keys {
						keys[j] = sizedKey(rng)
					}
					err = db.DeleteBatch(keys)
				default:
					err = db.Compact()
				}
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, i, err)
				}
			}
			live := viewOf(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			log := readFile(t, fs, filepath.Join(dir, dataFileName))
			for _, win := range windows {
				setWindow(t, win)
				got, size := openView(t, fs, log)
				if !reflect.DeepEqual(got, live) {
					t.Fatalf("seed %d, window %d: reopened\n%+v\nlive\n%+v", seed, win, got, live)
				}
				if size != int64(len(log)) {
					t.Fatalf("seed %d, window %d: an intact log was cut from %d to %d bytes", seed, win, len(log), size)
				}
			}
		}
	})
}

// Every torn tail and sampled bit flips, under the tiny window: what
// TestCrashRecoveryTruncatesTornTail and CorruptMiddleStops assert at the
// default one. The log is built one entry per call, so the live DB's view
// after each call is the expected recovery of every prefix ending there.
func TestDamagedLogRecoversLongestValidPrefixAtTinyWindow(t *testing.T) {
	onEachFS(t, func(t *testing.T, fs fsys, dir string) {
		db, err := open(fs, dir)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(24))
		ends := []int64{0}                // ends[i]: log length after i entries
		views := []logView{viewOf(t, db)} // views[i]: state after i entries
		for i := 0; i < 30; i++ {
			before := db.LogBytes()
			switch {
			case i == 11:
				err = db.Put(sizedKey(rng), bytes.Repeat([]byte("H"), 3*tinyWindow))
			case rng.Intn(4) == 0:
				err = db.Delete(sizedKey(rng))
			default:
				err = db.Put(sizedKey(rng), sizedVal(rng))
			}
			if err != nil {
				t.Fatal(err)
			}
			if db.LogBytes() == before {
				continue // deleted an absent key: nothing logged
			}
			ends = append(ends, db.LogBytes())
			views = append(views, viewOf(t, db))
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		log := readFile(t, fs, filepath.Join(dir, dataFileName))
		setWindow(t, tinyWindow)
		// wholeBefore is how many entries end at or before byte position pos.
		wholeBefore := func(pos int) int {
			return sort.Search(len(ends), func(i int) bool { return ends[i] > int64(pos) }) - 1
		}
		check := func(what string, damaged []byte, valid int) {
			t.Helper()
			got, size := openView(t, fs, damaged)
			if !reflect.DeepEqual(got, views[valid]) {
				t.Fatalf("%s: recovered\n%+v\nwant the state after %d entries\n%+v", what, got, valid, views[valid])
			}
			if size != ends[valid] {
				t.Fatalf("%s: file left at %d bytes, want %d", what, size, ends[valid])
			}
		}
		for cut := 0; cut <= len(log); cut++ {
			check(fmt.Sprintf("cut at %d", cut), log[:cut], wholeBefore(cut))
		}
		for n := 0; n < 150; n++ {
			pos := rng.Intn(len(log))
			flipped := append([]byte(nil), log...)
			flipped[pos] ^= 1 << rng.Intn(8)
			// The entry holding pos fails its check; those wholly before it stand.
			check(fmt.Sprintf("bit flipped at %d", pos), flipped, wholeBefore(pos))
		}
	})
}

// A compaction's redo window is the live log's own bytes: if they do not
// parse as whole, intact entries the compaction must fail, remove its
// temp file and leave the live log authoritative.
func TestCompactRejectsDamagedRedoWindow(t *testing.T) {
	for name, damage := range map[string]func(entry []byte) []byte{
		"bad CRC":     func(e []byte) []byte { e[len(e)-1] ^= 0x40; return e },
		"torn length": func(e []byte) []byte { return e[:len(e)-3] },
	} {
		t.Run(name, func(t *testing.T) {
			onEachFS(t, func(t *testing.T, fs fsys, dir string) {
				db, err := open(fs, dir)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				for i := 0; i < 2000; i++ {
					if err := db.Put(fmt.Sprintf("k%04d", i), []byte("value")); err != nil {
						t.Fatal(err)
					}
				}
				bad := damage(encodeRecord(nil, 0, "late", []byte("written while compacting")))
				tmpPath := filepath.Join(dir, tmpFileName)

				// Land the damaged append inside a running compaction's redo
				// window: compact.tmp exists exactly from the snapshot to the
				// swap, and the swap needs db.mu — so seeing the file while
				// holding db.mu means the bytes appended now will be folded.
				land := func() bool {
					db.mu.Lock()
					defer db.mu.Unlock()
					if !exists(fs, tmpPath) {
						return false
					}
					if _, err := db.f.WriteAt(bad, db.offset); err != nil {
						t.Fatal(err)
					}
					db.offset += int64(len(bad))
					return true
				}
				// attempt runs one compaction and tries to get the append in.
				attempt := func() (landed bool, err error) {
					done := make(chan error, 1)
					go func() { done <- db.Compact() }()
					for {
						if land() {
							return true, <-done
						}
						select {
						case err := <-done:
							return false, err
						default:
						}
					}
				}
				landed, compactErr := attempt()
				for !landed { // it finished before the append got in: go again
					if compactErr != nil {
						t.Fatal(compactErr)
					}
					landed, compactErr = attempt()
				}
				if compactErr == nil {
					t.Fatal("Compact folded a damaged redo window without complaint")
				}
				if exists(fs, tmpPath) {
					t.Error("compact.tmp left behind")
				}
				if v, ok, err := db.Get("k1999"); err != nil || !ok || string(v) != "value" {
					t.Errorf("live log unreadable after failed compaction: %q %v", v, err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				db2, err := open(fs, dir)
				if err != nil {
					t.Fatal(err)
				}
				defer db2.Close()
				if late := has(t, db2, "late"); db2.Len() != 2000 || late {
					t.Errorf("reopen after failed compaction: %d keys, late=%v; want the 2000 intact ones", db2.Len(), late)
				}
			})
		})
	}
}

// Open builds the sorted key view from the keys in the order replay met
// them, leaving out those that left the directory again: each log below
// opens to a view holding exactly its live keys, through either window.
func TestOpenBuildsKeyViewFromReplay(t *testing.T) {
	onEachFS(t, func(t *testing.T, fs fsys, _ string) {
		put := func(log []byte, key, val string) []byte { return encodeRecord(log, 0, key, []byte(val)) }
		batch := func(log []byte, del bool, keys ...string) []byte { return appendKeyBatch(log, 0, keys, del) }
		reput := batch(batch(put(put(nil, "a", "1"), "x/1", "posted"), false, "x/2", "x/3"), true, "x/1", "x/2")
		reput = batch(put(reput, "a", "2"), false, "x/1", "x/4")
		cases := []struct {
			name string
			log  []byte
			want []string
		}{
			{"overwrite", batch(put(put(put(nil, "b", "1"), "a", "1"), "b", "2"), false, "a", "x/1"), []string{"a", "b", "x/1"}},
			{"key-batch delete", batch(batch(put(nil, "a", "1"), false, "x/1", "x/2", "x/3"), true, "a", "x/2", "x/9"), []string{"x/1", "x/3"}},
			{"delete then re-put", reput, []string{"a", "x/1", "x/3", "x/4"}},
			{"torn tail", put(reput, "z", "torn")[:len(reput)+headerSize+2], []string{"a", "x/1", "x/3", "x/4"}},
			{"empty", nil, []string{}},
		}
		for _, win := range []int{replayWindow, tinyWindow} {
			setWindow(t, win)
			for _, c := range cases {
				got, _ := openView(t, fs, c.log) // checkBuiltAtOpen compares the view with the directory
				if !slices.Equal(got.Keys, c.want) {
					t.Errorf("%s, window %d: opened to %q, want %q", c.name, win, got.Keys, c.want)
				}
			}
		}
	})
}
