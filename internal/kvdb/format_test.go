package kvdb

import (
	"encoding/binary"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"preserv/internal/kv"
)

// logEntry is one entry of a log, as walkLog sees it.
type logEntry struct {
	flags  byte
	keyLen int
	valLen int
}

// walkLog lists the entries of a whole, intact log.
func walkLog(t *testing.T, log []byte) []logEntry {
	t.Helper()
	var out []logEntry
	for off := 0; off < len(log); {
		if len(log)-off < headerSize {
			t.Fatalf("log ends inside a header at %d", off)
		}
		e := logEntry{flags: log[off+4], keyLen: int(binary.BigEndian.Uint32(log[off+5:])), valLen: int(binary.BigEndian.Uint32(log[off+9:]))}
		out = append(out, e)
		off += headerSize + e.keyLen + e.valLen
	}
	return out
}

// A log written before key batches existed holds one entry per key,
// postings and tombstones included. It opens to what it always opened
// to, and Compact rewrites it into the current form: the same contents,
// with the postings in key-batch entries, in fewer bytes.
func TestPerKeyLogAdoptedByCompact(t *testing.T) {
	// Build the log with the per-key encoder, keeping the accounting the
	// per-key format always had: an overwritten or deleted key's entry is
	// garbage, and so is every tombstone.
	var log []byte
	live := map[string]string{}
	sizes := map[string]int64{}
	var garbage, tombs int64
	put := func(key, val string) {
		log = encodeRecord(log, 0, key, []byte(val))
		garbage += sizes[key]
		live[key], sizes[key] = val, int64(headerSize+len(key)+len(val))
	}
	for r := 0; r < 40; r++ {
		skey := fmt.Sprintf("i/urn:pasoa:%032x/sender/%04d", r/4, r)
		put(skey, fmt.Sprint("record ", r))
		for _, dim := range []string{"actor", "interaction", "session", "kind"} {
			put(fmt.Sprintf("x/%s/term-%d/%s", dim, r%3, skey), "")
		}
	}
	put("i/urn:pasoa:00000000000000000000000000000000/sender/0000", "rewritten")
	for _, key := range []string{"x/actor/term-1/i/urn:pasoa:00000000000000000000000000000000/sender/0001", "i/urn:pasoa:00000000000000000000000000000009/sender/0039"} {
		log = encodeRecord(log, flagTombstone, key, nil)
		garbage += sizes[key] + int64(headerSize+len(key))
		tombs++
		delete(live, key)
		delete(sizes, key)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, dataFileName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	before := viewOf(t, db)
	want := logView{Len: len(live), LogBytes: int64(len(log)), Garbage: garbage, Tombs: tombs}
	want.Keys = slices.Sorted(maps.Keys(live))
	for _, k := range want.Keys {
		want.Values = append(want.Values, live[k])
	}
	if !reflect.DeepEqual(before, want) {
		t.Fatalf("per-key log opened to\n%+v\nwant\n%+v", before, want)
	}
	if n, err := db.Count("x/"); err != nil || n != 40*4-1 {
		t.Fatalf("Count(x/) = %d, %v", n, err)
	}

	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	after := viewOf(t, db)
	if !reflect.DeepEqual(after.Keys, before.Keys) || !reflect.DeepEqual(after.Values, before.Values) || after.Garbage != 0 || after.Tombs != 0 {
		t.Fatalf("compaction changed the contents:\n%+v\nwas\n%+v", after, before)
	}
	var liveBytes int64
	for _, sz := range sizes {
		liveBytes += sz
	}
	if after.LogBytes >= liveBytes {
		t.Fatalf("compacted log holds %d bytes, its live per-key entries %d", after.LogBytes, liveBytes)
	}
	compacted, err := os.ReadFile(filepath.Join(dir, dataFileName))
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	for _, e := range walkLog(t, compacted) {
		switch {
		case e.flags == flagKeyBatch:
			batches++
		case e.valLen == 0:
			t.Fatalf("an empty value kept a per-key entry: %+v", e)
		}
	}
	if batches != 1 {
		t.Fatalf("the postings went into %d key-batch entries, want 1", batches)
	}
	if reopened, _ := openView(t, compacted); !reflect.DeepEqual(reopened, after) {
		t.Fatalf("the compacted log reopens to\n%+v\nlive\n%+v", reopened, after)
	}
}

// A run of keys longer than kv.KeyBatchMax goes into several key-batch
// entries, cut in slice order, and a key that two of them name is
// accounted as replay accounts it: live state and reopened state agree.
func TestKeyBatchesSplitPastMax(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []kv.Pair
	var keys []string
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("%02d/%s", 19-i, strings.Repeat("k", 60<<10))
		pairs = append(pairs, kv.Pair{Key: k})
		keys = append(keys, k)
	}
	pairs = append(pairs, pairs[0]) // in the second entry as well as the first
	if err := db.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteBatch(append(keys, keys[0])); err != nil {
		t.Fatal(err)
	}
	if err := db.Put("kept", []byte("value")); err != nil {
		t.Fatal(err)
	}
	live := viewOf(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, dataFileName))
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	for _, e := range walkLog(t, log) {
		if e.flags&flagKeyBatch != 0 {
			batches++
		}
	}
	if batches != 4 {
		t.Fatalf("%d key-batch entries, want two for the puts and two for the deletes", batches)
	}
	if got, _ := openView(t, log); !reflect.DeepEqual(got, live) || live.Len != 1 || live.Tombs != 21 {
		t.Fatalf("reopened\n%+v\nlive\n%+v", got, live)
	}
}
