package kvdb

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"reflect"
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

// A run of keys longer than kv.KeyBatchMax goes into several key-batch
// entries, cut in slice order, and a key that two of them name is
// accounted as replay accounts it: live state and reopened state agree.
func TestKeyBatchesSplitPastMax(t *testing.T) {
	onEachFS(t, func(t *testing.T, fs fsys, dir string) {
		db, err := open(fs, dir)
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
		log := readFile(t, fs, filepath.Join(dir, dataFileName))
		batches := 0
		for _, e := range walkLog(t, log) {
			if e.flags&flagKeyBatch != 0 {
				batches++
			}
		}
		if batches != 4 {
			t.Fatalf("%d key-batch entries, want two for the puts and two for the deletes", batches)
		}
		if got, _ := openView(t, fs, log); !reflect.DeepEqual(got, live) || live.Len != 1 || live.Tombs != 21 {
			t.Fatalf("reopened\n%+v\nlive\n%+v", got, live)
		}
	})
}
