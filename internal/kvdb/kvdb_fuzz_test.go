package kvdb

// Native fuzz target for the log reader: recovery must accept an
// arbitrary data.log — torn tails, flipped bits, hostile length fields
// — without panicking, truncate to the valid prefix, and reach a state
// a second open reproduces exactly (recovery is idempotent).

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"preserv/internal/kv"
)

// seedLog builds a valid log (puts, an overwrite, a tombstone) by
// running the real writer over memory.
func seedLog(f *testing.F) []byte {
	fs := newMemFS()
	db, err := open(fs, "")
	if err != nil {
		f.Fatal(err)
	}
	if err := db.PutBatch([]kv.Pair{
		{Key: "i/a/1", Value: []byte("one")},
		{Key: "i/a/2", Value: []byte("two")},
		{Key: "x/p/1", Value: nil},
	}); err != nil {
		f.Fatal(err)
	}
	if err := db.Put("i/a/1", []byte("one-rewritten")); err != nil {
		f.Fatal(err)
	}
	if err := db.Delete("i/a/2"); err != nil {
		f.Fatal(err)
	}
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	return readFile(f, fs, dataFileName)
}

func FuzzRecover(f *testing.F) {
	valid := seedLog(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn tail
	f.Add(valid[:3])            // torn first header
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt)
	// One batch of three entries (a record, a posting run, a record):
	// whole, torn inside its middle entry, and with its first entry
	// damaged.
	batch, _ := encodeBatch([]kv.Pair{{Key: "i/b/1", Value: []byte("one")}, {Key: "x/b/2"}, {Key: "x/b/1"}, {Key: "s/b/3", Value: []byte("three")}}, new(batchBuffer))
	f.Add(batch)
	second := headerSize + len("i/b/1") + len("one")
	f.Add(batch[:second+headerSize+3])
	inner := bytes.Clone(batch)
	inner[headerSize+2] ^= 0xFF
	f.Add(inner)
	f.Fuzz(func(t *testing.T, data []byte) {
		recovered := make([]logView, len(fileSystems))
		for i, fsys := range fileSystems {
			fs := fsys.new()
			dir := t.TempDir()
			writeFile(t, fs, filepath.Join(dir, dataFileName), data)
			db, err := open(fs, dir) // must not panic, whatever data is
			if err != nil {
				return // an unreadable log may be rejected, never crashed on
			}
			checkBuiltAtOpen(t, db)      // so does openView, under the tiny window
			recovered[i] = viewOf(t, db) // every recovered key reads back
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			// Idempotence: recovery truncated the torn tail, so a second
			// open sees a fully valid log and the same state.
			db2, err := open(fs, dir)
			if err != nil {
				t.Fatalf("second open after recovery failed: %v", err)
			}
			if again := viewOf(t, db2); !reflect.DeepEqual(recovered[i], again) {
				t.Fatalf("recovery not idempotent: %+v vs %+v", recovered[i], again)
			}
			db2.Close()
		}
		if !reflect.DeepEqual(recovered[0], recovered[1]) {
			t.Fatalf("the log recovered to %+v on the OS, %+v in memory", recovered[0], recovered[1])
		}
		// The replay window is invisible: the same bytes recover to the
		// same state and length through a window most entries straddle.
		setWindow(t, tinyWindow)
		for _, fsys := range fileSystems {
			if tiny, size := openView(t, fsys.new(), data); !reflect.DeepEqual(recovered[0], tiny) || size != recovered[0].LogBytes {
				t.Fatalf("%s: a %d-byte window recovered %+v (file left at %d), the default one %+v", fsys.name, tinyWindow, tiny, size, recovered[0])
			}
		}
	})
}
