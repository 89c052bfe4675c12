package store

// Native fuzz target for the PSEG1 segment parser: whatever bytes end
// up in a .seg file (torn renames, disk corruption), walking its
// entries must terminate, make progress, and never panic — corruption
// parses as a torn tail, exactly like adoption treats it. A store whose
// one segment holds the bytes must open through NewFileBackend, adopt
// it, and count exactly the keys a scan visits — or, only when an entry
// holds a key the log cannot, fail naming the segment.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"preserv/internal/kvdb"
)

// buildSegment assembles a valid segment buffer from (key, value,
// tombstone) triples, for seeding.
func buildSegment(entries []struct {
	key  string
	val  string
	tomb bool
}) []byte {
	buf := []byte(segMagic)
	for _, e := range entries {
		if e.tomb {
			buf = appendSegTombstone(buf, e.key)
		} else {
			buf = appendSegEntry(buf, e.key, []byte(e.val))
		}
	}
	return buf
}

func FuzzParseSegment(f *testing.F) {
	valid := buildSegment([]struct {
		key  string
		val  string
		tomb bool
	}{
		{"i/a/1", "value-one", false},
		{"x/sess/term/i/a/1", "", false}, // empty value (a posting)
		{"i/a/1", "", true},              // tombstone
		{"s/b/2", "actor state", false},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn CRC
	f.Add(valid[:7])            // torn first entry
	f.Add([]byte(segMagic))     // empty segment
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	corrupt[len(segMagic)+2] ^= 0xFF
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Walk the way loadSegment does, from offset 0 (the fuzz input
		// is the post-magic byte stream; magic validation is separate).
		off := 0
		for off < len(data) {
			e, ok := parseSegEntry(data, off)
			if !ok {
				break // torn tail: the walk must simply stop
			}
			next := off + e.size
			if next <= off {
				t.Fatalf("no progress at offset %d (next %d)", off, next)
			}
			if next > len(data) {
				t.Fatalf("entry at %d overruns the buffer: next %d > %d", off, next, len(data))
			}
			for _, key := range e.batch.All() {
				if len(key) == 0 {
					t.Fatalf("key batch at %d parsed an empty key", off)
				}
			}
			if e.key == "" && e.batch.Len() == 0 {
				t.Fatalf("entry at %d parsed an empty key", off)
			}
			if !e.tomb {
				if e.valOff < 0 || e.valOff+e.valLen > len(data) {
					t.Fatalf("entry at %d: value [%d:%d) outside buffer", off, e.valOff, e.valOff+e.valLen)
				}
			}
			off = next
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x%s", 1, segExt)), append([]byte(segMagic), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := NewFileBackend(dir)
		if err != nil {
			// Only an entry with a key over kvdb.MaxKeyLen may fail the
			// open, and the error must name the segment.
			if len(data) <= kvdb.MaxKeyLen || !strings.Contains(err.Error(), segExt) {
				t.Fatalf("open over the segment: %v", err)
			}
			return
		}
		defer db.Close()
		checkAdopted(t, db, dir)
	})
}
