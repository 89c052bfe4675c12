package store

// Tests of the adoption of the PSEG1 file layout: the golden stores
// under testdata/pseg1, written by the last version that wrote the
// layout, each beside what that version read back from it (<name>.want,
// one strconv-quoted key and value per line); every crash part way
// through the removals; and the entries the log cannot hold.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"preserv/internal/kv"
	"preserv/internal/kvdb"
)

// appendSegEntry encodes a per-key put entry.
func appendSegEntry(buf []byte, key string, value []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = binary.AppendUvarint(buf, uint64(len(value)))
	buf = append(buf, key...)
	buf = append(buf, value...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(buf)-len(key)-len(value):]))
}

// appendSegTombstone encodes the per-key deletion entry of the segments
// written before key batches.
func appendSegTombstone(buf []byte, key string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = binary.AppendUvarint(buf, segTombstoneVal)
	buf = append(buf, key...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(buf)-len(key):]))
}

// appendSegKeyBatch frames the key-batch body of keys, sorted and
// distinct, as one segment entry.
func appendSegKeyBatch(buf []byte, keys []string, del bool) []byte {
	body := kv.AppendKeyBatch(nil, keys, del)
	start := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = binary.AppendUvarint(buf, segKeyBatchVal)
	buf = append(buf, body...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// writeSegments writes segs as segments 1, 2, ... of dir.
func writeSegments(t testing.TB, dir string, segs ...[]byte) {
	t.Helper()
	for i, data := range segs {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x%s", i+1, segExt)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recordFileName is the name earlier versions gave a key's record file:
// the hex of the first 16 bytes of the key's SHA-256, then ".rec" (its
// key sidecar adds ".key").
func recordFileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16]) + ".rec"
}

// writePair writes key's record file pair into dir.
func writePair(t testing.TB, dir, key, value string) {
	t.Helper()
	name := filepath.Join(dir, recordFileName(key))
	if err := os.WriteFile(name, []byte(value), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name+".key", []byte(key), 0o644); err != nil {
		t.Fatal(err)
	}
}

// contentsOf renders b's contents as the .want files hold them.
func contentsOf(t testing.TB, b Backend) string {
	t.Helper()
	var out strings.Builder
	if err := b.ScanFrom("", "", func(k string, v []byte) error {
		fmt.Fprintf(&out, "%s %s\n", strconv.Quote(k), strconv.Quote(string(v)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// layoutFiles lists what of the file layout is left in dir.
func layoutFiles(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		for _, ext := range []string{segExt, recExt, recKeyExt, tmpExt, bloomExt} {
			if strings.HasSuffix(e.Name(), ext) {
				left = append(left, e.Name())
				break
			}
		}
	}
	return left
}

// checkAdopted checks a store NewFileBackend just opened over dir: its
// sorted key view counts exactly the keys a scan visits and the log
// holds, and nothing of the file layout is left.
func checkAdopted(t testing.TB, db *kvdb.DB, dir string) {
	t.Helper()
	scanned := 0
	if err := db.ScanFrom("", "", func(string, []byte) error { scanned++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n, err := db.Count(""); err != nil || n != scanned || n != db.Len() {
		t.Fatalf("Count(\"\") = %d, %v; a scan visits %d, Len %d", n, err, scanned, db.Len())
	}
	if left := layoutFiles(t, dir); len(left) != 0 {
		t.Fatalf("file layout left after the open: %v", left)
	}
}

// copyTree copies the files of src into dst, creating it.
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// fixtures returns the golden stores' names and what each reads back.
func fixtures(t *testing.T) map[string]string {
	t.Helper()
	wants, err := filepath.Glob(filepath.Join("testdata", "pseg1", "*.want"))
	if err != nil || len(wants) == 0 {
		t.Fatalf("no golden stores: %v", err)
	}
	out := make(map[string]string)
	for _, w := range wants {
		data, err := os.ReadFile(w)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(filepath.Base(w), ".want")] = string(data)
	}
	return out
}

// openFile opens dir through NewFileBackend and checks the adoption.
func openFile(t testing.TB, dir string) *kvdb.DB {
	t.Helper()
	db, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkAdopted(t, db, dir)
	return db
}

// Every golden store opens to exactly what the version that wrote it
// read back, leaves no file of the layout behind, and reopens the same.
func TestPSEG1FixturesAdopted(t *testing.T) {
	for name, want := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), name)
			copyTree(t, filepath.Join("testdata", "pseg1", name), dir)
			for _, label := range []string{"adopted", "reopened"} {
				db := openFile(t, dir)
				if got := contentsOf(t, db); got != want {
					t.Errorf("%s: opened to\n%s\nwant\n%s", label, got, want)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// removalOrder lists dir's layout files in the order adoption removes
// them: leftover temps and sidecars, then record pairs, then segments.
func removalOrder(t *testing.T, dir string) []string {
	t.Helper()
	var groups [3][]string
	for _, name := range layoutFiles(t, dir) {
		switch {
		case strings.HasSuffix(name, tmpExt), strings.HasSuffix(name, bloomExt):
			groups[0] = append(groups[0], name)
		case strings.HasSuffix(name, segExt):
			groups[2] = append(groups[2], name)
		default:
			groups[1] = append(groups[1], name)
		}
	}
	return slices.Concat(groups[:]...)
}

// A crash part way through the removals leaves a suffix of the removal
// order beside the adopted log. Every such state of every golden store
// reopens to the same contents, and the reopen finishes the removals.
func TestAdoptionCrashSuffixReopensSame(t *testing.T) {
	for name, want := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			src := filepath.Join("testdata", "pseg1", name)
			adopted := filepath.Join(t.TempDir(), "adopted")
			copyTree(t, src, adopted)
			if err := openFile(t, adopted).Close(); err != nil {
				t.Fatal(err)
			}
			order := removalOrder(t, src)
			for k := range order {
				dir := filepath.Join(t.TempDir(), "crashed")
				copyTree(t, adopted, dir)
				for _, name := range order[k:] {
					data, err := os.ReadFile(filepath.Join(src, name))
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				db := openFile(t, dir)
				if got := contentsOf(t, db); got != want {
					t.Errorf("suffix from %s: opened to\n%s\nwant\n%s", order[k], got, want)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// An entry the log cannot hold fails the open, naming its segment, and
// the segment stays where it was; a file without the PSEG1 magic is not
// a segment, and is left in place while the rest is adopted.
func TestAdoptionRefusesWhatTheLogCannotHold(t *testing.T) {
	dir := t.TempDir()
	long := strings.Repeat("k", kvdb.MaxKeyLen+1)
	writeSegments(t, dir,
		appendSegEntry([]byte(segMagic), "a", []byte("1")),
		appendSegEntry([]byte(segMagic), long, []byte("too long a key")))
	if db, err := NewFileBackend(dir); err == nil {
		db.Close()
		t.Fatal("a key over kvdb.MaxKeyLen was adopted")
	} else if !strings.Contains(err.Error(), "0000000000000002.seg") {
		t.Fatalf("the error does not name the segment: %v", err)
	}
	if left := layoutFiles(t, dir); len(left) != 2 {
		t.Fatalf("segments after the failed open: %v", left)
	}
	// A tombstone of such a key cannot go into the log either.
	dir = t.TempDir()
	writeSegments(t, dir, appendSegTombstone([]byte(segMagic), long))
	if db, err := NewFileBackend(dir); err == nil {
		db.Close()
		t.Fatal("a tombstone of a key over kvdb.MaxKeyLen was adopted")
	}
	// A record pair that cannot be read fails the open, naming it.
	dir = t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, recordFileName("k")+".key"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, recordFileName("k")), []byte("v"), 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := NewFileBackend(dir); err == nil {
		db.Close()
		t.Fatal("an unreadable record pair was adopted")
	} else if !strings.Contains(err.Error(), recordFileName("k")) {
		t.Fatalf("the error does not name the pair: %v", err)
	}

	dir = t.TempDir()
	writeSegments(t, dir, appendSegEntry([]byte(segMagic), "a", []byte("1")), []byte("PSEG0\nnot ours"))
	for i := 0; i < 2; i++ {
		db, err := NewFileBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := contentsOf(t, db); got != "\"a\" \"1\"\n" {
			t.Errorf("opened to %q", got)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if left := layoutFiles(t, dir); !slices.Equal(left, []string{"0000000000000002.seg"}) {
			t.Fatalf("left after the open: %v, want only the foreign file", left)
		}
	}
}
