package client

import (
	"bytes"
	"encoding/gob"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"preserv/internal/core"
	"preserv/internal/preserv"
	"preserv/internal/store"
)

// dirFiles maps each file in dir to its bytes.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// gobJournal encodes records as an earlier version's recorder journaled
// them: one gob stream, a value per record.
func gobJournal(t *testing.T, records ...core.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// A gob journal beside the path, active or sealed, refuses the
// recorder, naming the file and the commit whose binary ships it, and
// no file of the directory is renamed, truncated, removed or created —
// a journal in the current format beside it included.
func TestAsyncRecorderRefusesGobJournal(t *testing.T) {
	pc, _ := startStore(t)
	session := seq.NewID()
	framed := []byte(journalMagic)
	rec := mkRecord(session)
	framed, err := appendFrame(framed, &rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		files map[string][]byte
		gob   string
	}{
		{"active", map[string][]byte{"j": gobJournal(t, mkRecord(session), mkRecord(session))}, "j"},
		{"sealed", map[string][]byte{"j.000001.sealed": gobJournal(t, mkRecord(session))}, "j.000001.sealed"},
		{"torn", map[string][]byte{"j.000002.sealed": gobJournal(t, mkRecord(session))[:3], "j.000001.sealed": framed}, "j.000002.sealed"},
		{"beside a framed one", map[string][]byte{"j": framed, "j.000001.sealed": gobJournal(t, mkRecord(session))}, "j.000001.sealed"},
		{"beside an empty one", map[string][]byte{"j": gobJournal(t, mkRecord(session)), "j.000001.sealed": []byte(journalMagic[:3])}, "j"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, data := range c.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := dirFiles(t, dir)
			r, err := NewAsyncRecorder("svc:enactor", filepath.Join(dir, "j"), 0, pc)
			if err == nil {
				r.Close()
				t.Fatal("a gob journal was adopted")
			}
			if !errors.Is(err, core.ErrOldFormat) || !strings.Contains(err.Error(), filepath.Join(dir, c.gob)) || !strings.Contains(err.Error(), core.LastAdoptingCommit) {
				t.Fatalf("error %q: want core.ErrOldFormat naming %s and commit %s", err, c.gob, core.LastAdoptingCommit)
			}
			if after := dirFiles(t, dir); !maps.Equal(before, after) {
				t.Fatalf("the refused open changed the directory: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// A journal that holds no more than a prefix of the magic holds no
// record: the recorder opens with nothing pending.
func TestAsyncRecorderMagicPrefixIsEmpty(t *testing.T) {
	pc, _ := startStore(t)
	for n := 0; n < len(journalMagic); n++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "j.000001.sealed"), []byte(journalMagic[:n]), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "j"), []byte(journalMagic[:n]), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := NewAsyncRecorder("svc:enactor", filepath.Join(dir, "j"), 0, pc)
		if err != nil {
			t.Fatalf("%d bytes of magic: %v", n, err)
		}
		if p := r.Pending(); p != 0 {
			t.Fatalf("%d bytes of magic: %d pending", n, p)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A frame whose length, checksum or payload is bad ends a recovered
// journal's clean prefix; in a journal this process sealed, it fails the
// ship and the file stays.
func TestJournalBadFrames(t *testing.T) {
	session := seq.NewID()
	recs := []core.Record{mkRecord(session), mkRecord(session)}
	good := []byte(journalMagic)
	var err error
	for i := range recs {
		if good, err = appendFrame(good, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	first := len(journalMagic)
	size := len(good) - first // both frames are the same size
	second := first + size/2
	for _, c := range []struct {
		name string
		bad  func([]byte) []byte
	}{
		{"overlong length", func(b []byte) []byte {
			return append(append(b[:second:second], b[second]|0x80, 0), b[second+1:]...)
		}},
		{"zero length", func(b []byte) []byte { b[second] = 0; return b }},
		{"checksum", func(b []byte) []byte { b[second+2] ^= 1; return b }},
		{"payload", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }},
		{"torn", func(b []byte) []byte { return b[:len(b)-1] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			data := c.bad(bytes.Clone(good))
			path := filepath.Join(t.TempDir(), "j")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if n, err := countJournalRecords(path); err != nil || n != 1 {
				t.Fatalf("clean prefix of %d records (%v), want 1", n, err)
			}
			pc, _ := startStore(t)
			r, err := NewAsyncRecorder("svc:enactor", filepath.Join(t.TempDir(), "j"), 0, pc)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			sj := &sealedJournal{path: path, count: 2}
			if _, err := r.shipJournal(sj, 1); err == nil {
				t.Fatal("a sealed journal with a bad frame shipped")
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("the journal is gone after the failed ship: %v", err)
			}
		})
	}
}

// FuzzJournal feeds arbitrary bytes to the journal reader: it must not
// panic, and the records of the clean prefix it reads must re-encode to
// the very frames that prefix holds.
func FuzzJournal(f *testing.F) {
	session := seq.NewID()
	journal := []byte(journalMagic)
	for i := 0; i < 3; i++ {
		rec := mkRecord(session)
		var err error
		if journal, err = appendFrame(journal, &rec); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-5]) // torn tail
	f.Add([]byte(journalMagic))
	f.Add([]byte(journalMagic[:3]))
	f.Add([]byte{})
	f.Add(append([]byte(journalMagic), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01))
	var legacy bytes.Buffer // an earlier version's gob journal: refused
	rec := mkRecord(session)
	if err := gob.NewEncoder(&legacy).Encode(&rec); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		jr, err := newJournalReader(bytes.NewReader(data), "fuzz")
		if err != nil {
			if bytes.HasPrefix(data, []byte(journalMagic)) {
				t.Fatalf("a journal with the magic refused: %v", err)
			}
			return
		}
		frames := []byte(journalMagic[:min(len(data), len(journalMagic))])
		for {
			records, readErr := jr.batch(2)
			for i := range records {
				if frames, err = appendFrame(frames, &records[i]); err != nil {
					t.Fatalf("an accepted record does not re-encode: %v", err)
				}
			}
			if readErr != nil {
				break
			}
		}
		if !bytes.HasPrefix(data, frames) {
			t.Fatalf("the clean prefix re-encodes to other frames:\n%x\nis not a prefix of\n%x", frames, data)
		}
	})
}

// Reading a batch of the journal for shipping costs little more than
// the batch's list: its records share one arena. Decoded field by
// field, a 100-record batch took 11 allocations a record.
func TestJournalBatchAllocs(t *testing.T) {
	const n = 100
	session := seq.NewID()
	journal := []byte(journalMagic)
	for range n {
		rec := mkRecord(session)
		var err error
		if journal, err = appendFrame(journal, &rec); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	readers := make([]*journalReader, runs+1)
	for i := range readers {
		var err error
		if readers[i], err = newJournalReader(bytes.NewReader(journal), "j"); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if records, err := readers[i].batch(n); err != nil || len(records) != n {
			t.Fatalf("read %d records, want %d: %v", len(records), n, err)
		}
		i++
	})
	t.Logf("a %d-record batch: %.0f allocations", n, allocs)
	if allocs > 2*n {
		t.Errorf("a %d-record batch made %.0f allocations, want at most %d", n, allocs, 2*n)
	}
}

// A large record at the head of a journal is not taken as the size of
// every record after it: counting such a journal, as every recorder
// that adopts it does, and shipping it allocate a few times the file's
// bytes, where an arena sized to the batch times the first record took
// about DefaultBatchSize times them.
func TestJournalLargeFirstRecordAllocs(t *testing.T) {
	session := seq.NewID()
	big := mkRecord(session)
	big.Interaction.Request.Parts = []core.MessagePart{{Name: "in", Content: bytes.Repeat([]byte("p"), 3<<20)}}
	journal, err := appendFrame([]byte(journalMagic), &big)
	if err != nil {
		t.Fatal(err)
	}
	const small = 20
	for range small {
		rec := mkRecord(session)
		if journal, err = appendFrame(journal, &rec); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "j")
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	allocated := func(what string, bound int, fn func()) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s a %d-byte journal: %d bytes allocated", what, len(journal), got)
		if got > uint64(bound*len(journal)) {
			t.Errorf("%s a %d-byte journal allocated %d bytes, want at most %d times the journal", what, len(journal), got, bound)
		}
	}
	allocated("counting", 8, func() {
		if n, err := countJournalRecords(path); err != nil || n != 1+small {
			t.Fatalf("counted %d records, want %d: %v", n, 1+small, err)
		}
	})
	s := store.New(store.NewMemoryBackend())
	srv, err := preserv.Serve(preserv.NewService(s), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := NewAsyncRecorder("svc:enactor", path, 0, preserv.NewClient(srv.URL, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	allocated("shipping", 32, func() {
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if c, err := s.Count(); err != nil || c.Records != 1+small {
		t.Fatalf("the store holds %d records, want %d: %v", c.Records, 1+small, err)
	}
}
