package crashtest

// Compaction and journal-rotation crash tests: the incremental
// compactors publish their merged output (rename) and only then retire
// the inputs, and the async recorder seals its journal (rename) before
// shipping it — so a crash inside either window must leave a state
// recovery reads back exactly. These tests reconstruct the mid-window
// states byte by byte and require full equivalence (compaction) or
// clean-prefix recovery (rotation).

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"preserv/internal/client"
	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/preserv"
	"preserv/internal/store"
)

type compacter interface{ Compact() error }

// contentsOf snapshots a backend's live keys and values.
func contentsOf(t *testing.T, b store.Backend) map[string]string {
	t.Helper()
	out := make(map[string]string)
	if err := b.ScanFrom("", "", func(k string, v []byte) error {
		out[k] = string(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// populateAndClose records three sessions (one batch each), deletes the
// first session to create garbage and tombstones, and closes the store.
// Returns the sessions for the query sweep.
func populateAndClose(t *testing.T, b store.Backend) []ids.ID {
	t.Helper()
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
	if _, err := s.DeleteSession(sessions[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return sessions
}

// TestCompactCrashMidSwap reconstructs the incremental compactor's
// publication window: a leftover compact.tmp next to the intact old log
// (crash before the atomic rename), torn at any byte. Open must discard
// it and keep the full pre-compaction state, and the post-rename state
// must equal it.
func TestCompactCrashMidSwap(t *testing.T) {
	for _, fl := range storeFlavours() {
		t.Run(fl.name, func(t *testing.T) {
			src := t.TempDir()
			sessions := populateAndClose(t, fl.open(t, src))
			pre := copyDir(t, src)

			b := fl.open(t, src)
			if err := b.(compacter).Compact(); err != nil {
				t.Fatal(err)
			}
			want := contentsOf(t, b)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("compacted store is empty — population failed")
			}

			// The crash artifact: the rewritten log.
			artifact, err := os.ReadFile(filepath.Join(src, "data.log"))
			if err != nil {
				t.Fatal(err)
			}

			check := func(dir, label string) {
				rb := fl.open(t, dir)
				if got := contentsOf(t, rb); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %d keys survive, want %d (state diverged)", label, len(got), len(want))
				}
				rs := store.New(rb)
				if _, err := rs.Index(); err != nil {
					t.Fatalf("%s: index open: %v", label, err)
				}
				assertPlannerEqualsScan(t, rs, sessions, label)
				if err := rs.Close(); err != nil {
					t.Fatal(err)
				}
			}

			hi := int64(len(artifact))
			step := int64(1)
			if hi > 128 {
				step = hi / 128
			}
			for cut := int64(0); ; cut += step {
				if cut > hi {
					cut = hi
				}
				// Crash BEFORE the rename: the torn rewrite is still under
				// its temporary name, the old log untouched.
				dir := copyDir(t, pre)
				if err := os.WriteFile(filepath.Join(dir, "compact.tmp"), artifact[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				check(dir, fmt.Sprintf("cut %d/%d", cut, hi))
				if cut == hi {
					break
				}
			}
			// Crash AFTER the rename: the synced rewrite replaced the log
			// whole; nothing of the old state remains to reconcile.
			dir := copyDir(t, pre)
			if err := os.WriteFile(filepath.Join(dir, "data.log"), artifact, 0o644); err != nil {
				t.Fatal(err)
			}
			check(dir, "post-rename")
		})
	}
}

// TestJournalRotationCrashEveryByte tears a sealed async-recorder
// journal at every sampled byte: a fresh recorder must adopt the sealed
// file, count a clean prefix of the recorded sequence, and ship exactly
// that prefix — monotonically growing with the cut, complete at full
// size, and never a record out of order.
func TestJournalRotationCrashEveryByte(t *testing.T) {
	const n = 6
	src := t.TempDir()
	// Record n interactions and seal the journal without shipping —
	// the recorder needs a client at construction, but this endpoint is
	// never contacted before the rotation.
	seedStore := store.New(store.NewMemoryBackend())
	seedSrv, err := preserv.Serve(preserv.NewService(seedStore), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer seedSrv.Close()
	r, err := client.NewAsyncRecorder("svc:enactor", filepath.Join(src, "journal"), 0, preserv.NewClient(seedSrv.URL, nil))
	if err != nil {
		t.Fatal(err)
	}
	session := seq.NewID()
	var wantKeys []string
	for i := 0; i < n; i++ {
		rec := mkInteraction(session, "svc:gzip", i)
		wantKeys = append(wantKeys, rec.StorageKey())
		if err := r.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Rotate(); err != nil {
		t.Fatal(err)
	}
	sealedName := "journal.000001.sealed"
	sealed, err := os.ReadFile(filepath.Join(src, sealedName))
	if err != nil {
		t.Fatalf("sealed journal missing after Rotate: %v", err)
	}
	// Abandon the recorder without Close (Close would ship and remove
	// the journals); the raw bytes are what the crash states replay.

	hi := int64(len(sealed))
	step := int64(1)
	if hi > 128 {
		step = hi / 128
	}
	lastK := 0
	for cut := int64(0); ; cut += step {
		if cut > hi {
			cut = hi
		}
		label := fmt.Sprintf("cut %d/%d", cut, hi)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, sealedName), sealed[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s := store.New(store.NewMemoryBackend())
		srv, err := preserv.Serve(preserv.NewService(s), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		re, err := client.NewAsyncRecorder("svc:enactor", filepath.Join(dir, "journal"), 0, preserv.NewClient(srv.URL, nil))
		if err != nil {
			t.Fatalf("%s: adopting recorder: %v", label, err)
		}
		adopted := int(re.Pending())
		if err := re.Flush(); err != nil {
			t.Fatalf("%s: flush of adopted prefix: %v", label, err)
		}
		shipped, _, err := s.Query(&prep.Query{})
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]bool)
		for i := range shipped {
			got[shipped[i].StorageKey()] = true
		}
		k := prefixOf(t, got, wantKeys, label)
		if len(got) != k {
			t.Fatalf("%s: shipped %d records but prefix is %d", label, len(got), k)
		}
		if k != adopted {
			t.Fatalf("%s: adopted %d pending but shipped %d", label, adopted, k)
		}
		if k < lastK {
			t.Fatalf("%s: prefix shrank from %d to %d as the cut grew", label, lastK, k)
		}
		lastK = k
		if err := re.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
		srv.Close()
		if cut == hi {
			break
		}
	}
	if lastK != n {
		t.Fatalf("full sealed journal recovered only %d/%d records", lastK, n)
	}
}
