package crashtest

// Shared machinery: record builders, directory snapshot/restore,
// truncation helpers, and the planner-vs-scan-vs-oracle equivalence
// assertions every crash and property test ends in.

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/query"
	"preserv/internal/store"
)

var seq = &ids.SeqSource{Prefix: 0xC4}

// mkInteraction builds one interaction record in session, asserted by
// the enactor, with fresh data ids.
func mkInteraction(session ids.ID, service core.ActorID, n int) core.Record {
	in := core.Interaction{ID: seq.NewID(), Sender: "svc:enactor", Receiver: service, Operation: "run"}
	return *core.NewInteractionRecord(&core.InteractionPAssertion{
		LocalID:     "e",
		Asserter:    "svc:enactor",
		Interaction: in,
		View:        core.SenderView,
		Request:     core.Message{Name: "invoke", Parts: []core.MessagePart{{Name: "in", DataID: seq.NewID()}}},
		Response:    core.Message{Name: "result", Parts: []core.MessagePart{{Name: "out", DataID: seq.NewID()}}},
		Groups:      []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: uint64(n + 1)}},
		Timestamp:   time.Date(2026, 7, 1, 9, 0, n, 0, time.UTC),
	})
}

// copyDir clones src into a fresh temp directory (one level deep — the
// shape of a store directory).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Fatalf("unexpected subdirectory %s", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// findOne returns the unique file in dir with the given suffix and its
// size; newest (lexically last) wins when several match and latest is
// set.
func findOne(t *testing.T, dir, suffix string, latest bool) (string, int64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatalf("no %s file in %s", suffix, dir)
	}
	sort.Strings(names)
	name := names[0]
	if latest {
		name = names[len(names)-1]
	}
	path := filepath.Join(dir, name)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, info.Size()
}

func truncateFile(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}

// prefixOf asserts that got (a set) equals want[:k] for some k and
// returns k; order in want is the batch's slice order.
func prefixOf(t *testing.T, got map[string]bool, want []string, label string) int {
	t.Helper()
	k := 0
	for k < len(want) && got[want[k]] {
		k++
	}
	for i := k; i < len(want); i++ {
		if got[want[i]] {
			t.Fatalf("%s: recovered %q without earlier %q — not a clean prefix", label, want[i], want[k])
		}
	}
	return k
}

// standardQueries derives the predicate set the equivalence assertions
// sweep: everything, each session, an asserter, each kind, and a
// limited query (Total semantics).
func standardQueries(sessions []ids.ID) []*prep.Query {
	qs := []*prep.Query{
		{},
		{Asserter: "svc:enactor"},
		{Kind: core.KindInteraction.String()},
		{Kind: core.KindActorState.String()},
		{Limit: 3},
	}
	for _, s := range sessions {
		qs = append(qs, &prep.Query{SessionID: s}, &prep.Query{SessionID: s, Limit: 2})
	}
	return qs
}

// assertPlannerEqualsScan runs every query through the cost-based
// planner and the scan path and requires byte-identical results. A
// fresh engine per call keeps the result cache out of the comparison.
func assertPlannerEqualsScan(t *testing.T, s *store.Store, sessions []ids.ID, label string) {
	t.Helper()
	e := query.New(s)
	for qi, q := range standardQueries(sessions) {
		want, wantTotal, err := s.Query(q)
		if err != nil {
			t.Fatalf("%s: scan query %d: %v", label, qi, err)
		}
		got, gotTotal, _, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: planned query %d: %v", label, qi, err)
		}
		compareRecords(t, want, wantTotal, got, gotTotal, label, qi)
	}
}

// compareRecords requires two result sets to agree record-for-record,
// byte-for-byte (canonical encoding), and on Total.
func compareRecords(t *testing.T, want []core.Record, wantTotal int, got []core.Record, gotTotal int, label string, qi int) {
	t.Helper()
	if gotTotal != wantTotal || len(got) != len(want) {
		t.Fatalf("%s: query %d: planner %d/%d vs scan %d/%d", label, qi, len(got), gotTotal, len(want), wantTotal)
	}
	for i := range want {
		wb, err := core.EncodeRecord(&want[i])
		if err != nil {
			t.Fatal(err)
		}
		gb, err := core.EncodeRecord(&got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Fatalf("%s: query %d: record %d differs: %s vs %s",
				label, qi, i, got[i].StorageKey(), want[i].StorageKey())
		}
	}
}

// checkFirstCount asserts that a backend just reopened, asked before any
// other call, counts as many keys as point reads find among keys — every
// distinct key the test wrote. Count answers from the sorted key view the
// open built, which must hold exactly the live keys; a scan would not
// tell, since it skips keys that no longer read back.
func checkFirstCount(t *testing.T, b store.Backend, keys []string, label string) {
	t.Helper()
	n, err := b.Count("")
	if err != nil {
		t.Fatalf("%s: first Count after reopen: %v", label, err)
	}
	_, present, err := b.GetBatch(keys)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := 0
	for _, p := range present {
		if p {
			want++
		}
	}
	if n != want {
		t.Fatalf("%s: the first Count after reopen is %d, but %d of the written keys read back", label, n, want)
	}
}
