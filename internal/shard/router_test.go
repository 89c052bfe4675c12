package shard

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/store"
)

var seq = &ids.SeqSource{Prefix: 0x5D}

// mkRec builds one interaction record in session asserted by the
// enactor.
func mkRec(session ids.ID, service core.ActorID, n int) core.Record {
	in := core.Interaction{ID: seq.NewID(), Sender: "svc:enactor", Receiver: service, Operation: "run"}
	return *core.NewInteractionRecord(&core.InteractionPAssertion{
		LocalID:     "e",
		Asserter:    "svc:enactor",
		Interaction: in,
		View:        core.SenderView,
		Request:     core.Message{Name: "invoke", Parts: []core.MessagePart{{Name: "in", DataID: seq.NewID()}}},
		Response:    core.Message{Name: "result", Parts: []core.MessagePart{{Name: "out", DataID: seq.NewID()}}},
		Groups:      []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: uint64(n + 1)}},
		Timestamp:   time.Date(2026, 7, 2, 10, 0, n, 0, time.UTC),
	})
}

// memRouter builds a router over n memory-backed local shards.
func memRouter(t *testing.T, n int) *Router {
	t.Helper()
	children := make([]Shard, n)
	for i := range children {
		children[i] = NewLocal(store.New(store.NewMemoryBackend()))
	}
	rt, err := NewRouter(children...)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// recordSessions records perSession records into each of n sessions via
// the router and returns the session ids.
func recordSessions(t *testing.T, rt *Router, sessions, perSession int) []ids.ID {
	t.Helper()
	out := make([]ids.ID, 0, sessions)
	for i := 0; i < sessions; i++ {
		sid := seq.NewID()
		out = append(out, sid)
		recs := make([]core.Record, 0, perSession)
		for j := 0; j < perSession; j++ {
			recs = append(recs, mkRec(sid, core.ActorID(fmt.Sprintf("svc:stage-%d", j%3)), j))
		}
		acc, rejects, err := rt.Record("svc:enactor", recs)
		if err != nil {
			t.Fatal(err)
		}
		if acc != perSession || len(rejects) != 0 {
			t.Fatalf("session %d: accepted %d/%d, rejects %v", i, acc, perSession, rejects)
		}
	}
	return out
}

func TestAffinityStableAndInRange(t *testing.T) {
	sid := seq.NewID()
	r := mkRec(sid, "svc:gzip", 0)
	for _, n := range []int{1, 2, 3, 7} {
		a := Affinity(&r, n)
		if a < 0 || a >= n {
			t.Fatalf("Affinity(n=%d) = %d out of range", n, a)
		}
		if b := Affinity(&r, n); b != a {
			t.Fatalf("Affinity not stable: %d then %d", a, b)
		}
	}
	// Every record of one session shares a home shard.
	other := mkRec(sid, "svc:ppmz", 1)
	if Affinity(&r, 4) != Affinity(&other, 4) {
		t.Fatal("records of one session map to different shards")
	}
	// A record without groups falls back to its interaction id.
	bare := mkRec(sid, "svc:gzip", 2)
	bare.Interaction.Groups = nil
	if got, want := AffinityTerm(&bare), bare.InteractionID().String(); got != want {
		t.Fatalf("ungrouped affinity term %q, want interaction id %q", got, want)
	}
}

func TestRecordRoutesSessionAffine(t *testing.T) {
	rt := memRouter(t, 3)
	sids := recordSessions(t, rt, 12, 6)
	// Each session's records must all live on exactly its affinity
	// shard.
	for _, sid := range sids {
		want := AffinityIndex(sid.String(), 3)
		for i := 0; i < rt.NumShards(); i++ {
			recs, _, err := rt.Shard(i).Query(&prep.Query{SessionID: sid})
			if err != nil {
				t.Fatal(err)
			}
			if i == want && len(recs) != 6 {
				t.Fatalf("home shard %d holds %d of session %s, want 6", i, len(recs), sid)
			}
			if i != want && len(recs) != 0 {
				t.Fatalf("shard %d holds %d stray records of session %s (home %d)", i, len(recs), sid, want)
			}
		}
	}
}

func TestRecordRemapsRejectIndexes(t *testing.T) {
	rt := memRouter(t, 3)
	sidA, sidB := seq.NewID(), seq.NewID()
	good := mkRec(sidA, "svc:gzip", 0)
	bad := mkRec(sidB, "svc:gzip", 1)
	bad.Interaction.LocalID = "" // fails validation
	good2 := mkRec(sidA, "svc:gzip", 2)
	bad2 := mkRec(sidA, "svc:gzip", 3)
	bad2.Interaction.LocalID = ""

	acc, rejects, err := rt.Record("svc:enactor", []core.Record{good, bad, good2, bad2})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 2 {
		t.Fatalf("accepted %d, want 2", acc)
	}
	if len(rejects) != 2 || rejects[0].Index != 1 || rejects[1].Index != 3 {
		t.Fatalf("rejects %v, want indexes 1 and 3", rejects)
	}
}

func TestQueryMergesAcrossShardsInKeyOrder(t *testing.T) {
	rt := memRouter(t, 3)
	sids := recordSessions(t, rt, 9, 4)

	recs, total, err := rt.Query(&prep.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if total != 36 || len(recs) != 36 {
		t.Fatalf("merged %d/%d, want 36/36", len(recs), total)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].StorageKey() >= recs[i].StorageKey() {
			t.Fatalf("merge out of order at %d: %s >= %s", i, recs[i-1].StorageKey(), recs[i].StorageKey())
		}
	}

	// Limit: the merged first-k must match the unlimited merge's prefix,
	// and Total must stay the full count.
	limited, ltotal, err := rt.Query(&prep.Query{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ltotal != 36 || len(limited) != 5 {
		t.Fatalf("limited merge %d/%d, want 5/36", len(limited), ltotal)
	}
	for i := range limited {
		if limited[i].StorageKey() != recs[i].StorageKey() {
			t.Fatalf("limited record %d differs from merge prefix", i)
		}
	}

	// Planned equals scan.
	precs, ptotal, plan, err := rt.QueryPlanned(&prep.Query{SessionID: sids[0]})
	if err != nil {
		t.Fatal(err)
	}
	srecs, stotal, err := rt.Query(&prep.Query{SessionID: sids[0]})
	if err != nil {
		t.Fatal(err)
	}
	if ptotal != stotal || len(precs) != len(srecs) {
		t.Fatalf("planned %d/%d vs scan %d/%d", len(precs), ptotal, len(srecs), stotal)
	}
	if plan == nil || plan.Strategy == "" {
		t.Fatal("merged plan missing")
	}
}

func TestCompositeCursorRoundTrip(t *testing.T) {
	const fp = "00000000deadbeef"
	cursors := []string{"i/x/1/sender/svc:enactor/e", "", "s/with!bang and spaces/\x00odd", "*starts/with/star"}
	marks := []bool{false, true, false, true}
	enc := encodeCursor(fp, cursors, marks)
	if !strings.HasPrefix(enc, compositeCursorPrefix) {
		t.Fatalf("encoded cursor %q lacks prefix", enc)
	}
	dec, done, err := decodeCursor(enc, fp, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cursors {
		if dec[i] != cursors[i] {
			t.Fatalf("cursor %d decoded %q, want %q", i, dec[i], cursors[i])
		}
		if done[i] != marks[i] {
			t.Fatalf("cursor %d exhaustion decoded %v, want %v", i, done[i], marks[i])
		}
	}
	// Shard-count mismatch is rejected.
	if _, _, err := decodeCursor(enc, fp, 2); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("cursor for 4 shards against 2: err=%v, want ErrBadCursor", err)
	}
	// A cursor minted against a different topology (same count,
	// reordered or replaced shards — a different fingerprint) is
	// rejected instead of mis-applying per-shard positions.
	if _, _, err := decodeCursor(enc, "1111111111111111", 4); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("foreign topology fingerprint: err=%v, want ErrBadCursor", err)
	}
	// A plain storage key fans out unchanged, with no shard exhausted.
	plain, done, err := decodeCursor("i/abc", fp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plain[0] != "i/abc" || plain[1] != "i/abc" || done[0] || done[1] {
		t.Fatalf("plain cursor mangled: %v %v", plain, done)
	}

	// A cursor in the previous build's form — "fp.0" in the fingerprint
	// field — resumes to the same page as the current form.
	rt := memRouter(t, 3)
	recordSessions(t, rt, 6, 4)
	_, next, _, _, err := rt.QueryPage(&prep.Query{}, "", 5)
	if err != nil || next == "" {
		t.Fatalf("first page: next=%q err=%v", next, err)
	}
	old := strings.Replace(next, "!"+rt.fp+"!", "!"+rt.fp+".0!", 1)
	if old == next {
		t.Fatalf("cursor %q does not carry the fingerprint field %q", next, rt.fp)
	}
	want, wantNext, wantDone, _, err := rt.QueryPage(&prep.Query{}, next, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, gotNext, gotDone, _, err := rt.QueryPage(&prep.Query{}, old, 5)
	if err != nil {
		t.Fatalf("previous-build cursor %q: %v", old, err)
	}
	assertExactKeys(t, got, want, "previous-build cursor page")
	if gotNext != wantNext || gotDone != wantDone {
		t.Fatalf("previous-build cursor: next=%q done=%v, want %q %v", gotNext, gotDone, wantNext, wantDone)
	}
}

// TestCursorRejectedAcrossReorderedTopology pins the end-to-end form of
// the fingerprint check: a page cursor from a router over endpoints
// (A, B) must be refused by a router over (B, A) — silently applying
// A's cursor position to B would seek past records with no error.
func TestCursorRejectedAcrossReorderedTopology(t *testing.T) {
	a := urlShard{Shard: NewLocal(store.New(store.NewMemoryBackend())), url: "http://a"}
	b := urlShard{Shard: NewLocal(store.New(store.NewMemoryBackend())), url: "http://b"}
	ab, err := NewRouter(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := NewRouter(b, a)
	if err != nil {
		t.Fatal(err)
	}
	recordSessions(t, ab, 4, 4)
	_, next, done, _, err := ab.QueryPage(&prep.Query{}, "", 5)
	if err != nil || done || next == "" {
		t.Fatalf("first page: next=%q done=%v err=%v", next, done, err)
	}
	if _, _, _, _, err := ba.QueryPage(&prep.Query{}, next, 5); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("reordered topology accepted foreign cursor: err=%v", err)
	}
	// The minting router keeps accepting its own cursor.
	if _, _, _, _, err := ab.QueryPage(&prep.Query{}, next, 5); err != nil {
		t.Fatal(err)
	}
}

// urlShard gives an embedded shard a remote-style identity for
// fingerprint tests.
type urlShard struct {
	Shard
	url string
}

func (u urlShard) URL() string { return u.url }

func TestQueryPageWalksWholeResultSet(t *testing.T) {
	rt := memRouter(t, 3)
	recordSessions(t, rt, 8, 5)
	want, total, err := rt.Query(&prep.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if total != 40 {
		t.Fatalf("total %d, want 40", total)
	}

	var got []core.Record
	after := ""
	pages := 0
	for {
		recs, next, done, _, err := rt.QueryPage(&prep.Query{}, after, 7)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, recs...)
		pages++
		if pages > 20 {
			t.Fatal("paging did not terminate")
		}
		if done || next == "" {
			break
		}
		after = next
	}
	if len(got) != len(want) {
		t.Fatalf("paged %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].StorageKey() != want[i].StorageKey() {
			t.Fatalf("page record %d is %s, want %s", i, got[i].StorageKey(), want[i].StorageKey())
		}
	}
}

func TestSessionsUnionAndCount(t *testing.T) {
	rt := memRouter(t, 3)
	sids := recordSessions(t, rt, 7, 3)
	got, err := rt.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sids) {
		t.Fatalf("sessions %d, want %d", len(got), len(sids))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].String() >= got[i].String() {
			t.Fatal("sessions not sorted")
		}
	}
	cnt, err := rt.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Records != 21 || cnt.Interactions != 21 {
		t.Fatalf("count %+v, want 21 interactions", cnt)
	}
}

func TestDeleteFansOut(t *testing.T) {
	rt := memRouter(t, 3)
	sids := recordSessions(t, rt, 6, 4)

	// Delete one record by key: the router cannot know its shard.
	recs, _, err := rt.Query(&prep.Query{SessionID: sids[0]})
	if err != nil {
		t.Fatal(err)
	}
	n, err := rt.DeleteRecords([]string{recs[0].StorageKey()})
	if err != nil || n != 1 {
		t.Fatalf("DeleteRecords: deleted=%d err=%v", n, err)
	}
	if n, _ := rt.DeleteRecords([]string{recs[0].StorageKey()}); n != 0 {
		t.Fatal("second delete of same key reported a deletion")
	}

	// Delete a whole session.
	n, err = rt.DeleteSession(sids[1])
	if err != nil || n != 4 {
		t.Fatalf("DeleteSession deleted %d err=%v, want 4", n, err)
	}
	if recs, _, _ := rt.Query(&prep.Query{SessionID: sids[1]}); len(recs) != 0 {
		t.Fatalf("session survived deletion: %d records", len(recs))
	}
	cnt, _ := rt.Count()
	if cnt.Records != 6*4-1-4 {
		t.Fatalf("count after deletes %d, want %d", cnt.Records, 6*4-1-4)
	}
}

// TestRouterMergeCollapsesTwins pins the merge's key dedup: a record
// held by two shards — which a store reopened with a different shard
// count produces once a client re-ships — is answered and counted once
// by the scan, planner and paged paths.
func TestRouterMergeCollapsesTwins(t *testing.T) {
	rt := memRouter(t, 3)
	sid := seq.NewID()
	twins := []core.Record{mkRec(sid, "svc:gzip", 0), mkRec(sid, "svc:ppmz", 1), mkRec(sid, "svc:bzip2", 2)}
	for _, i := range []int{0, 2} {
		if acc, rejects, err := rt.Shard(i).Record("svc:enactor", twins); err != nil || acc != 3 || len(rejects) != 0 {
			t.Fatalf("shard %d: accepted %d, rejects %v, err %v", i, acc, rejects, err)
		}
	}
	want := append([]core.Record(nil), twins...)
	sort.Slice(want, func(i, j int) bool { return want[i].StorageKey() < want[j].StorageKey() })

	recs, total, err := rt.Query(&prep.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Fatalf("scan Total %d, want 3", total)
	}
	assertExactKeys(t, recs, want, "scan")
	precs, ptotal, _, err := rt.QueryPlanned(&prep.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if ptotal != 3 {
		t.Fatalf("planned Total %d, want 3", ptotal)
	}
	assertExactKeys(t, precs, want, "planned")
	assertExactKeys(t, collectWalk(t, rt, "", 2, nil), want, "paged walk")
}

// collectWalk pages the router to exhaustion from the given cursor,
// appending onto got.
func collectWalk(t *testing.T, rt *Router, after string, pageSize int, got []core.Record) []core.Record {
	t.Helper()
	for steps := 0; ; steps++ {
		if steps > 100 {
			t.Fatal("paging did not terminate")
		}
		recs, next, done, _, err := rt.QueryPage(&prep.Query{}, after, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, recs...)
		if done || next == "" {
			return got
		}
		after = next
	}
}

func assertExactKeys(t *testing.T, got, want []core.Record, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: walked %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].StorageKey() != want[i].StorageKey() {
			t.Fatalf("%s: record %d is %s, want %s", label, i, got[i].StorageKey(), want[i].StorageKey())
		}
	}
}

func TestRouterNeedsAShard(t *testing.T) {
	if _, err := NewRouter(); err == nil {
		t.Fatal("empty router accepted")
	}
}

// gaugeShard wraps a Shard, fixing its reported garbage ratio and
// counting Compact calls.
type gaugeShard struct {
	Shard
	ratio    float64
	compacts int
}

func (g *gaugeShard) GarbageRatio() float64 { return g.ratio }
func (g *gaugeShard) Compact() error        { g.compacts++; return g.Shard.Compact() }

// TestCompactAboveSkipsCleanShards pins selective scheduled
// compaction: one hot shard crossing the threshold must not force the
// clean shards through a rewrite (explicit Compact still visits all).
func TestCompactAboveSkipsCleanShards(t *testing.T) {
	hot := &gaugeShard{Shard: NewLocal(store.New(store.NewMemoryBackend())), ratio: 0.8}
	cold := &gaugeShard{Shard: NewLocal(store.New(store.NewMemoryBackend())), ratio: 0.1}
	rt, err := NewRouter(hot, cold)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.GarbageRatio(); got != 0.8 {
		t.Fatalf("router garbage ratio %v, want the worst shard's 0.8", got)
	}
	if err := rt.CompactAbove(0.5); err != nil {
		t.Fatal(err)
	}
	if hot.compacts != 1 || cold.compacts != 0 {
		t.Fatalf("CompactAbove compacted hot=%d cold=%d, want 1/0", hot.compacts, cold.compacts)
	}
	if err := rt.CompactAbove(-1); err != nil {
		t.Fatal(err)
	}
	if hot.compacts != 1 {
		t.Fatal("negative threshold still compacted")
	}
	if err := rt.Compact(); err != nil {
		t.Fatal(err)
	}
	if hot.compacts != 2 || cold.compacts != 1 {
		t.Fatalf("explicit Compact visited hot=%d cold=%d, want 2/1", hot.compacts, cold.compacts)
	}
}

// failingShard wraps a Shard, forcing its mutating fan-out legs to
// fail with a fixed error.
type failingShard struct {
	Shard
	err error
}

func (f *failingShard) Compact() error                           { return f.err }
func (f *failingShard) DeleteRecords(keys []string) (int, error) { return 0, f.err }

// TestMutatingFanOutAggregatesErrors pins the joined-error shape of
// the mutating fan-outs: every failed shard appears in the error (one
// failing shard must not mask another), the error names the shard
// index, and healthy shards still do their work.
func TestMutatingFanOutAggregatesErrors(t *testing.T) {
	bad0 := &failingShard{Shard: NewLocal(store.New(store.NewMemoryBackend())), err: errors.New("disk full")}
	good := &gaugeShard{Shard: NewLocal(store.New(store.NewMemoryBackend()))}
	bad2 := &failingShard{Shard: NewLocal(store.New(store.NewMemoryBackend())), err: errors.New("remote gone")}
	rt, err := NewRouter(bad0, good, bad2)
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Compact()
	if err == nil {
		t.Fatal("Compact with two failing shards returned nil")
	}
	for _, want := range []string{"shard 0: disk full", "shard 2: remote gone"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error %q missing %q", err, want)
		}
	}
	if good.compacts != 1 {
		t.Fatalf("healthy shard compacted %d times, want 1 despite sibling failures", good.compacts)
	}
	if _, err := rt.DeleteRecords([]string{"k"}); err == nil || !strings.Contains(err.Error(), "shard 2: remote gone") {
		t.Fatalf("DeleteRecords error %v, want joined per-shard error", err)
	}
}

// TestRouterStatsAggregateShards pins the router's telemetry surface:
// per-shard stats in topology order (full stats from a local shard, the
// base-surface fallback from shards without ShardStats), engine and
// tombstone aggregates equal to the children's, and the router's own
// histograms and slow log in wire form.
func TestRouterStatsAggregateShards(t *testing.T) {
	full := NewLocal(store.New(store.NewMemoryBackend()))
	remote := urlShard{Shard: NewLocal(store.New(store.NewMemoryBackend())), url: "http://b"}
	bare := &gaugeShard{Shard: NewLocal(store.New(store.NewMemoryBackend())), ratio: 0.25}
	rt, err := NewRouter(full, remote, bare)
	if err != nil {
		t.Fatal(err)
	}
	rt.Obs().Tracer().SetSlowThreshold(time.Nanosecond) // every span is slow
	sids := recordSessions(t, rt, 6, 4)
	for _, sid := range sids {
		if _, _, _, err := rt.QueryPlanned(&prep.Query{SessionID: sid}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.DeleteSession(sids[0]); err != nil {
		t.Fatal(err)
	}

	stats, err := rt.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("%d shard stats, want 3", len(stats))
	}
	records := 0
	for i, st := range stats {
		if st.Index != i {
			t.Fatalf("stats[%d].Index = %d", i, st.Index)
		}
		records += st.Records
	}
	if cnt, err := rt.Count(); err != nil || records != cnt.Records || records != 5*4 {
		t.Fatalf("per-shard records sum to %d, router counts %d (err %v), want 20", records, cnt.Records, err)
	}
	if stats[0].URL != "" || stats[1].URL != "http://b" || stats[2].GarbageRatio != 0.25 {
		t.Fatalf("shard identities/fallback wrong: %+v", stats)
	}
	if stats[0].Engine != full.EngineStats() || len(stats[0].Histograms) == 0 {
		t.Fatalf("local shard stats not in full: %+v", stats[0])
	}

	// Only the local shard reports engine counters, so it is the sum.
	es := rt.EngineStats()
	if es != full.EngineStats() || es.IndexPlans == 0 {
		t.Fatalf("router engine stats %+v, want the local shard's %+v", es, full.EngineStats())
	}
	var tombs int64
	for i := 0; i < rt.NumShards(); i++ {
		tombs += rt.Shard(i).Tombstones()
	}
	if rt.Tombstones() != tombs {
		t.Fatalf("router tombstones %d, want the shards' sum %d", rt.Tombstones(), tombs)
	}

	hists := HistogramStats(rt.Obs())
	merged := false
	for i, h := range hists {
		if i > 0 && hists[i-1].Name >= h.Name {
			t.Fatalf("histograms not sorted by name: %q before %q", hists[i-1].Name, h.Name)
		}
		merged = merged || (h.Name == "router_merge_width" && h.Count > 0)
	}
	if !merged {
		t.Fatalf("router_merge_width missing or empty in %+v", hists)
	}
	slow := SlowSpans(rt.Obs().Tracer())
	if len(slow) == 0 || slow[0].Op != "router.fanout" || len(slow[0].Attrs) == 0 || slow[0].Attrs[0].Key != "shard" {
		t.Fatalf("slow log %+v, want router.fanout spans tagged with their shard", slow)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryPageRejectsBadCompositeCursor pins the typed error for
// undecodable composite cursors — stale across a topology resize,
// truncated, or corrupted — so servers can fault them as client input
// rather than internal failures.
func TestQueryPageRejectsBadCompositeCursor(t *testing.T) {
	rt := memRouter(t, 2)
	recordSessions(t, rt, 1, 3)
	for _, cur := range []string{
		"sc1!",        // no shard count
		"sc1!x!a",     // non-numeric count
		"sc1!1!a!b",   // count disagrees with field count
		"sc1!3!a!b!c", // built for 3 shards, router has 2
		"sc1!2!%zz!a", // undecodable escape
	} {
		_, _, _, _, err := rt.QueryPage(&prep.Query{}, cur, 10)
		if !errors.Is(err, ErrBadCursor) {
			t.Errorf("cursor %q: err = %v, want ErrBadCursor", cur, err)
		}
	}
	// A plain storage-key cursor is not composite and must keep working.
	if _, _, _, _, err := rt.QueryPage(&prep.Query{}, "i/0000", 10); err != nil {
		t.Fatalf("plain cursor: %v", err)
	}
}

// pageCountingShard wraps a Shard counting QueryPage calls.
type pageCountingShard struct {
	Shard
	pages int
}

func (p *pageCountingShard) QueryPage(q *prep.Query, after string, pageSize int) ([]core.Record, string, bool, *prep.QueryPlan, error) {
	p.pages++
	return p.Shard.QueryPage(q, after, pageSize)
}

// TestQueryPageSkipsExhaustedShards pins the cursor's exhaustion
// marker: once a shard proved done and fully consumed, later pages of
// the walk must not re-query it (an empty re-plan per page, and on
// remote topologies a wasted round trip per page).
func TestQueryPageSkipsExhaustedShards(t *testing.T) {
	small := &pageCountingShard{Shard: NewLocal(store.New(store.NewMemoryBackend()))}
	big := NewLocal(store.New(store.NewMemoryBackend()))
	rt, err := NewRouter(small, big)
	if err != nil {
		t.Fatal(err)
	}
	// One record straight onto the small shard, many onto the big one.
	sid := seq.NewID()
	if _, _, err := small.Record("svc:enactor", []core.Record{mkRec(sid, "svc:a", 0)}); err != nil {
		t.Fatal(err)
	}
	recs := make([]core.Record, 0, 40)
	sid2 := seq.NewID()
	for j := 0; j < 40; j++ {
		recs = append(recs, mkRec(sid2, "svc:b", j))
	}
	if _, _, err := big.Record("svc:enactor", recs); err != nil {
		t.Fatal(err)
	}

	seen, after, pages := 0, "", 0
	for {
		page, next, done, _, err := rt.QueryPage(&prep.Query{}, after, 5)
		if err != nil {
			t.Fatal(err)
		}
		seen += len(page)
		pages++
		if done || next == "" {
			break
		}
		after = next
	}
	if seen != 41 {
		t.Fatalf("walk saw %d records, want 41", seen)
	}
	// The small shard exhausts within the first couple of pages; the
	// remaining ~7 pages of the walk must leave it alone.
	if small.pages > 3 {
		t.Fatalf("exhausted shard queried on %d of %d pages", small.pages, pages)
	}
}
