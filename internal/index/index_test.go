package index_test

import (
	"fmt"
	. "preserv/internal/index"
	"slices"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/kv"
	"preserv/internal/store"
)

var seq = &ids.SeqSource{Prefix: 0xD1}

var t0 = time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)

// makeActivity builds one interaction record and one script actor-state
// record for the same interaction.
func makeActivity(session ids.ID, asserter, service core.ActorID, n uint64, ts time.Time) (core.Record, core.Record, ids.ID) {
	in := core.Interaction{ID: seq.NewID(), Sender: asserter, Receiver: service, Operation: "run"}
	dataIn, dataOut := seq.NewID(), seq.NewID()
	groups := []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: n}}
	inter := *core.NewInteractionRecord(&core.InteractionPAssertion{
		LocalID:     fmt.Sprintf("e%d", n),
		Asserter:    asserter,
		Interaction: in,
		View:        core.SenderView,
		Request:     core.Message{Name: "invoke", Parts: []core.MessagePart{{Name: "in", DataID: dataIn}}},
		Response:    core.Message{Name: "result", Parts: []core.MessagePart{{Name: "out", DataID: dataOut}}},
		Groups:      groups,
		Timestamp:   ts,
	})
	state := *core.NewActorStateRecord(&core.ActorStatePAssertion{
		LocalID:     fmt.Sprintf("s%d", n),
		Asserter:    asserter,
		Interaction: in,
		View:        core.SenderView,
		StateKind:   core.StateScript,
		Content:     core.Bytes("script"),
		Groups:      groups,
		Timestamp:   ts,
	})
	return inter, state, dataOut
}

// put encodes and stores a record directly in a backend, without its
// postings.
func put(t *testing.T, b KV, r *core.Record) {
	t.Helper()
	encoded, err := core.EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PutBatch([]kv.Pair{{Key: r.StorageKey(), Value: encoded}}); err != nil {
		t.Fatal(err)
	}
}

// record stores a record and its postings in one batch, as Store.Record
// writes them.
func record(t *testing.T, b KV, r *core.Record) {
	t.Helper()
	encoded, err := core.EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []kv.Pair{{Key: r.StorageKey(), Value: encoded}}
	var kb KeyBuilder
	for _, k := range kb.PostingKeys(nil, r) {
		pairs = append(pairs, kv.Pair{Key: k})
	}
	if err := b.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
}

// writeCounter counts the batches a backend is asked to write: an Open
// that rebuilds writes, one that does not writes nothing.
type writeCounter struct {
	KV
	writes int
}

func (c *writeCounter) PutBatch(kvs []kv.Pair) error {
	c.writes++
	return c.KV.PutBatch(kvs)
}

func (c *writeCounter) DeleteBatch(keys []string) error {
	c.writes++
	return c.KV.DeleteBatch(keys)
}

func TestOpenRebuildsUnindexedStore(t *testing.T) {
	// Records written before indexing existed: Open must detect the
	// missing schema marker and rebuild postings from a scan.
	b := store.NewMemoryBackend()
	session := seq.NewID()
	inter, state, _ := makeActivity(session, "svc:a", "svc:gzip", 1, t0)
	put(t, b, &inter)
	put(t, b, &state)

	ix, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	list, err := ix.Postings(DimSession, session.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("session postings after rebuild = %v, want both records", list)
	}
	if list[0] != inter.StorageKey() || list[1] != state.StorageKey() {
		t.Errorf("posting order = %v, want sorted storage keys", list)
	}
}

// A store from schema "1" may hold a record without its postings,
// postings whose record is gone, and deficit markers. Open rebuilds it
// once: the missing postings appear, the dangling ones and the markers
// go, the schema marker reads "2", and the next Open writes nothing.
func TestOpenRebuildsOlderSchemaOnce(t *testing.T) {
	b := store.NewMemoryBackend()
	session := seq.NewID()
	kept, _, _ := makeActivity(session, "svc:a", "svc:gzip", 1, t0)
	unindexed, _, _ := makeActivity(session, "svc:a", "svc:gzip", 2, t0)
	gone, _, _ := makeActivity(session, "svc:a", "svc:gzip", 3, t0)
	record(t, b, &kept)
	put(t, b, &unindexed)
	record(t, b, &gone)
	if err := b.Delete(gone.StorageKey()); err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]string{"xm/schema": "1", "xm/deficit/i": "1", "xm/deficit/s": "0"} {
		if err := b.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}

	wc := &writeCounter{KV: b}
	ix, err := Open(wc)
	if err != nil {
		t.Fatal(err)
	}
	if wc.writes == 0 {
		t.Fatal("a schema-1 store opened without a rebuild")
	}
	list, err := ix.Postings(DimSession, session.String())
	if err != nil {
		t.Fatal(err)
	}
	if want := slices.Sorted(slices.Values([]string{kept.StorageKey(), unindexed.StorageKey()})); !slices.Equal(list, want) {
		t.Fatalf("session postings after the rebuild = %q, want %q", list, want)
	}
	if n, err := ix.CountPostings(DimInteraction, gone.InteractionID().String()); err != nil || n != 0 {
		t.Fatalf("the deleted record keeps %d interaction postings (%v)", n, err)
	}
	if n, err := b.Count("xm/deficit/"); err != nil || n != 0 {
		t.Fatalf("%d deficit markers survive the rebuild (%v)", n, err)
	}
	if v, _, err := b.Get("xm/schema"); err != nil || string(v) != "2" {
		t.Fatalf("schema marker %q after the rebuild (%v), want \"2\"", v, err)
	}
	wc.writes = 0
	if _, err := Open(wc); err != nil || wc.writes != 0 {
		t.Fatalf("the second Open wrote %d batches (%v), want none", wc.writes, err)
	}
}

func TestPostingsPerDimension(t *testing.T) {
	b := store.NewMemoryBackend()
	ix, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	session := seq.NewID()
	inter, state, dataOut := makeActivity(session, "svc:a", "svc:gzip", 1, t0)
	for _, r := range []*core.Record{&inter, &state} {
		record(t, b, r)
	}

	checks := []struct {
		dim, term string
		want      int
	}{
		{DimKind, "i", 1},
		{DimKind, "s", 1},
		{DimInteraction, inter.InteractionID().String(), 2},
		{DimSession, session.String(), 2},
		{DimGroup, session.String(), 2},
		{DimActor, "svc:a", 2},
		{DimService, "svc:gzip", 2},
		{DimState, core.StateScript, 1},
		{DimData, dataOut.String(), 1},
		{DimTime, TimeTerm(t0), 2},
		{DimSession, seq.NewID().String(), 0},
	}
	for _, c := range checks {
		n, err := ix.CountPostings(c.dim, c.term)
		if err != nil {
			t.Fatal(err)
		}
		if n != c.want {
			t.Errorf("CountPostings(%s, %s) = %d, want %d", c.dim, c.term, n, c.want)
		}
	}
}

func TestTermEscapingRoundTrips(t *testing.T) {
	// Actor names may contain '/' and '%'; postings must neither collide
	// nor corrupt the term enumeration.
	b := store.NewMemoryBackend()
	ix, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	session := seq.NewID()
	inter, _, _ := makeActivity(session, "org/unit%5/svc", "svc:gzip", 1, t0)
	record(t, b, &inter)
	n, err := ix.CountPostings(DimActor, "org/unit%5/svc")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("escaped-term postings = %d, want 1", n)
	}
	terms, err := ix.Terms(DimActor)
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 1 || terms[0] != "org/unit%5/svc" {
		t.Fatalf("Terms = %v, want the unescaped actor name", terms)
	}
}

func TestScanTimeRange(t *testing.T) {
	b := store.NewMemoryBackend()
	ix, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	session := seq.NewID()
	var keysByHour []string
	for h := 0; h < 5; h++ {
		inter, _, _ := makeActivity(session, "svc:a", "svc:gzip", uint64(h+1), t0.Add(time.Duration(h)*time.Hour))
		record(t, b, &inter)
		keysByHour = append(keysByHour, inter.StorageKey())
	}

	collect := func(since, until time.Time) []string {
		var got []string
		if err := ix.ScanTimeRange(since, until, func(skey string) error {
			got = append(got, skey)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}

	mid := collect(t0.Add(1*time.Hour), t0.Add(3*time.Hour))
	if len(mid) != 3 {
		t.Fatalf("inclusive [h1,h3] = %d keys, want 3", len(mid))
	}
	if got := collect(time.Time{}, t0.Add(30*time.Minute)); len(got) != 1 || got[0] != keysByHour[0] {
		t.Fatalf("open lower bound = %v, want only hour 0", got)
	}
	if got := collect(t0.Add(210*time.Minute), time.Time{}); len(got) != 1 || got[0] != keysByHour[4] {
		t.Fatalf("open upper bound = %v, want only hour 4", got)
	}
	if got := collect(t0.Add(10*time.Hour), time.Time{}); len(got) != 0 {
		t.Fatalf("empty range returned %v", got)
	}
}

// visitCounter counts the keys a backend's scans hand to their
// callbacks: what a range scan actually reads.
type visitCounter struct {
	KV
	visited int
}

func (c *visitCounter) ScanFrom(prefix, from string, fn func(string, []byte) error) error {
	return c.KV.ScanFrom(prefix, from, func(k string, v []byte) error {
		c.visited++
		return fn(k, v)
	})
}

func TestScanTimeRangeSeeksToLowerBound(t *testing.T) {
	// One record a second for a minute. A window straddling the 10-second
	// boundary at :10 shares only the minute with its upper bound's term,
	// so a scan from the bounds' common prefix would walk from :00.
	cv := &visitCounter{KV: store.NewMemoryBackend()}
	ix, err := Open(cv)
	if err != nil {
		t.Fatal(err)
	}
	session := seq.NewID()
	for s := 0; s < 60; s++ {
		inter, _, _ := makeActivity(session, "svc:a", "svc:gzip", uint64(s+1), t0.Add(time.Duration(s)*time.Second))
		record(t, cv, &inter)
	}
	for _, w := range []struct {
		lo, hi int // seconds, inclusive
	}{{8, 12}, {9, 10}, {55, 59}, {0, 0}} {
		cv.visited = 0
		n := 0
		err := ix.ScanTimeRange(t0.Add(time.Duration(w.lo)*time.Second), t0.Add(time.Duration(w.hi)*time.Second), func(string) error {
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := w.hi - w.lo + 1; n != want {
			t.Errorf("[%d, %d]: %d keys, want %d", w.lo, w.hi, n, want)
		}
		if cv.visited > n+1 {
			t.Errorf("[%d, %d]: visited %d keys for a %d-key window, want at most window+1", w.lo, w.hi, cv.visited, n)
		}
	}
}

func TestScanTimeRangeClampsUnindexableBounds(t *testing.T) {
	// Terms sort chronologically over years 0-9999 only; a bound beyond
	// them must clamp, not compare as a string ("10000…" < "2026…").
	b := store.NewMemoryBackend()
	ix, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	inter, _, _ := makeActivity(seq.NewID(), "svc:a", "svc:gzip", 1, t0)
	record(t, b, &inter)
	far := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	past := time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		since, until time.Time
		want         int
	}{
		{time.Time{}, far, 1},
		{past, time.Time{}, 1},
		{past, far, 1},
		{far, time.Time{}, 0},
		{time.Time{}, past, 0},
	} {
		n := 0
		if err := ix.ScanTimeRange(c.since, c.until, func(string) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != c.want {
			t.Errorf("[%v, %v]: %d keys, want %d", c.since, c.until, n, c.want)
		}
	}
}

func TestSessionsEnumeratesDistinctTerms(t *testing.T) {
	b := store.NewMemoryBackend()
	ix, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := seq.NewID(), seq.NewID()
	for i, session := range []ids.ID{s1, s2, s1} {
		inter, state, _ := makeActivity(session, "svc:a", "svc:gzip", uint64(i+1), t0)
		for _, r := range []*core.Record{&inter, &state} {
			record(t, b, r)
		}
	}
	sessions, err := ix.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 2 {
		t.Fatalf("sessions = %v, want the 2 distinct ids", sessions)
	}
	for i := 1; i < len(sessions); i++ {
		if sessions[i-1].Compare(sessions[i]) >= 0 {
			t.Errorf("sessions not sorted: %v", sessions)
		}
	}
}

func TestRebuildSkipsCorruptRecords(t *testing.T) {
	// A record value that no longer decodes must not fail the rebuild
	// (recording stays available), and the next Open does not rebuild
	// again.
	b := store.NewMemoryBackend()
	session := seq.NewID()
	inter, _, _ := makeActivity(session, "svc:a", "svc:gzip", 1, t0)
	put(t, b, &inter)
	if err := b.Put("i/urn:pasoa:ffffffffffffffffffffffffffffffff/sender/svc:a/torn", []byte("not a gob record")); err != nil {
		t.Fatal(err)
	}

	ix, err := Open(b)
	if err != nil {
		t.Fatalf("rebuild over corrupt record failed: %v", err)
	}
	n, err := ix.CountPostings(DimSession, session.String())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("healthy record not indexed: postings = %d", n)
	}

	// Reopen: the schema marker alone decides, so the skipped record
	// triggers no second rebuild.
	wc := &writeCounter{KV: b}
	if _, err := Open(wc); err != nil || wc.writes != 0 {
		t.Fatalf("reopen after tolerated corruption wrote %d batches (%v), want none", wc.writes, err)
	}
}

func TestIndexPersistsAcrossReopen(t *testing.T) {
	// On a persistent backend the postings survive a restart: reopening
	// must not rebuild (observed via the posting count staying exact).
	dir := t.TempDir()
	open := func() (store.Backend, *Index) {
		b, err := store.NewKVBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Open(b)
		if err != nil {
			t.Fatal(err)
		}
		return b, ix
	}
	b, ix := open()
	session := seq.NewID()
	inter, state, _ := makeActivity(session, "svc:a", "svc:gzip", 1, t0)
	for _, r := range []*core.Record{&inter, &state} {
		record(t, b, r)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b, ix = open()
	defer b.Close()
	n, err := ix.CountPostings(DimSession, session.String())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("postings after reopen = %d, want 2", n)
	}
}

func TestPostingIterSequential(t *testing.T) {
	// Next must visit exactly what Postings materialises, in order —
	// across chunk refills (the store holds several chunks' worth).
	backend := store.NewMemoryBackend()
	ix, err := Open(backend)
	if err != nil {
		t.Fatal(err)
	}
	session := seq.NewID()
	const n = 150 // > 2 × iterChunk
	for i := 0; i < n; i++ {
		inter, _, _ := makeActivity(session, "svc:enactor", "svc:gzip", uint64(i+1), t0)
		record(t, backend, &inter)
	}
	want, err := ix.Postings(DimSession, session.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != n {
		t.Fatalf("postings = %d, want %d", len(want), n)
	}
	it := ix.Iter(DimSession, session.String())
	var got []string
	for {
		k, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, k)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("iterator visited %d keys, Postings %d; diverged", len(got), len(want))
	}
	if it.Read() != n {
		t.Errorf("Read() = %d, want %d", it.Read(), n)
	}
	// Next past the end stays exhausted.
	if _, ok, err := it.Next(); ok || err != nil {
		t.Errorf("Next after end: ok=%v err=%v", ok, err)
	}
}

func TestPostingIterSeek(t *testing.T) {
	backend := store.NewMemoryBackend()
	ix, err := Open(backend)
	if err != nil {
		t.Fatal(err)
	}
	session := seq.NewID()
	const n = 150
	for i := 0; i < n; i++ {
		inter, _, _ := makeActivity(session, "svc:enactor", "svc:gzip", uint64(i+1), t0)
		record(t, backend, &inter)
	}
	want, err := ix.Postings(DimSession, session.String())
	if err != nil {
		t.Fatal(err)
	}

	// Seek to an existing key is inclusive.
	it := ix.Iter(DimSession, session.String())
	k, ok, err := it.Seek(want[100])
	if err != nil || !ok || k != want[100] {
		t.Fatalf("Seek(existing) = %q ok=%v err=%v, want %q", k, ok, err, want[100])
	}
	// The stream continues from there.
	k, ok, err = it.Next()
	if err != nil || !ok || k != want[101] {
		t.Fatalf("Next after seek = %q ok=%v err=%v, want %q", k, ok, err, want[101])
	}

	// Seek between keys lands on the successor; a sparse seek far ahead
	// must not read the skipped run.
	it2 := ix.Iter(DimSession, session.String())
	if _, ok, err := it2.Next(); !ok || err != nil {
		t.Fatal("first Next failed")
	}
	readBefore := it2.Read()
	k, ok, err = it2.Seek(want[len(want)-1])
	if err != nil || !ok || k != want[len(want)-1] {
		t.Fatalf("sparse Seek = %q ok=%v err=%v", k, ok, err)
	}
	if skipped := it2.Read() - readBefore; skipped > 2*64 {
		t.Errorf("sparse seek read %d entries; the skipped run was not skipped", skipped)
	}

	// Seek past the end exhausts.
	k, ok, err = it2.Seek(want[len(want)-1] + "\xff")
	if err != nil || ok {
		t.Fatalf("Seek past end = %q ok=%v err=%v, want exhausted", k, ok, err)
	}

	// A missing term yields an empty list.
	it3 := ix.Iter(DimSession, seq.NewID().String())
	if _, ok, err := it3.Next(); ok || err != nil {
		t.Errorf("empty-term Next: ok=%v err=%v", ok, err)
	}
}

// The posting keys of a batch are built one buffer per record: a
// record's keys share one allocation, however many terms it has, and the
// storage key, identifiers and time term are appended in place. 100
// activities are 200 records with 8.5 postings each; building their keys
// once cost 23.5 allocations per record when each key was a string of
// its own.
func TestPostingKeysAllocations(t *testing.T) {
	var records []*core.Record
	session := seq.NewID()
	for n := uint64(0); n < 100; n++ {
		inter, state, _ := makeActivity(session, "svc:a", "svc:gzip", n, t0.Add(time.Duration(n)*time.Millisecond))
		records = append(records, &inter, &state)
	}
	// build reuses one builder and one key list, as Store.Record does.
	var kb KeyBuilder
	var keys []string
	build := func(records []*core.Record) []string {
		keys = keys[:0]
		for _, r := range records {
			keys = kb.PostingKeys(keys, r)
		}
		return keys
	}
	if n := len(build(records)); n != 1700 {
		t.Fatalf("%d posting keys for 100 activities, want 1700", n)
	}
	perRecord := testing.AllocsPerRun(20, func() { build(records) }) / float64(len(records))
	if perRecord > 2 {
		t.Fatalf("%.2f allocations per record building posting keys, want at most 2", perRecord)
	}

	// The keys are x/<dim>/<escaped term>/<storage key>, kind last.
	r := records[0]
	r.Interaction.Asserter = "svc/a%b"
	skey := r.StorageKey()
	want := []string{
		"x/int/" + r.InteractionID().String() + "/" + skey,
		"x/actor/svc%2Fa%25b/" + skey,
		"x/svc/svc:gzip/" + skey,
		"x/grp/" + session.String() + "/" + skey,
		"x/sess/" + session.String() + "/" + skey,
	}
	for _, d := range r.DataIDs() {
		want = append(want, "x/data/"+d.String()+"/"+skey)
	}
	want = append(want, "x/time/"+TimeTerm(r.Timestamp())+"/"+skey, "x/kind/i/"+skey)
	if got := build(records[:1]); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("posting keys\n%q\nwant\n%q", got, want)
	}
}
