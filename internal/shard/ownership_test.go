package shard

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/store"
)

// gappedBackend hands out each GetBatch's values from one buffer with
// gap bytes between them, as a backend reading whole runs of its log
// might, and notes the buffers' address ranges and the values' bytes.
type gappedBackend struct {
	store.Backend
	buffers [][2]uintptr // [start, end) of each buffer handed out
	fetched []int        // the encoded bytes of each GetBatch
}

const gapBytes = 64 << 10

// ownedIDs is the ownership test's own id source: seq's ids decide
// which shard the other tests' sessions land on.
var ownedIDs = &ids.SeqSource{Prefix: 0x0E}

func (g *gappedBackend) GetBatch(keys []string) ([][]byte, []bool, error) {
	values, present, err := g.Backend.GetBatch(keys)
	if err != nil {
		return nil, nil, err
	}
	size := 0
	for _, v := range values {
		size += len(v)
	}
	buf := make([]byte, 0, size+len(values)*gapBytes)
	for i, v := range values {
		start := len(buf)
		buf = append(buf, v...)
		values[i] = buf[start:len(buf):len(buf)]
		buf = append(buf, make([]byte, gapBytes)...)
	}
	start := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	g.buffers = append(g.buffers, [2]uintptr{start, start + uintptr(cap(buf))})
	g.fetched = append(g.fetched, size)
	return values, present, nil
}

// ownedRecord is one record of session with a content in each part
// and, every third, an actor state with a script.
func ownedRecord(session ids.ID, n int) core.Record {
	in := core.Interaction{ID: ownedIDs.NewID(), Sender: "svc:enactor", Receiver: "svc:gzip", Operation: "run"}
	groups := []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: uint64(n + 1)}}
	if n%3 == 2 {
		return *core.NewActorStateRecord(&core.ActorStatePAssertion{
			LocalID: fmt.Sprintf("s%d", n), Asserter: "svc:enactor", Interaction: in, View: core.SenderView,
			StateKind: core.StateScript, Content: core.Bytes(fmt.Sprintf("#!/bin/sh\ngzip -%d", n)),
			Groups: groups, Timestamp: time.Date(2026, 7, 3, 9, 0, n, 0, time.UTC),
		})
	}
	return *core.NewInteractionRecord(&core.InteractionPAssertion{
		LocalID: fmt.Sprintf("e%d", n), Asserter: "svc:enactor", Interaction: in, View: core.SenderView,
		Request:   core.Message{Name: "invoke", Parts: []core.MessagePart{{Name: "in", DataID: ownedIDs.NewID(), ContentType: "text/plain", Content: core.Bytes(fmt.Sprintf("MKVL%d", n))}}},
		Response:  core.Message{Name: "result", Parts: []core.MessagePart{{Name: "out", DataID: ownedIDs.NewID(), Content: core.Bytes{byte(n), 1, 2}}, {Name: "log"}}},
		Groups:    groups,
		Timestamp: time.Date(2026, 7, 3, 9, 0, n, 0, time.UTC),
	})
}

// recordBytes lists the address ranges of every string and content a
// record holds.
func recordBytes(r *core.Record) [][2]uintptr {
	var out [][2]uintptr
	str := func(s string) {
		if len(s) > 0 {
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			out = append(out, [2]uintptr{p, p + uintptr(len(s))})
		}
	}
	content := func(b []byte) {
		if len(b) > 0 {
			p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
			out = append(out, [2]uintptr{p, p + uintptr(cap(b))})
		}
	}
	head := func(localID string, asserter core.ActorID, in core.Interaction, groups []core.GroupRef) {
		str(localID)
		str(string(asserter))
		str(string(in.Sender))
		str(string(in.Receiver))
		str(in.Operation)
		for _, g := range groups {
			str(g.Type)
		}
	}
	if p := r.Interaction; p != nil {
		head(p.LocalID, p.Asserter, p.Interaction, p.Groups)
		for _, m := range []core.Message{p.Request, p.Response} {
			str(m.Name)
			for _, part := range m.Parts {
				str(part.Name)
				str(part.ContentType)
				str(string(part.Style))
				content(part.Content)
			}
		}
	}
	if p := r.ActorState; p != nil {
		head(p.LocalID, p.Asserter, p.Interaction, p.Groups)
		str(p.StateKind)
		content(p.Content)
	}
	return out
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// The storage side's twin of soap's TestDecodedRecordsOwnTheirMemory:
// records read from a store own their memory. A cached answer reads the
// same through later queries, deletes, a compaction, a reopen and writes
// into another answer's contents; an append to one of its records
// reaches no other; and it pins the bytes of its own fetch alone, never
// the buffer the backend read them into.
func TestStoredRecordsOwnTheirMemory(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Router, *gappedBackend) {
		kb, err := store.NewKVBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		gb := &gappedBackend{Backend: kb}
		rt, err := NewRouter(NewLocal(store.New(gb)))
		if err != nil {
			t.Fatal(err)
		}
		return rt, gb
	}
	rt, gb := open()
	kept, other, wide := ownedIDs.NewID(), ownedIDs.NewID(), ownedIDs.NewID()
	const n, wideBytes = 40, 8 << 10
	for call := range 4 {
		var batch []core.Record
		for i := call * n / 4; i < (call+1)*n/4; i++ {
			w := ownedRecord(wide, 3*i) // an interaction
			w.Interaction.Request.Parts[0].Content = bytes.Repeat([]byte{byte(i)}, wideBytes)
			batch = append(batch, ownedRecord(kept, i), ownedRecord(other, i), w)
		}
		if _, rejects, err := rt.Record("svc:enactor", batch); err != nil || len(rejects) > 0 {
			t.Fatalf("recording: %v %v", err, rejects)
		}
	}
	// Warm the index and the stores' caches, so that what the next query
	// leaves on the heap is its answer.
	if _, _, _, err := rt.QueryPlanned(&prep.Query{SessionID: other}); err != nil {
		t.Fatal(err)
	}
	before, fetches := liveHeap(), len(gb.fetched)
	got, total, _, err := rt.QueryPlanned(&prep.Query{SessionID: kept})
	if err != nil || total != n || len(got) != n {
		t.Fatalf("read %d of %d records: %v", len(got), total, err)
	}
	pinned := int64(liveHeap()) - int64(before)
	if len(gb.fetched) != fetches+1 {
		t.Fatalf("the answer took %d fetches, want 1", len(gb.fetched)-fetches)
	}
	fetched := gb.fetched[fetches]
	buffer := gb.buffers[fetches]

	// Its strings and contents lie in one span no longer than the fetch's
	// encoded bytes, outside the buffer the backend handed them out in.
	lo, hi := ^uintptr(0), uintptr(0)
	for i := range got {
		for _, b := range recordBytes(&got[i]) {
			if b[0] < buffer[1] && buffer[0] < b[1] {
				t.Fatalf("record %d holds bytes of the backend's buffer", i)
			}
			lo, hi = min(lo, b[0]), max(hi, b[1])
		}
	}
	if span := int(hi - lo); span > fetched {
		t.Errorf("the answer's bytes span %d bytes, more than the %d its fetch read", span, fetched)
	}
	// What it pins: its bytes and its records' structs, not the gaps.
	structs := n * int(unsafe.Sizeof(core.Record{})+unsafe.Sizeof(core.InteractionPAssertion{})+3*unsafe.Sizeof(core.MessagePart{})+unsafe.Sizeof(core.GroupRef{}))
	t.Logf("the answer pins %d bytes: its fetch read %d, its records take %d", pinned, fetched, structs)
	if limit := int64(fetched + structs + gapBytes/2); pinned > limit {
		t.Errorf("the cached answer pins %d bytes, more than its fetch's %d encoded bytes and %d of records (limit %d)", pinned, fetched, structs, limit)
	}

	// A one-record page over a residual (Asserter has no postings) that
	// owes a Total decodes the fetch's other matches to count them, and
	// gives each back: it pins its own record's bytes and room for one
	// more, not the fetch.
	before = liveHeap()
	page, total, _, err := rt.QueryPlanned(&prep.Query{SessionID: wide, Asserter: "svc:enactor", Limit: 1})
	if err != nil || total != n || len(page) != 1 {
		t.Fatalf("read %d records, total %d, of a %d-record session: %v", len(page), total, n, err)
	}
	pinned = int64(liveHeap()) - int64(before)
	t.Logf("a one-record page of a %d-byte fetch pins %d bytes", n*wideBytes, pinned)
	if limit := int64(2*wideBytes + gapBytes/2); pinned > limit {
		t.Errorf("a one-record page pins %d bytes, more than two of its %d-byte records and slack (limit %d)", pinned, wideBytes, limit)
	}
	runtime.KeepAlive(page)

	encoded := make([][]byte, len(got))
	for i := range got {
		if encoded[i], err = core.EncodeRecord(&got[i]); err != nil {
			t.Fatal(err)
		}
	}
	unchanged := func(stage string) {
		t.Helper()
		for i := range got {
			enc, err := core.EncodeRecord(&got[i])
			if err != nil || !bytes.Equal(enc, encoded[i]) {
				t.Fatalf("after %s, record %d reads otherwise (%v)", stage, i, err)
			}
		}
	}

	for _, q := range []*prep.Query{{SessionID: other}, {SessionID: kept, Kind: core.KindActorState.String()}, {Kind: core.KindInteraction.String()}} {
		if _, _, _, err := rt.QueryPlanned(q); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := rt.QueryPage(q, "", 7); err != nil {
			t.Fatal(err)
		}
	}
	unchanged("later queries")
	if _, err := rt.DeleteSession(other); err != nil {
		t.Fatal(err)
	}
	unchanged("a delete")
	if err := rt.Compact(); err != nil {
		t.Fatal(err)
	}
	unchanged("a compaction")
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	rt, _ = open()
	defer rt.Close()
	unchanged("a reopen")
	scripts, _, _, err := rt.QueryPlanned(&prep.Query{SessionID: kept, Kind: core.KindActorState.String()})
	if err != nil || len(scripts) == 0 {
		t.Fatalf("read %d scripts: %v", len(scripts), err)
	}
	for _, r := range scripts {
		for i := range r.ActorState.Content {
			r.ActorState.Content[i] = 'x'
		}
	}
	unchanged("writes into another answer's contents")

	// An append to a record's lists or contents reallocates: it reaches
	// neither the record's other fields nor a neighbour.
	for i := range got {
		var groups []core.GroupRef
		var contents []core.Bytes
		if p := got[i].Interaction; p != nil {
			_ = append(p.Request.Parts, core.MessagePart{Name: "appended"})
			_ = append(p.Response.Parts, core.MessagePart{Name: "appended"})
			for _, part := range append(p.Request.Parts, p.Response.Parts...) {
				contents = append(contents, part.Content)
			}
			groups = p.Groups
		}
		if p := got[i].ActorState; p != nil {
			contents, groups = append(contents, p.Content), p.Groups
		}
		_ = append(groups, core.GroupRef{Type: "appended", ID: ownedIDs.NewID()})
		for _, c := range contents {
			_ = append(c, "appended"...)
		}
	}
	unchanged("appends to its records' lists and contents")
}
