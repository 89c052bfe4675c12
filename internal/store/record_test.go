package store

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
)

// goldenBatches is a fixed sequence of Record calls: one record, a
// batch with a within-call repeat, a rejected record and an actor-state
// record whose terms need escaping, a 100-record batch of several
// sessions with nanosecond timestamps, and an idempotent re-record.
func goldenBatches() [][]core.Record {
	src := &ids.SeqSource{Prefix: 0x61}
	exchange := func(session ids.ID, receiver core.ActorID, ns int) core.Record {
		in := core.Interaction{ID: src.NewID(), Sender: "svc:enactor", Receiver: receiver, Operation: "compress"}
		return *core.NewInteractionRecord(&core.InteractionPAssertion{
			LocalID:     "exchange",
			Asserter:    in.Sender,
			Interaction: in,
			View:        core.SenderView,
			Request:     core.Message{Name: "invoke", Parts: []core.MessagePart{{Name: "sample", DataID: src.NewID(), Content: core.Bytes("HPCNHPCN")}}},
			Response:    core.Message{Name: "result", Parts: []core.MessagePart{{Name: "compressed", DataID: src.NewID(), Content: core.Bytes{1, 2, 3}}}},
			Groups:      []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: uint64(ns)}},
			Timestamp:   time.Date(2005, 6, 1, 12, 0, 0, ns, time.UTC),
		})
	}
	s1, s2, s3 := src.NewID(), src.NewID(), src.NewID()
	first := exchange(s1, "svc:gzip", 0)
	repeat := exchange(s1, "svc:bzip2", 100)
	forged := exchange(s2, "svc:ppmz", 7)
	forged.Interaction.Asserter = "svc:other"
	script := *core.NewActorStateRecord(&core.ActorStatePAssertion{
		LocalID:     "script",
		Asserter:    "svc:tools/gzip%1",
		Interaction: core.Interaction{ID: src.NewID(), Sender: "svc:enactor", Receiver: "svc:tools/gzip%1", Operation: "run"},
		View:        core.ReceiverView,
		StateKind:   "script/v%2",
		Content:     core.Bytes("gzip -9"),
		Groups:      []core.GroupRef{{Type: core.GroupSession, ID: s2, Seq: 1}},
		Timestamp:   time.Date(1999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	})
	var hundred []core.Record
	for i := range 100 {
		hundred = append(hundred, exchange([]ids.ID{s1, s2, s3}[i%3], "svc:gzip", i*1000+i))
	}
	return [][]core.Record{
		{first},
		{repeat, forged, repeat},
		{script},
		hundred,
		{first},
	}
}

// The log Store.Record writes is pinned byte for byte: however the
// call encodes its records and its postings, the bytes on disk are
// those of the layout the store has always written for these calls.
func TestRecordLogGolden(t *testing.T) {
	const want = "d0f0c17a6be837a36fbd60854aa80d1f36871fe9b3a7c0e5f6668c7b4247ddd9"
	accepted, rejected := []int{1, 2, 1, 100, 1}, []int{0, 1, 0, 0, 0}
	dir := t.TempDir()
	b, err := NewKVBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b)
	for i, batch := range goldenBatches() {
		n, rejects, err := s.Record(batch[0].Asserter(), batch)
		if err != nil || n != accepted[i] || len(rejects) != rejected[i] {
			t.Fatalf("batch %d: accepted %d, rejects %v: %v; want %d and %d rejects", i, n, rejects, err, accepted[i], rejected[i])
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "data.log"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(log)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("the log of the golden batches (%d bytes) hashes to %s, want %s", len(log), got, want)
	}
}

// What a Record call allocates on kvdb, once its pools are warm: the
// string its records' posting and storage keys are cut from, one per
// record, and little else. Encodings, the batch and kvdb's entry buffer
// are reused from call to call. The collector is off while the calls
// are counted: a collection empties the pools, and what refilling them
// takes is not a call's cost.
func TestRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops what it holds at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct{ batch, ceiling int }{{1, 1}, {100, 103}} {
		b, err := NewKVBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := New(b)
		const runs = 50
		session := seq.NewID()
		calls := make([][]core.Record, runs+1)
		for i := range calls {
			for range c.batch {
				calls[i] = append(calls[i], mkInteraction(session, "svc:gzip", "compress"))
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if n, _, err := s.Record("svc:enactor", calls[i]); err != nil || n != c.batch {
				t.Fatalf("accepted %d of %d: %v", n, c.batch, err)
			}
			i++
		})
		b.Close()
		t.Logf("a %d-record Record: %.0f allocations", c.batch, allocs)
		if allocs > float64(c.ceiling) {
			t.Errorf("a %d-record Record made %.0f allocations, want at most %d", c.batch, allocs, c.ceiling)
		}
	}
}
