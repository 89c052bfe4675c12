package core

// Native fuzz target for the hand-rolled record storage codec: whatever
// bytes a torn write, a corrupt segment or a hostile actor hands
// DecodeRecord, it must return an error rather than panic — and
// anything it accepts must carry the codec magic, and re-encode
// canonically and round-trip. Decoded inside a RecordArena between
// other records, the same bytes give the same record or the same
// error. CI runs this for a 30s smoke on every
// push; the seed corpus under testdata/fuzz pins the interesting shapes
// (valid binary encodings of both kinds, the gob format of earlier
// versions, which must be refused, truncations, and flipped bytes).

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"
	"time"

	"preserv/internal/ids"
)

// fuzzSeedRecords builds one representative record per kind.
func fuzzSeedRecords() []*Record {
	src := &ids.SeqSource{Prefix: 0xFA}
	in := Interaction{ID: src.NewID(), Sender: "svc:enactor", Receiver: "svc:gzip", Operation: "run"}
	ir := NewInteractionRecord(&InteractionPAssertion{
		LocalID:     "e1",
		Asserter:    "svc:enactor",
		Interaction: in,
		View:        SenderView,
		Request:     Message{Name: "invoke", Parts: []MessagePart{{Name: "in", DataID: src.NewID(), ContentType: "text/plain", Content: Bytes("MKVL")}}},
		Response:    Message{Name: "result", Parts: []MessagePart{{Name: "out", DataID: src.NewID()}}},
		Groups:      []GroupRef{{Type: GroupSession, ID: src.NewID(), Seq: 1}},
		Timestamp:   time.Date(2026, 7, 1, 9, 0, 0, 0, time.UTC),
	})
	sr := NewActorStateRecord(&ActorStatePAssertion{
		LocalID:     "s1",
		Asserter:    "svc:gzip",
		Interaction: in,
		View:        ReceiverView,
		StateKind:   StateScript,
		Content:     Bytes("#!/bin/sh\ngzip"),
		Groups:      []GroupRef{{Type: GroupSession, ID: src.NewID(), Seq: 2}},
		Timestamp:   time.Date(2026, 7, 1, 9, 0, 1, 0, time.UTC),
	})
	return []*Record{ir, sr}
}

func FuzzDecodeRecord(f *testing.F) {
	for _, r := range fuzzSeedRecords() {
		enc, err := EncodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2]) // torn tail
		var legacy bytes.Buffer // the gob format of earlier versions: refused
		if err := gob.NewEncoder(&legacy).Encode(r); err != nil {
			f.Fatal(err)
		}
		f.Add(legacy.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xA5, 'P', 'A', '1'})     // magic only
	f.Add([]byte{0xA5, 'P', 'A', '1', 99}) // unknown kind
	f.Add([]byte("not a record at all"))
	var seeds [][]byte
	for _, r := range fuzzSeedRecords() {
		enc, err := EncodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data) // must not panic, whatever data is
		// Differential: inside one arena between other records, data
		// decodes to the same record or fails with the same error, and
		// leaves its neighbours as they were.
		arena := NewRecordArena(len(data) + 2*len(seeds[0]))
		var before, in, after Record
		if err := arena.Decode(seeds[0], &before); err != nil {
			t.Fatal(err)
		}
		inErr := arena.Decode(data, &in)
		if err := arena.Decode(seeds[len(seeds)-1], &after); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(inErr) != fmt.Sprint(err) {
			t.Fatalf("decoded alone: %v; in an arena: %v", err, inErr)
		}
		if err == nil && !reflect.DeepEqual(*r, in) {
			t.Fatalf("decoded alone and in an arena, the records differ:\n%+v\n%+v", *r, in)
		}
		for i, got := range []*Record{&before, &after} {
			if enc, err := EncodeRecord(got); err != nil || !bytes.Equal(enc, seeds[i*(len(seeds)-1)]) {
				t.Fatalf("a neighbour in the arena re-encodes otherwise (%v)", err)
			}
		}
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, codecMagic[:]) {
			t.Fatalf("accepted input without the codec magic: %x", data)
		}
		// Accepted input: the decoded record must re-encode, and the
		// canonical form must be a fixpoint (decode→encode→decode→encode
		// stabilises) — the property the store's idempotency check,
		// plain byte equality, relies on.
		enc, err := EncodeRecord(r)
		if err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		r2, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("canonical encoding failed to decode: %v", err)
		}
		enc2, err := EncodeRecord(r2)
		if err != nil {
			t.Fatalf("round-tripped record failed to re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding is not a fixpoint:\n%x\n%x", enc, enc2)
		}
	})
}

// A record given back with Unread leaves its memory to the next one: a
// selective scan that drops what it decodes takes no new memory, and
// what it kept reads as before.
func TestRecordArenaUnread(t *testing.T) {
	var encoded [][]byte
	for _, r := range fuzzSeedRecords() {
		enc, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, enc)
	}
	arena := NewRecordArena(0)
	var kept, dropped Record
	if err := arena.Decode(encoded[0], &kept); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, enc := range encoded {
			if err := arena.Decode(enc, &dropped); err != nil {
				t.Fatal(err)
			}
			arena.Unread()
		}
	})
	if allocs != 0 {
		t.Errorf("decoding and giving back %d records took %.1f allocations, want 0", len(encoded), allocs)
	}
	if enc, err := EncodeRecord(&kept); err != nil || !bytes.Equal(enc, encoded[0]) {
		t.Errorf("the kept record reads otherwise after the arena reused the memory after it (%v)", err)
	}
}
