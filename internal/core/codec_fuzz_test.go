package core

// Native fuzz target for the hand-rolled record storage codec: whatever
// bytes a torn write, a corrupt segment or a hostile actor hands
// DecodeRecord, it must return an error rather than panic — and
// anything it accepts must carry the codec magic, and re-encode
// canonically and round-trip. CI runs this for a 30s smoke on every
// push; the seed corpus under testdata/fuzz pins the interesting shapes
// (valid binary encodings of both kinds, the gob format of earlier
// versions, which must be refused, truncations, and flipped bytes).

import (
	"bytes"
	"encoding/gob"
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
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data) // must not panic, whatever data is
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
