package core

import (
	"bytes"
	"encoding/gob"
	"encoding/xml"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"preserv/internal/ids"
)

var seq = &ids.SeqSource{Prefix: 0xC0}

func sampleInteraction() Interaction {
	return Interaction{
		ID:        seq.NewID(),
		Sender:    "svc:enactor",
		Receiver:  "svc:gzip",
		Operation: "compress",
	}
}

func sampleInteractionPA() *InteractionPAssertion {
	in := sampleInteraction()
	return &InteractionPAssertion{
		LocalID:     "pa-1",
		Asserter:    in.Sender,
		Interaction: in,
		View:        SenderView,
		Request: Message{
			Name: "invoke",
			Parts: []MessagePart{
				{Name: "sample", DataID: seq.NewID(), ContentType: "text/plain", Content: Bytes("MKVLAT")},
			},
		},
		Response: Message{
			Name: "result",
			Parts: []MessagePart{
				{Name: "compressed", DataID: seq.NewID(), Content: Bytes{0x1f, 0x8b, 0x00}},
			},
		},
		Groups: []GroupRef{
			{Type: GroupSession, ID: seq.NewID(), Seq: 1},
			{Type: GroupThread, ID: seq.NewID(), Seq: 4},
		},
		Timestamp: time.Date(2005, 6, 1, 12, 0, 0, 0, time.UTC),
	}
}

func sampleActorStatePA() *ActorStatePAssertion {
	in := sampleInteraction()
	return &ActorStatePAssertion{
		LocalID:     "as-1",
		Asserter:    in.Receiver,
		Interaction: in,
		View:        ReceiverView,
		StateKind:   StateScript,
		Content:     Bytes("#!/bin/sh\ngzip -9 $1"),
		Groups:      []GroupRef{{Type: GroupSession, ID: seq.NewID(), Seq: 2}},
		Timestamp:   time.Date(2005, 6, 1, 12, 0, 1, 0, time.UTC),
	}
}

func TestValidInteractionPAssertion(t *testing.T) {
	if err := sampleInteractionPA().Validate(); err != nil {
		t.Fatalf("valid assertion rejected: %v", err)
	}
}

func TestValidActorStatePAssertion(t *testing.T) {
	if err := sampleActorStatePA().Validate(); err != nil {
		t.Fatalf("valid assertion rejected: %v", err)
	}
}

func TestInteractionValidationFailures(t *testing.T) {
	mutations := map[string]func(*InteractionPAssertion){
		"empty local id":    func(p *InteractionPAssertion) { p.LocalID = "" },
		"empty asserter":    func(p *InteractionPAssertion) { p.Asserter = "" },
		"nil interaction":   func(p *InteractionPAssertion) { p.Interaction.ID = ids.Nil },
		"no sender":         func(p *InteractionPAssertion) { p.Interaction.Sender = "" },
		"no receiver":       func(p *InteractionPAssertion) { p.Interaction.Receiver = "" },
		"zero view":         func(p *InteractionPAssertion) { p.View = 0 },
		"bogus view":        func(p *InteractionPAssertion) { p.View = View(9) },
		"wrong sender view": func(p *InteractionPAssertion) { p.Asserter = "svc:other" },
		"bad group":         func(p *InteractionPAssertion) { p.Groups = append(p.Groups, GroupRef{Type: "", ID: seq.NewID()}) },
		"bad group id":      func(p *InteractionPAssertion) { p.Groups = append(p.Groups, GroupRef{Type: "session"}) },
	}
	for name, mutate := range mutations {
		p := sampleInteractionPA()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want error", name)
		}
	}
}

func TestReceiverViewAsserterCheck(t *testing.T) {
	p := sampleActorStatePA()
	p.Asserter = "svc:impostor"
	if err := p.Validate(); err == nil {
		t.Error("receiver view asserted by non-receiver must fail")
	}
}

func TestActorStateRequiresKind(t *testing.T) {
	p := sampleActorStatePA()
	p.StateKind = ""
	if err := p.Validate(); err == nil {
		t.Error("empty state kind must fail")
	}
}

func TestRecordValidate(t *testing.T) {
	good := []*Record{
		NewInteractionRecord(sampleInteractionPA()),
		NewActorStateRecord(sampleActorStatePA()),
	}
	for i, r := range good {
		if err := r.Validate(); err != nil {
			t.Errorf("good record %d rejected: %v", i, err)
		}
	}
	bad := []*Record{
		{},
		{Kind: KindInteraction},
		{Kind: KindActorState},
		{Kind: KindInteraction, Interaction: sampleInteractionPA(), ActorState: sampleActorStatePA()},
		{Kind: Kind(42), Interaction: sampleInteractionPA()},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
}

func TestTimestampRangeMatchesTheWire(t *testing.T) {
	// Validate admits exactly the UTC years 0-9999: what the time index's
	// fixed-width terms sort correctly over. For UTC timestamps that is
	// also what the hand-written codec and encoding/xml can carry.
	for _, c := range []struct {
		ts time.Time
		ok bool
	}{
		{time.Time{}, true},
		{time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), true},
		{time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), true},
		{time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), false},
		{time.Date(-1, 12, 31, 23, 59, 59, 0, time.UTC), false},
		{time.Date(123456, 6, 1, 0, 0, 0, 0, time.UTC), false},
	} {
		p := sampleInteractionPA()
		p.Timestamp = c.ts
		r := NewInteractionRecord(p)
		err := r.Validate()
		if (err == nil) != c.ok || (err != nil && !errors.Is(err, ErrInvalid)) {
			t.Errorf("%v: Validate = %v, want ok=%v (ErrInvalid otherwise)", c.ts, err, c.ok)
		}
		_, handErr := r.AppendXML(nil, "record")
		_, stdErr := xml.Marshal(r)
		if (handErr == nil) != c.ok || (stdErr == nil) != c.ok {
			t.Errorf("%v: hand codec err %v, encoding/xml err %v, want ok=%v from both", c.ts, handErr, stdErr, c.ok)
		}
	}
	// The index sorts on the UTC form: a timestamp the wire could carry
	// in its own zone but whose UTC year is 10000 is still refused.
	p := sampleActorStatePA()
	p.Timestamp = time.Date(9999, 12, 31, 23, 30, 0, 0, time.FixedZone("", -3600))
	if err := NewActorStateRecord(p).Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("UTC year 10000 in a -01:00 zone: Validate = %v, want ErrInvalid", err)
	}
}

func TestRecordAccessors(t *testing.T) {
	p := sampleInteractionPA()
	r := NewInteractionRecord(p)
	if r.InteractionID() != p.Interaction.ID {
		t.Error("InteractionID mismatch")
	}
	if r.Asserter() != p.Asserter {
		t.Error("Asserter mismatch")
	}
	if r.View() != SenderView {
		t.Error("View mismatch")
	}
	if r.LocalID() != "pa-1" {
		t.Error("LocalID mismatch")
	}
	if len(r.Groups()) != 2 {
		t.Error("Groups mismatch")
	}
	sid, ok := r.GroupID(GroupSession)
	if !ok || sid != p.Groups[0].ID {
		t.Error("GroupID(session) mismatch")
	}
	if _, ok := r.GroupID("epoch"); ok {
		t.Error("GroupID of absent type should report false")
	}
	var empty Record
	if empty.InteractionID() != ids.Nil || empty.Asserter() != "" || empty.LocalID() != "" {
		t.Error("zero record accessors should return zero values")
	}
}

func TestStorageKeyUniqueAndPrefixed(t *testing.T) {
	p1 := sampleInteractionPA()
	r1 := NewInteractionRecord(p1)
	// Same interaction, receiver view.
	p2 := sampleInteractionPA()
	p2.Interaction = p1.Interaction
	p2.View = ReceiverView
	p2.Asserter = p1.Interaction.Receiver
	r2 := NewInteractionRecord(p2)
	if r1.StorageKey() == r2.StorageKey() {
		t.Error("distinct views must produce distinct keys")
	}
	if !strings.Contains(r1.StorageKey(), p1.Interaction.ID.String()) {
		t.Error("storage key must embed the interaction id")
	}
	as := sampleActorStatePA()
	as.Interaction = p1.Interaction
	as.Asserter = p1.Interaction.Receiver
	r3 := NewActorStateRecord(as)
	if strings.HasPrefix(r3.StorageKey(), "i/") {
		t.Error("actor state keys must use the s/ prefix")
	}
}

func TestViewRoundTrip(t *testing.T) {
	for _, v := range []View{SenderView, ReceiverView} {
		back, err := ParseView(v.String())
		if err != nil || back != v {
			t.Errorf("ParseView(%q) = %v, %v", v.String(), back, err)
		}
	}
	if _, err := ParseView("bystander"); err == nil {
		t.Error("unknown view should fail to parse")
	}
	if _, err := View(3).MarshalText(); err == nil {
		t.Error("marshalling invalid view should fail")
	}
}

func TestKindText(t *testing.T) {
	for _, k := range []Kind{KindInteraction, KindActorState} {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil || back != k {
			t.Errorf("kind round trip failed for %v", k)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("nonsense")); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := Kind(9).MarshalText(); err == nil {
		t.Error("marshalling invalid kind should fail")
	}
}

func TestXMLRoundTripInteraction(t *testing.T) {
	r := NewInteractionRecord(sampleInteractionPA())
	data, err := xml.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := xml.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != KindInteraction || back.Interaction == nil {
		t.Fatalf("round trip lost payload: %+v", back)
	}
	got, want := back.Interaction, r.Interaction
	if got.LocalID != want.LocalID || got.Asserter != want.Asserter ||
		got.Interaction != want.Interaction || got.View != want.View {
		t.Errorf("header fields lost: %+v vs %+v", got, want)
	}
	if len(got.Request.Parts) != 1 || !bytes.Equal(got.Request.Parts[0].Content, want.Request.Parts[0].Content) {
		t.Error("request parts lost")
	}
	if got.Request.Parts[0].DataID != want.Request.Parts[0].DataID {
		t.Error("data id lost")
	}
	if len(got.Groups) != 2 || got.Groups[0] != want.Groups[0] {
		t.Error("groups lost")
	}
	if !got.Timestamp.Equal(want.Timestamp) {
		t.Error("timestamp lost")
	}
}

func TestXMLRoundTripActorStateBinaryContent(t *testing.T) {
	p := sampleActorStatePA()
	p.Content = Bytes{0x00, 0x01, 0xFF, 0xFE, '<', '>', '&'}
	r := NewActorStateRecord(p)
	data, err := xml.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := xml.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.ActorState.Content, p.Content) {
		t.Errorf("binary content corrupted: %v vs %v", back.ActorState.Content, p.Content)
	}
}

func TestGobRoundTrip(t *testing.T) {
	for _, r := range []*Record{
		NewInteractionRecord(sampleInteractionPA()),
		NewActorStateRecord(sampleActorStatePA()),
	} {
		data, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeRecord(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.StorageKey() != r.StorageKey() {
			t.Errorf("storage key changed: %s vs %s", back.StorageKey(), r.StorageKey())
		}
		if err := back.Validate(); err != nil {
			t.Errorf("decoded record invalid: %v", err)
		}
	}
}

func TestDecodeRecordGarbage(t *testing.T) {
	if _, err := DecodeRecord([]byte("not gob at all")); err == nil {
		t.Error("garbage should fail to decode")
	}
}

func TestDocumentContentStyles(t *testing.T) {
	small := []byte("tiny")
	big := bytes.Repeat([]byte("x"), 1000)

	style, content := DocumentContent(small, 100)
	if style != StyleVerbatim || !bytes.Equal(content, small) {
		t.Errorf("small: %q %v", style, content)
	}
	style, content = DocumentContent(big, 100)
	if style != StyleDigest || len(content) != 32 {
		t.Errorf("big: %q %d bytes", style, len(content))
	}
	// Digest is deterministic and discriminating.
	_, d1 := DocumentContent(big, 100)
	_, d2 := DocumentContent(big, 100)
	if !bytes.Equal(d1, d2) {
		t.Error("digest not deterministic")
	}
	_, d3 := DocumentContent(append([]byte("y"), big...), 100)
	if bytes.Equal(d1, d3) {
		t.Error("different values share a digest")
	}
	style, content = DocumentContent(big, 0)
	if style != StyleOmitted || content != nil {
		t.Errorf("omitted: %q %v", style, content)
	}
	style, _ = DocumentContent(nil, 0)
	if style != StyleVerbatim {
		t.Errorf("empty value at max 0: %q, want verbatim", style)
	}
	style, content = DocumentContent(big, -1)
	if style != StyleVerbatim || len(content) != 1000 {
		t.Errorf("unlimited: %q %d", style, len(content))
	}
	// DocumentContent must copy, not alias.
	_, c := DocumentContent(small, 100)
	c[0] = 'X'
	if small[0] != 't' {
		t.Error("DocumentContent aliased its input")
	}
}

// Property: Bytes round-trips through text for arbitrary content.
func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		text, err := Bytes(data).MarshalText()
		if err != nil {
			return false
		}
		var back Bytes
		if err := back.UnmarshalText(text); err != nil {
			return false
		}
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: gob round trip preserves storage keys for randomised records.
func TestQuickGobPreservesKey(t *testing.T) {
	f := func(localID string, content []byte, seqNo uint64) bool {
		if localID == "" {
			localID = "x"
		}
		p := sampleActorStatePA()
		p.LocalID = localID
		p.Content = content
		p.Groups[0].Seq = seqNo
		r := NewActorStateRecord(p)
		data, err := EncodeRecord(r)
		if err != nil {
			return false
		}
		back, err := DecodeRecord(data)
		if err != nil {
			return false
		}
		return back.StorageKey() == r.StorageKey() &&
			bytes.Equal(back.ActorState.Content, content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLegacyGobBlobsStillDecode(t *testing.T) {
	// Stores written before the binary storage codec hold one gob
	// stream per record; DecodeRecord must keep reading them.
	for _, r := range []*Record{
		NewInteractionRecord(sampleInteractionPA()),
		NewActorStateRecord(sampleActorStatePA()),
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(r); err != nil {
			t.Fatal(err)
		}
		legacy := buf.Bytes()
		back, err := DecodeRecord(legacy)
		if err != nil {
			t.Fatalf("legacy blob failed to decode: %v", err)
		}
		if back.StorageKey() != r.StorageKey() {
			t.Errorf("storage key changed across formats: %s vs %s", back.StorageKey(), r.StorageKey())
		}
		if err := back.Validate(); err != nil {
			t.Errorf("decoded legacy record invalid: %v", err)
		}
		// The two formats must be distinguishable byte-for-byte.
		fresh, err := EncodeRecord(back)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(fresh, legacy) {
			t.Error("new and legacy encodings are identical — format marker missing?")
		}
	}
}

func TestEncodeDeterministicAndStable(t *testing.T) {
	// The store's idempotency check compares bytes: encoding the same
	// record twice, or re-encoding a decoded record, must be identical.
	r := NewInteractionRecord(sampleInteractionPA())
	a, err := EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("encoding is not deterministic")
	}
	back, err := DecodeRecord(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := EncodeRecord(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("decode/re-encode is not byte-stable")
	}
}

func TestDecodeRecordTruncated(t *testing.T) {
	r := NewInteractionRecord(sampleInteractionPA())
	data, err := EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{5, len(data) / 2, len(data) - 1} {
		if _, err := DecodeRecord(data[:cut]); err == nil {
			t.Errorf("truncation at %d decoded without error", cut)
		}
	}
	if _, err := DecodeRecord(append(append([]byte(nil), data...), 0x01)); err == nil {
		t.Error("trailing garbage decoded without error")
	}
}
