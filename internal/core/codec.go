package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"preserv/internal/ids"
)

// MarshalText implements encoding.TextMarshaler so views serialise by
// name in XML documents.
func (v View) MarshalText() ([]byte, error) {
	if v != SenderView && v != ReceiverView {
		return nil, fmt.Errorf("core: cannot marshal view %d", int(v))
	}
	return []byte(v.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (v *View) UnmarshalText(text []byte) error {
	parsed, err := parseView(text)
	if err != nil {
		return err
	}
	*v = parsed
	return nil
}

// MarshalText implements encoding.TextMarshaler for record kinds.
func (k Kind) MarshalText() ([]byte, error) {
	if k != KindInteraction && k != KindActorState {
		return nil, fmt.Errorf("core: cannot marshal kind %d", int(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *Kind) UnmarshalText(text []byte) error {
	switch string(text) {
	case "interaction":
		*k = KindInteraction
	case "actorState":
		*k = KindActorState
	default:
		return fmt.Errorf("core: unknown kind %q", text)
	}
	return nil
}

// Storage codec. The format is internal to a single store; the wire
// format between actors and the store is XML (see internal/soap and
// internal/prep).
//
// Records encode in a compact hand-rolled binary form: a magic prefix,
// the kind byte, then the p-assertion's fields as fixed-width IDs and
// uvarint-length-prefixed strings/bytes. A blob without the magic is
// not a record: DecodeRecord fails on it as on any corrupt value.
var codecMagic = [4]byte{0xA5, 'P', 'A', '1'}

// EncodeRecord serialises a record for storage in a backend. Encoding is
// deterministic: equal records produce equal bytes, which the store's
// idempotency check relies on.
func EncodeRecord(r *Record) ([]byte, error) {
	return AppendRecord(make([]byte, 0, 256), r)
}

// AppendRecord appends EncodeRecord's bytes for r to buf.
func AppendRecord(buf []byte, r *Record) ([]byte, error) {
	buf = append(buf, codecMagic[:]...)
	buf = append(buf, byte(r.Kind))
	switch r.Kind {
	case KindInteraction:
		if r.Interaction == nil {
			return nil, fmt.Errorf("core: encoding record: interaction payload missing")
		}
		p := r.Interaction
		var err error
		buf = appendCommon(buf, p.LocalID, p.Asserter, p.Interaction, p.View)
		buf = appendMessage(buf, &p.Request)
		buf = appendMessage(buf, &p.Response)
		buf = appendGroups(buf, p.Groups)
		if buf, err = appendTime(buf, p.Timestamp); err != nil {
			return nil, err
		}
	case KindActorState:
		if r.ActorState == nil {
			return nil, fmt.Errorf("core: encoding record: actor state payload missing")
		}
		p := r.ActorState
		var err error
		buf = appendCommon(buf, p.LocalID, p.Asserter, p.Interaction, p.View)
		buf = appendString(buf, p.StateKind)
		buf = appendBytes(buf, p.Content)
		buf = appendGroups(buf, p.Groups)
		if buf, err = appendTime(buf, p.Timestamp); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: encoding record: unknown kind %d", r.Kind)
	}
	return buf, nil
}

// DecodeRecord reverses EncodeRecord.
func DecodeRecord(data []byte) (*Record, error) {
	if len(data) < len(codecMagic)+1 || !bytes.Equal(data[:len(codecMagic)], codecMagic[:]) {
		return nil, fmt.Errorf("core: decoding record: no codec magic")
	}
	d := &decoder{data: data, off: len(codecMagic)}
	kind := Kind(d.byte())
	r := &Record{Kind: kind}
	switch kind {
	case KindInteraction:
		p := &InteractionPAssertion{}
		p.LocalID, p.Asserter, p.Interaction, p.View = d.common()
		p.Request = d.message()
		p.Response = d.message()
		p.Groups = d.groups()
		p.Timestamp = d.time()
		r.Interaction = p
	case KindActorState:
		p := &ActorStatePAssertion{}
		p.LocalID, p.Asserter, p.Interaction, p.View = d.common()
		p.StateKind = d.str()
		p.Content = Bytes(d.bytes())
		p.Groups = d.groups()
		p.Timestamp = d.time()
		r.ActorState = p
	default:
		return nil, fmt.Errorf("core: decoding record: unknown kind %d", kind)
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: decoding record: %w", d.err)
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("core: decoding record: %d trailing bytes", len(data)-d.off)
	}
	return r, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendID(buf []byte, id ids.ID) []byte {
	b, _ := id.MarshalBinary() // 16 bytes, never errors
	return append(buf, b...)
}

func appendCommon(buf []byte, localID string, asserter ActorID, in Interaction, v View) []byte {
	buf = appendString(buf, localID)
	buf = appendString(buf, string(asserter))
	buf = appendID(buf, in.ID)
	buf = appendString(buf, string(in.Sender))
	buf = appendString(buf, string(in.Receiver))
	buf = appendString(buf, in.Operation)
	return append(buf, byte(v))
}

func appendMessage(buf []byte, m *Message) []byte {
	buf = appendString(buf, m.Name)
	buf = binary.AppendUvarint(buf, uint64(len(m.Parts)))
	for i := range m.Parts {
		p := &m.Parts[i]
		buf = appendString(buf, p.Name)
		buf = appendID(buf, p.DataID)
		buf = appendString(buf, p.ContentType)
		buf = appendString(buf, string(p.Style))
		buf = appendBytes(buf, p.Content)
	}
	return buf
}

func appendGroups(buf []byte, groups []GroupRef) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(groups)))
	for _, g := range groups {
		buf = appendString(buf, g.Type)
		buf = appendID(buf, g.ID)
		buf = binary.AppendUvarint(buf, g.Seq)
	}
	return buf
}

func appendTime(buf []byte, t time.Time) ([]byte, error) {
	b, err := t.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: encoding timestamp: %w", err)
	}
	return appendBytes(buf, b), nil
}

// decoder walks an encoded record, latching the first error; callers
// check err once at the end rather than after every field.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
		d.off = len(d.data)
	}
}

func (d *decoder) byte() byte {
	if d.off >= len(d.data) {
		d.fail("truncated at byte field")
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) take(n uint64) []byte {
	if n > uint64(len(d.data)-d.off) {
		d.fail("truncated: need %d bytes at offset %d", n, d.off)
		return nil
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *decoder) str() string { return string(d.take(d.uvarint())) }

// bytes returns a copy (nil when empty) so the record does not alias
// the backend's buffer.
func (d *decoder) bytes() []byte {
	b := d.take(d.uvarint())
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

func (d *decoder) id() ids.ID {
	b := d.take(16)
	var id ids.ID
	if b != nil {
		if err := id.UnmarshalBinary(b); err != nil {
			d.fail("bad id: %v", err)
		}
	}
	return id
}

func (d *decoder) common() (string, ActorID, Interaction, View) {
	localID := d.str()
	asserter := ActorID(d.str())
	in := Interaction{ID: d.id(), Sender: ActorID(d.str()), Receiver: ActorID(d.str()), Operation: d.str()}
	return localID, asserter, in, View(d.byte())
}

func (d *decoder) message() Message {
	m := Message{Name: d.str()}
	n := d.uvarint()
	if d.err != nil {
		return m
	}
	if n > uint64(len(d.data)-d.off) {
		d.fail("implausible part count %d", n)
		return m
	}
	if n > 0 {
		m.Parts = make([]MessagePart, 0, n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Parts = append(m.Parts, MessagePart{
			Name:        d.str(),
			DataID:      d.id(),
			ContentType: d.str(),
			Style:       ContentStyle(d.str()),
			Content:     Bytes(d.bytes()),
		})
	}
	return m
}

func (d *decoder) groups() []GroupRef {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.data)-d.off) {
		d.fail("implausible group count %d", n)
		return nil
	}
	out := make([]GroupRef, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, GroupRef{Type: d.str(), ID: d.id(), Seq: d.uvarint()})
	}
	return out
}

func (d *decoder) time() time.Time {
	b := d.take(d.uvarint())
	var t time.Time
	if d.err == nil && len(b) > 0 {
		if err := t.UnmarshalBinary(b); err != nil {
			d.fail("bad timestamp: %v", err)
		}
	}
	return t
}
