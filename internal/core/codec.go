package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"
	"unsafe"

	"preserv/internal/ids"
	"preserv/internal/reuse"
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

// DecodeRecord reverses EncodeRecord: the one-record case of a
// RecordArena.
func DecodeRecord(data []byte) (*Record, error) {
	r := new(Record)
	if err := NewRecordArena(len(data)).Decode(data, r); err != nil {
		return nil, err
	}
	return r, nil
}

// RecordArena decodes stored records into memory they share, as
// RecordDecoder does a message's: each value's bytes are copied once
// into a byte chunk that its strings and capacity-clipped contents
// point into, and p-assertions, parts and groups come from slabs. One
// arena serves one fetch and is never reused: a record kept pins the
// chunks it points into.
type RecordArena struct {
	size int // the encoded bytes the fetch is expected to decode
	arenaState
	undo arenaState // as it was before the last Decode
}

// arenaState is what Decode takes from and Unread gives back.
type arenaState struct {
	chunk        []byte // the current byte chunk
	bytes        []byte // its unused tail
	read         int    // the encoded bytes decoded so far
	interactions slab[InteractionPAssertion]
	actorStates  slab[ActorStatePAssertion]
	parts        slab[MessagePart]
	groups       slab[GroupRef]
}

// maxDoubling caps the slab entries a chunk grows to by doubling alone,
// so that a long scan's chunks each hold a bounded share of it.
const maxDoubling = 1 << 10

// NewRecordArena returns an arena for a fetch of about size encoded
// bytes. Past size, its chunks grow by doubling.
func NewRecordArena(size int) *RecordArena { return &RecordArena{size: size} }

// chunkLen sizes a slab's next chunk: what the rest of the fetch is
// expected to take at the rate the values so far took it, and at least
// double the last chunk, up to maxDoubling.
func (a *RecordArena) chunkLen(last, handed int) int {
	grown := min(2*last, maxDoubling)
	if a.read == 0 || a.size <= a.read {
		return grown
	}
	return max(grown, int((int64(handed)*int64(a.size-a.read)+int64(a.read)-1)/int64(a.read)))
}

// alloc returns n bytes with their capacity clipped, from a chunk that
// holds the rest of the fetch, or double what was read, up to 1 MiB.
func (a *RecordArena) alloc(n int) []byte {
	if n > len(a.bytes) {
		a.chunk = make([]byte, max(n, a.size-a.read, min(2*a.read, reuse.MaxBytes)))
		a.bytes = a.chunk
	}
	b := a.bytes[:n:n]
	a.bytes, a.read = a.bytes[n:], a.read+n
	return b
}

// Decode reads the stored value data into r. r owns what it holds:
// data may be reused once Decode returns.
func (a *RecordArena) Decode(data []byte, r *Record) error {
	a.undo = a.arenaState
	if len(data) < len(codecMagic)+1 || !bytes.Equal(data[:len(codecMagic)], codecMagic[:]) {
		return fmt.Errorf("core: decoding record: no codec magic")
	}
	own := a.alloc(len(data))
	copy(own, data)
	d := &decoder{a: a, data: own, off: len(codecMagic)}
	*r = Record{Kind: Kind(d.byte())}
	switch r.Kind {
	case KindInteraction:
		p := a.interactions.one(a)
		p.LocalID, p.Asserter, p.Interaction, p.View = d.common()
		d.message(&p.Request)
		d.message(&p.Response)
		p.Groups = d.groups()
		p.Timestamp = d.time()
		r.Interaction = p
	case KindActorState:
		p := a.actorStates.one(a)
		p.LocalID, p.Asserter, p.Interaction, p.View = d.common()
		p.StateKind = d.str()
		p.Content = Bytes(d.bytes())
		p.Groups = d.groups()
		p.Timestamp = d.time()
		r.ActorState = p
	default:
		return fmt.Errorf("core: decoding record: unknown kind %d", r.Kind)
	}
	if d.err != nil {
		return fmt.Errorf("core: decoding record: %w", d.err)
	}
	if d.off != len(own) {
		return fmt.Errorf("core: decoding record: %d trailing bytes", len(own)-d.off)
	}
	return nil
}

// Unread gives the memory the last Decode took back to the next, for a
// record the caller drops and nothing holds.
func (a *RecordArena) Unread() {
	if unsafe.SliceData(a.chunk) != unsafe.SliceData(a.undo.chunk) {
		a.undo.chunk, a.undo.bytes = a.chunk, a.chunk
	}
	a.interactions.rewind(&a.undo.interactions)
	a.actorStates.rewind(&a.undo.actorStates)
	a.parts.rewind(&a.undo.parts)
	a.groups.rewind(&a.undo.groups)
	a.arenaState = a.undo
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

// decoder walks an encoded record's arena copy, latching the first
// error; callers check err once at the end rather than after every field.
type decoder struct {
	a    *RecordArena
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
	b := d.data[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return b
}

// str and bytes return the arena copy's bytes; bytes is nil when empty.
func (d *decoder) str() string {
	b := d.take(d.uvarint())
	return unsafe.String(unsafe.SliceData(b), len(b))
}

func (d *decoder) bytes() []byte {
	b := d.take(d.uvarint())
	if len(b) == 0 {
		return nil
	}
	return b
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

// count reads a list's length, which cannot exceed the bytes left.
func (d *decoder) count(what string) uint64 {
	n := d.uvarint()
	if n > uint64(len(d.data)-d.off) {
		d.fail("implausible %s count %d", what, n)
		return 0
	}
	return n
}

func (d *decoder) message(m *Message) {
	m.Name = d.str()
	n := d.count("part")
	for i := uint64(0); i < n && d.err == nil; i++ {
		*d.a.parts.add(d.a, &m.Parts) = MessagePart{
			Name:        d.str(),
			DataID:      d.id(),
			ContentType: d.str(),
			Style:       ContentStyle(d.str()),
			Content:     Bytes(d.bytes()),
		}
	}
	d.a.parts.close(&m.Parts)
}

func (d *decoder) groups() []GroupRef {
	var out []GroupRef
	n := d.count("group")
	for i := uint64(0); i < n && d.err == nil; i++ {
		*d.a.groups.add(d.a, &out) = GroupRef{Type: d.str(), ID: d.id(), Seq: d.uvarint()}
	}
	d.a.groups.close(&out)
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
