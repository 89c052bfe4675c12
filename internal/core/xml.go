package core

import (
	"encoding/base64"
	"encoding/binary"
	"math/bits"
	"time"
	"unsafe"

	"preserv/internal/reuse"
	"preserv/internal/xmlwire"
)

// Wire codec. Records cross the wire as XML inside PReP messages; the
// AppendXML methods and RecordDecoder below write and read that XML
// directly, without encoding/xml's reflection. The struct tags above
// remain the specification: AppendXML's output is byte-identical to
// xml.Marshal's and the decoder yields what xml.Unmarshal yields (the
// differential tests hold both to it), so either side of a connection
// may be a build that still uses encoding/xml.
//
// Like a tagged field, a value without an XMLName is named by its
// parent: AppendXML takes the element name, and a decoder is called
// once the parent has read the start tag, reads through the end tag
// and sets only the fields whose elements appear.

// AppendXML appends the record as the element <tag>.
func (r *Record) AppendXML(dst []byte, tag string) ([]byte, error) {
	if r.Kind != KindInteraction && r.Kind != KindActorState {
		_, err := r.Kind.MarshalText()
		return nil, err
	}
	var err error
	dst = xmlwire.AppendOpen(dst, tag)
	dst = xmlwire.AppendString(dst, "kind", r.Kind.String())
	if r.Interaction != nil {
		if dst, err = r.Interaction.AppendXML(dst, "interactionPAssertion"); err != nil {
			return nil, err
		}
	}
	if r.ActorState != nil {
		if dst, err = r.ActorState.AppendXML(dst, "actorStatePAssertion"); err != nil {
			return nil, err
		}
	}
	return xmlwire.AppendClose(dst, tag), nil
}

// RecordDecoder reads the records of one message into memory the
// message shares: p-assertions, parts and groups from slabs, strings
// and contents from the decoder's arena, where a short string that
// recurs (an actor, an operation, a part name) is copied once, found
// by a hash of a few of its words (slot). Ids, views, kinds, sequence
// numbers and timestamps are read as they are parsed, from the fixed
// forms the encoder writes (ids.ID.DecodeXML, View.decodeXML,
// Decoder.Uint64, Decoder.Time); any other form goes through Text. A
// message's DecodeXML takes one from RecordDecoderOf.
type RecordDecoder struct {
	interactions slab[InteractionPAssertion]
	actorStates  slab[ActorStatePAssertion]
	parts        slab[MessagePart]
	groups       slab[GroupRef]
	// list is the record list Append made last, and spare the one the
	// next document's list starts in (Reset).
	list, spare []Record
	// seen holds short strings read so far, direct-mapped by slot.
	seen [64]string
}

// RecordDecoderOf returns the RecordDecoder to read d's records with.
// For a decoder xmlwire.Decoder.Reuse made it is the one kept with d,
// whose slabs and record list the next document reuses, as it reuses
// d's arena; for any other it is local, and what it hands out is the
// message's own.
func RecordDecoderOf(d *xmlwire.Decoder, local *RecordDecoder) *RecordDecoder {
	if rd, ok := d.Memo(newRecordDecoder).(*RecordDecoder); ok {
		return rd
	}
	return local
}

func newRecordDecoder() xmlwire.Memo { return new(RecordDecoder) }

// Reset makes the memory handed out for the last document the next
// one's: xmlwire.Decoder.Reuse resets the RecordDecoder kept with the
// decoder.
func (rd *RecordDecoder) Reset() {
	rd.interactions.reset()
	rd.actorStates.reset()
	rd.parts.reset()
	rd.groups.reset()
	rd.spare, rd.list = reuse.Trim(rd.list), nil
	clear(rd.seen[:])
}

// Append reads the <record> element d is in into a record appended to
// *records. A full list is grown by as many records as the rest of the
// message is expected to hold, as the slabs are sized, not by append's
// doubling; an empty one starts in the spare list, if there is one.
func (rd *RecordDecoder) Append(d *xmlwire.Decoder, records *[]Record) error {
	if l := *records; len(l) == cap(l) {
		grown := rd.spare
		if l != nil || grown == nil {
			grown = make([]Record, len(l), len(l)+max(1, d.Expect(len(l))))
			copy(grown, l)
		}
		*records, rd.list, rd.spare = grown, grown, nil
	}
	*records = append(*records, Record{})
	return rd.Decode(d, &(*records)[len(*records)-1])
}

// slab hands out T's, single or as lists whose elements sit side by
// side, from chunks a chunker sizes.
type slab[T any] struct {
	chunk  []T // the current chunk
	free   []T // its unused tail
	handed int // the T's handed out so far
}

// A chunker sizes a slab's next chunk from its last one's length and
// the T's handed out: a RecordArena, or a RecordDecoder's wireChunks.
type chunker interface {
	chunkLen(last, handed int) int
}

// wireChunks sizes a RecordDecoder's chunks: 1, 2, 4, … but no larger
// than the rest of the message is expected to need.
type wireChunks xmlwire.Decoder

func (w *wireChunks) chunkLen(last, handed int) int {
	return min(2*last, (*xmlwire.Decoder)(w).Expect(handed))
}

// grow replaces the current chunk with one of at least n T's.
func (s *slab[T]) grow(c chunker, n int) {
	s.chunk = make([]T, max(n, c.chunkLen(len(s.chunk), s.handed)))
	s.free = s.chunk
}

// reset hands the current chunk out afresh, from its start: its T's
// are zeroed as they are handed out. A slab that grew past one chunk
// takes one that holds all the last document took, so that a next
// document of its size takes none.
func (s *slab[T]) reset() {
	switch {
	case !reuse.Fits[T](max(len(s.chunk), s.handed)):
		s.chunk = nil
	case s.handed > len(s.chunk):
		s.chunk = make([]T, s.handed)
	}
	s.free, s.handed = s.chunk, 0
}

// rewind readies to, an earlier state of s, for s to return to: with
// the chunk s opened since, if any, from its start.
func (s *slab[T]) rewind(to *slab[T]) {
	if unsafe.SliceData(s.chunk) != unsafe.SliceData(to.chunk) {
		to.chunk, to.free = s.chunk, s.chunk
	}
}

// one returns a new zero T.
func (s *slab[T]) one(c chunker) *T {
	var l []T
	p := s.add(c, &l)
	s.close(&l)
	return p
}

// holds reports whether l is a list the slab opened and has not closed.
func (s *slab[T]) holds(l []T) bool {
	return len(l) > 0 && len(s.free) > 0 && &l[0] == &s.free[0]
}

// add appends a zero T to *list and returns it. A nil list opens on the
// free tail, until close, and moves to a new chunk if it outgrows it;
// any other list grows as append grows it. One list is open at a time.
func (s *slab[T]) add(c chunker, list *[]T) *T {
	l := *list
	switch {
	case l == nil:
		if len(s.free) == 0 {
			s.grow(c, 1)
		}
		l = s.free[:0]
	case len(l) == cap(l) && s.holds(l):
		s.grow(c, len(l)+1)
		l = append(s.free[:0], l...)
	}
	var zero T
	l = append(l, zero)
	*list = l
	s.handed++
	return &l[len(l)-1]
}

// close ends the list the slab opened, if it did: its elements leave
// the free tail, and its capacity is clipped so an append reallocates.
func (s *slab[T]) close(list *[]T) {
	if l := *list; s.holds(l) {
		*list = l[:len(l):len(l)]
		s.free = s.free[len(l):]
	}
}

// short reads the current element's text into *p as String does,
// sharing the copy of an equal short string read earlier.
func (rd *RecordDecoder) short(d *xmlwire.Decoder, p *string) error {
	text, err := d.Text()
	if err != nil {
		return err
	}
	if len(text) > 64 {
		*p = d.CopyString(text)
		return nil
	}
	slot := &rd.seen[slot(text)]
	if *slot != string(text) {
		*slot = d.CopyString(text)
	}
	*p = *slot
	return nil
}

// slot returns the index in RecordDecoder.seen of a string of at most
// 64 bytes: a multiplicative hash of its length and of its first and
// last eight bytes (four, or three single bytes, when it is shorter),
// read a word at a time. Strings that differ only in their middle
// share a slot; the later one is then copied again.
func slot(b []byte) uint64 {
	n := len(b)
	w := uint64(n)
	switch {
	case n >= 8:
		w ^= binary.LittleEndian.Uint64(b) ^ bits.RotateLeft64(binary.LittleEndian.Uint64(b[n-8:]), 31)
	case n >= 4:
		w ^= uint64(binary.LittleEndian.Uint32(b))<<8 ^ uint64(binary.LittleEndian.Uint32(b[n-4:]))<<32
	case n > 0:
		w ^= uint64(b[0])<<8 | uint64(b[n/2])<<16 | uint64(b[n-1])<<24
	}
	return w * 0x9e3779b97f4a7c15 >> (64 - 6) // the top six bits: one of 64 slots
}

// decodeXML reads the element d is in as encoding/xml reads a View
// field, the two names read as they are compared.
func (v *View) decodeXML(d *xmlwire.Decoder) error {
	switch {
	case d.Word("sender"):
		*v = SenderView
	case d.Word("receiver"):
		*v = ReceiverView
	default:
		return d.Unmarshal(v)
	}
	return nil
}

// decodeXML is View's for a Kind.
func (k *Kind) decodeXML(d *xmlwire.Decoder) error {
	switch {
	case d.Word("interaction"):
		*k = KindInteraction
	case d.Word("actorState"):
		*k = KindActorState
	default:
		return d.Unmarshal(k)
	}
	return nil
}

// content reads base64 text into *b, in the arena.
func content(d *xmlwire.Decoder, b *Bytes) error {
	text, err := d.Text()
	if err != nil {
		return err
	}
	return b.decode(d.Alloc(base64.StdEncoding.DecodedLen(len(text))), text)
}

// Decode reads the record d is in into r.
//
// provlint:typed-faults
func (rd *RecordDecoder) Decode(d *xmlwire.Decoder, r *Record) error {
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "kind":
			return r.Kind.decodeXML(d)
		case "interactionPAssertion":
			if r.Interaction == nil {
				r.Interaction = rd.interactions.one((*wireChunks)(d))
			}
			return rd.interaction(d, r.Interaction)
		case "actorStatePAssertion":
			if r.ActorState == nil {
				r.ActorState = rd.actorStates.one((*wireChunks)(d))
			}
			return rd.actorState(d, r.ActorState)
		}
		return d.Skip()
	})
}

// appendAssertionHead appends the four leading fields the two
// p-assertion kinds share.
func appendAssertionHead(dst []byte, localID string, asserter ActorID, in *Interaction, v View) ([]byte, error) {
	if v != SenderView && v != ReceiverView {
		_, err := v.MarshalText()
		return nil, err
	}
	dst = xmlwire.AppendString(dst, "localId", localID)
	dst = xmlwire.AppendString(dst, "asserter", string(asserter))
	dst = in.AppendXML(dst, "interaction")
	return xmlwire.AppendString(dst, "view", v.String()), nil
}

// appendAssertionTail appends the two trailing fields the p-assertion
// kinds share.
func appendAssertionTail(dst []byte, groups []GroupRef, ts time.Time) ([]byte, error) {
	for i := range groups {
		dst = groups[i].AppendXML(dst, "group")
	}
	return xmlwire.AppendTime(dst, "timestamp", ts)
}

// AppendXML appends the p-assertion as the element <tag>.
func (p *InteractionPAssertion) AppendXML(dst []byte, tag string) ([]byte, error) {
	dst, err := appendAssertionHead(xmlwire.AppendOpen(dst, tag), p.LocalID, p.Asserter, &p.Interaction, p.View)
	if err != nil {
		return nil, err
	}
	dst = p.Request.AppendXML(dst, "request")
	dst = p.Response.AppendXML(dst, "response")
	if dst, err = appendAssertionTail(dst, p.Groups, p.Timestamp); err != nil {
		return nil, err
	}
	return xmlwire.AppendClose(dst, tag), nil
}

// interaction reads the p-assertion d is in into p.
func (rd *RecordDecoder) interaction(d *xmlwire.Decoder, p *InteractionPAssertion) error {
	err := d.Children(func(name []byte) error {
		switch string(name) {
		case "localId":
			return d.String(&p.LocalID)
		case "asserter":
			return rd.short(d, (*string)(&p.Asserter))
		case "interaction":
			return rd.exchange(d, &p.Interaction)
		case "view":
			return p.View.decodeXML(d)
		case "request":
			return rd.message(d, &p.Request)
		case "response":
			return rd.message(d, &p.Response)
		case "group":
			return rd.group(d, rd.groups.add((*wireChunks)(d), &p.Groups))
		case "timestamp":
			return d.Time(&p.Timestamp)
		}
		return d.Skip()
	})
	rd.groups.close(&p.Groups)
	return err
}

// AppendXML appends the p-assertion as the element <tag>.
func (p *ActorStatePAssertion) AppendXML(dst []byte, tag string) ([]byte, error) {
	dst, err := appendAssertionHead(xmlwire.AppendOpen(dst, tag), p.LocalID, p.Asserter, &p.Interaction, p.View)
	if err != nil {
		return nil, err
	}
	dst = xmlwire.AppendString(dst, "stateKind", p.StateKind)
	dst = xmlwire.AppendBase64(dst, "content", p.Content)
	if dst, err = appendAssertionTail(dst, p.Groups, p.Timestamp); err != nil {
		return nil, err
	}
	return xmlwire.AppendClose(dst, tag), nil
}

// actorState reads the p-assertion d is in into p.
func (rd *RecordDecoder) actorState(d *xmlwire.Decoder, p *ActorStatePAssertion) error {
	err := d.Children(func(name []byte) error {
		switch string(name) {
		case "localId":
			return d.String(&p.LocalID)
		case "asserter":
			return rd.short(d, (*string)(&p.Asserter))
		case "interaction":
			return rd.exchange(d, &p.Interaction)
		case "view":
			return p.View.decodeXML(d)
		case "stateKind":
			return rd.short(d, &p.StateKind)
		case "content":
			return content(d, &p.Content)
		case "group":
			return rd.group(d, rd.groups.add((*wireChunks)(d), &p.Groups))
		case "timestamp":
			return d.Time(&p.Timestamp)
		}
		return d.Skip()
	})
	rd.groups.close(&p.Groups)
	return err
}

// AppendXML appends the interaction as the element <tag>.
func (in *Interaction) AppendXML(dst []byte, tag string) []byte {
	dst = xmlwire.AppendOpen(dst, tag)
	dst = in.ID.AppendXML(dst, "id")
	dst = xmlwire.AppendString(dst, "sender", string(in.Sender))
	dst = xmlwire.AppendString(dst, "receiver", string(in.Receiver))
	dst = xmlwire.AppendString(dst, "operation", in.Operation)
	return xmlwire.AppendClose(dst, tag)
}

// exchange reads the interaction d is in into in.
func (rd *RecordDecoder) exchange(d *xmlwire.Decoder, in *Interaction) error {
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "id":
			return in.ID.DecodeXML(d)
		case "sender":
			return rd.short(d, (*string)(&in.Sender))
		case "receiver":
			return rd.short(d, (*string)(&in.Receiver))
		case "operation":
			return rd.short(d, &in.Operation)
		}
		return d.Skip()
	})
}

// AppendXML appends the group reference as the element <tag>.
func (g *GroupRef) AppendXML(dst []byte, tag string) []byte {
	dst = xmlwire.AppendOpen(dst, tag)
	dst = xmlwire.AppendString(dst, "type", g.Type)
	dst = g.ID.AppendXML(dst, "id")
	dst = xmlwire.AppendUint(dst, "seq", g.Seq)
	return xmlwire.AppendClose(dst, tag)
}

// group reads the group reference d is in into g.
func (rd *RecordDecoder) group(d *xmlwire.Decoder, g *GroupRef) error {
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "type":
			return rd.short(d, &g.Type)
		case "id":
			return g.ID.DecodeXML(d)
		case "seq":
			return d.Uint64(&g.Seq)
		}
		return d.Skip()
	})
}

// AppendXML appends the message as the element <tag>.
func (m *Message) AppendXML(dst []byte, tag string) []byte {
	dst = xmlwire.AppendOpen(dst, tag)
	dst = xmlwire.AppendString(dst, "name", m.Name)
	for i := range m.Parts {
		dst = m.Parts[i].AppendXML(dst, "part")
	}
	return xmlwire.AppendClose(dst, tag)
}

// message reads the message d is in into m.
func (rd *RecordDecoder) message(d *xmlwire.Decoder, m *Message) error {
	err := d.Children(func(name []byte) error {
		switch string(name) {
		case "name":
			return rd.short(d, &m.Name)
		case "part":
			return rd.part(d, rd.parts.add((*wireChunks)(d), &m.Parts))
		}
		return d.Skip()
	})
	rd.parts.close(&m.Parts)
	return err
}

// AppendXML appends the part as the element <tag>.
func (p *MessagePart) AppendXML(dst []byte, tag string) []byte {
	dst = xmlwire.AppendOpen(dst, tag)
	dst = xmlwire.AppendString(dst, "name", p.Name)
	dst = p.DataID.AppendXML(dst, "dataId")
	if p.ContentType != "" {
		dst = xmlwire.AppendString(dst, "contentType", p.ContentType)
	}
	if p.Style != "" {
		dst = xmlwire.AppendString(dst, "style", string(p.Style))
	}
	if len(p.Content) > 0 {
		dst = xmlwire.AppendBase64(dst, "content", p.Content)
	}
	return xmlwire.AppendClose(dst, tag)
}

// part reads the part d is in into p.
func (rd *RecordDecoder) part(d *xmlwire.Decoder, p *MessagePart) error {
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "name":
			return rd.short(d, &p.Name)
		case "dataId":
			return p.DataID.DecodeXML(d)
		case "contentType":
			return rd.short(d, &p.ContentType)
		case "style":
			return rd.short(d, (*string)(&p.Style))
		case "content":
			return content(d, &p.Content)
		}
		return d.Skip()
	})
}
