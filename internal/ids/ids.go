// Package ids provides the identifier types used throughout the
// provenance architecture: globally unique identifiers for interactions,
// sessions, actors and p-assertions.
//
// The paper's PReP protocol requires every interaction between two actors
// to carry an interaction identifier that is unique across all workflow
// runs, so that p-assertions contributed independently by the sender and
// the receiver of a message can later be joined. We implement identifiers
// as 128-bit random values rendered in a URN-like textual form, generated
// from crypto/rand with a deterministic fallback source for reproducible
// tests and simulations.
package ids

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"preserv/internal/xmlwire"
)

// ID is a globally unique identifier. The zero value is invalid; use New
// or Parse to obtain one.
type ID struct {
	hi, lo uint64
}

// Nil is the zero identifier. It is not a valid identifier for any entity
// and Valid reports false for it.
var Nil ID

// ErrBadID is returned by Parse when the input is not a well-formed
// identifier.
var ErrBadID = errors.New("ids: malformed identifier")

// Source produces identifiers. Implementations must be safe for
// concurrent use.
type Source interface {
	// NewID returns a fresh identifier, distinct from all previously
	// returned ones with overwhelming probability.
	NewID() ID
}

// cryptoSource draws identifiers from crypto/rand.
type cryptoSource struct{}

func (cryptoSource) NewID() ID {
	for {
		var b [16]byte
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand never fails on supported platforms; if it does
			// the process cannot safely generate unique IDs.
			panic("ids: crypto/rand failed: " + err.Error())
		}
		if id := fromBytes(b); id != Nil {
			return id
		}
	}
}

// SeqSource is a deterministic Source for tests and simulations: it
// returns identifiers with a fixed prefix and an incrementing counter.
// The zero value is ready to use.
type SeqSource struct {
	Prefix uint64 // mixed into the high word so distinct sources do not collide
	mu     sync.Mutex
	n      uint64
}

// NewID returns the next identifier in the sequence.
func (s *SeqSource) NewID() ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return ID{hi: s.Prefix<<32 | 0x1D5, lo: s.n}
}

var defaultSource Source = cryptoSource{}

// New returns a fresh globally unique identifier from the default
// (cryptographic) source.
func New() ID { return defaultSource.NewID() }

func fromBytes(b [16]byte) ID {
	var id ID
	for i := 0; i < 8; i++ {
		id.hi = id.hi<<8 | uint64(b[i])
		id.lo = id.lo<<8 | uint64(b[i+8])
	}
	return id
}

// Valid reports whether the identifier is non-zero.
func (id ID) Valid() bool { return id != Nil }

// String renders the identifier in its canonical textual form,
// "urn:pasoa:<32 hex digits>".
func (id ID) String() string {
	var buf [TextLen]byte
	return string(id.AppendString(buf[:0]))
}

// TextLen is the length of an identifier's canonical textual form.
const TextLen = len("urn:pasoa:") + 32

// AppendString appends the canonical textual form (what String returns)
// to dst without allocating, for encoders that build keys and wire
// messages in place.
func (id ID) AppendString(dst []byte) []byte {
	var b [16]byte
	hi, lo := id.hi, id.lo
	for i := 7; i >= 0; i-- {
		b[i] = byte(hi)
		hi >>= 8
		b[i+8] = byte(lo)
		lo >>= 8
	}
	return hex.AppendEncode(append(dst, urnPrefix...), b[:])
}

// Short returns an abbreviated 8-hex-digit form for logs and test output.
// It is not guaranteed unique.
func (id ID) Short() string {
	s := id.String()
	return s[len(s)-8:]
}

// Compare orders identifiers lexicographically by their numeric value.
// It returns -1, 0 or +1.
func (id ID) Compare(other ID) int {
	switch {
	case id.hi < other.hi:
		return -1
	case id.hi > other.hi:
		return 1
	case id.lo < other.lo:
		return -1
	case id.lo > other.lo:
		return 1
	}
	return 0
}

// Parse converts the canonical textual form produced by String back into
// an ID. It accepts both the "urn:pasoa:" prefixed form and a bare
// 32-hex-digit string.
func Parse(s string) (ID, error) { return parse(s) }

// parse is Parse, and UnmarshalText's parser too: it reads either form
// of text without copying or allocating.
func parse[T string | []byte](s T) (ID, error) {
	if len(s) >= len(urnPrefix) && string(s[:len(urnPrefix)]) == urnPrefix {
		s = s[len(urnPrefix):]
	}
	if len(s) != 32 {
		return Nil, fmt.Errorf("%w: %q has length %d, want 32 hex digits", ErrBadID, s, len(s))
	}
	id, ok := parseHex(s)
	if !ok {
		_, err := hex.Decode(make([]byte, 16), []byte(s))
		return Nil, fmt.Errorf("%w: %v", ErrBadID, err)
	}
	return id, nil
}

const urnPrefix = "urn:pasoa:"

// parseHex reads the 32 hex digits s starts with, in either case.
func parseHex[T string | []byte](s T) (id ID, ok bool) {
	bad := byte(0)
	for i := range 16 {
		hi, lo := unhex[s[i]], unhex[s[i+16]]
		id.hi = id.hi<<4 | uint64(hi)
		id.lo = id.lo<<4 | uint64(lo)
		bad |= hi | lo
	}
	return id, bad <= 0xf
}

// unhex maps a hex digit to its value and every other byte to 0xff.
var unhex = func() (t [256]byte) {
	for c := range t {
		t[c] = 0xff
	}
	for c := byte(0); c < 10; c++ {
		t['0'+c] = c
	}
	for c := byte(0); c < 6; c++ {
		t['a'+c], t['A'+c] = 10+c, 10+c
	}
	return t
}()

// MustParse is like Parse but panics on malformed input. It is intended
// for constants in tests and examples.
func MustParse(s string) ID {
	id, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return id
}

// AppendXML appends <tag>id</tag> as encoding/xml marshals an ID
// field. The nil ID is an empty element — omitempty never drops it,
// because an ID is a struct.
func (id ID) AppendXML(dst []byte, tag string) []byte {
	dst = xmlwire.AppendOpen(dst, tag)
	if id.Valid() {
		dst = id.AppendString(dst)
	}
	return xmlwire.AppendClose(dst, tag)
}

// DecodeXML reads the element d is in as encoding/xml reads an ID
// field, with UnmarshalText. The canonical form, which AppendXML
// writes, is read as it is parsed.
func (id *ID) DecodeXML(d *xmlwire.Decoder) error {
	if b := d.Peek(); len(b) >= TextLen && string(b[:len(urnPrefix)]) == urnPrefix {
		if v, ok := parseHex(b[len(urnPrefix):]); ok && d.Close(TextLen) {
			*id = v
			return nil
		}
	}
	return d.Unmarshal(id)
}

// MarshalBinary implements encoding.BinaryMarshaler as the 16-byte
// big-endian representation.
func (id ID) MarshalBinary() ([]byte, error) {
	var b [16]byte
	hi, lo := id.hi, id.lo
	for i := 7; i >= 0; i-- {
		b[i] = byte(hi)
		hi >>= 8
		b[i+8] = byte(lo)
		lo >>= 8
	}
	return b[:], nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (id *ID) UnmarshalBinary(data []byte) error {
	if len(data) != 16 {
		return fmt.Errorf("%w: binary form has %d bytes, want 16", ErrBadID, len(data))
	}
	var b [16]byte
	copy(b[:], data)
	*id = fromBytes(b)
	return nil
}

// MarshalText implements encoding.TextMarshaler so IDs embed naturally in
// XML and JSON documents. The nil ID marshals to the empty string.
func (id ID) MarshalText() ([]byte, error) {
	if id == Nil {
		return []byte{}, nil
	}
	return []byte(id.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler. An empty string
// unmarshals to the nil ID.
func (id *ID) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*id = Nil
		return nil
	}
	parsed, err := parse(text)
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}
