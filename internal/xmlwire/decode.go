package xmlwire

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
	"unsafe"

	"preserv/internal/reuse"
)

// SyntaxError reports input the decoder does not accept.
type SyntaxError struct {
	// Offset is the byte offset in the input near which decoding failed.
	Offset int
	Msg    string
	// Unsupported marks well-formed XML the decoder rejects on purpose
	// (see Decoder); every other SyntaxError is malformed input.
	Unsupported bool
}

func (e *SyntaxError) Error() string {
	return "xmlwire: " + e.Msg + " (offset " + strconv.Itoa(e.Offset) + ")"
}

// Is makes errors.Is(err, ErrUnsupported) true for the deliberate
// rejections.
func (e *SyntaxError) Is(target error) bool { return target == ErrUnsupported && e.Unsupported }

// ErrUnsupported matches the SyntaxErrors raised for well-formed XML
// that encoding/xml accepts and this decoder refuses.
var ErrUnsupported = errors.New("xmlwire: unsupported XML construct")

// MaxDepth bounds element nesting. encoding/xml applies the same limit
// to the elements it unmarshals but none to the ones it skips; here it
// also bounds the skip stack a hostile message can grow.
const MaxDepth = 10000

// Decoder is a single-pass pull decoder over one XML document held in
// memory. A message's DecodeXML method drives it: Children (or Next)
// steps through the children of the current element, and for each
// child the caller reads its scalar text (Text, String, Int, …),
// recurses into it, or Skips it. Every call that finishes an element
// also checks its end tag.
//
// It accepts what encoding/xml's Unmarshal accepts and rejects what it
// rejects — children in any order, unknown elements, self-closing
// empties, attributes, namespace prefixes, comments and processing
// instructions between elements, an <?xml?> prolog, text around the
// root; entity and character references, CR normalisation, UTF-8 and
// XML character-range checks on all character data and attribute
// values — with these exceptions, all refused with an ErrUnsupported
// SyntaxError: <!DOCTYPE and the other <! directives; CDATA sections;
// a comment, processing instruction or child element inside the text
// of a scalar element; nesting deeper than MaxDepth. Non-ASCII element
// names are accepted without encoding/xml's letter-class check.
//
// It reads what the encoders write with each byte classified once. A
// start tag <name> whose name is plain ASCII is read in one step
// (plainStart); a text run is found and proved plain in one pass, a
// word at a time (plainPrefix), and handed out in place; the usual end
// tag is compared with its start tag's name a word at a time (closes);
// and Peek and Close let a reader parse a scalar of a fixed form — an
// id, a number, a timestamp — straight from the message. Any other byte
// leaves the fast path where it is met: a prefix, an attribute or
// white space in a tag goes to startTag or endTag, a reference, CR,
// control or non-ASCII byte in text to text, which goes on from that
// byte, and a scalar out of its fixed form to Text.
type Decoder struct {
	data []byte
	pos  int
	// open holds the raw qualified names of the open elements,
	// innermost last; end tags are matched against it.
	open []span
	// selfClosed is set when the innermost open element was written
	// <a/>: it has no content and its end is pending.
	selfClosed bool
	// reuse is set on a decoder that Reuse made.
	reuse bool
	// ns holds the namespace declarations in scope, innermost last.
	ns []binding
	// nsFloor hides ns[:nsFloor] while more than fragment elements are
	// open (see Fragment); fragment is zero when nothing is hidden.
	nsFloor, fragment int
	// scratch backs the text of the last element read, when unescaping
	// had to rewrite it.
	scratch []byte
	// arena is the chunk String and Alloc take from, up to its length;
	// kept counts the bytes all chunks have given.
	arena []byte
	kept  int
	// memo is the state a reader keeps with a decoder Reuse made.
	memo Memo
	// openBuf backs open: the messages written here nest 8 deep.
	openBuf [10]span
}

type span struct{ start, end int }

// binding is one xmlns declaration; it is in scope while more than
// depth-1 elements are open.
type binding struct {
	prefix, uri string
	depth       int
}

// NewDecoder returns a decoder over data, which it reads but never
// modifies. Text and InnerXML hand out []byte that alias data or an
// internal buffer, valid until the next call; String and Alloc hand out
// memory of the decoder's own, which never aliases data and stays valid
// for as long as it is referenced.
func NewDecoder(data []byte) *Decoder {
	d := new(Decoder)
	d.Reset(data)
	return d
}

// Reset makes d a decoder over data as NewDecoder makes one, keeping
// only the buffers of its own that it never hands out: what it decodes
// from data is new memory, and what it handed out before stays valid.
// The zero Decoder is ready to be Reset or Reused.
func (d *Decoder) Reset(data []byte) {
	clear(d.ns)
	*d = Decoder{data: data, ns: reuse.Trim(d.ns), scratch: reuse.Trim(d.scratch)}
	d.open = d.openBuf[:0]
}

// Memo is state a reader keeps with a decoder Reuse made, for its next
// document to reuse (core.RecordDecoder's slabs); Reuse resets it with
// the decoder.
type Memo interface{ Reset() }

// Reuse makes d a decoder over data that reuses the memory it handed
// out for its last document: the arena String and Alloc take from, and
// its Memo; the chunks a huge document took are left to the collector
// (reuse.Fits). Every value decoded from that document is overwritten,
// so d is Reused only once nothing refers to them: the server's request
// decoders are, once the reply is written.
func (d *Decoder) Reuse(data []byte) {
	arena, memo := d.arena[:0], d.memo
	switch {
	case !d.reuse:
		arena = nil // handed out by a decoder that was not to reuse it
	case !reuse.Fits[byte](max(cap(arena), d.kept)):
		arena = nil
	case d.kept > cap(arena): // the last document took several chunks: one holds it all
		arena = make([]byte, 0, d.kept)
	}
	d.Reset(data)
	d.arena, d.reuse, d.memo = arena, true, memo
	if memo != nil {
		memo.Reset()
	}
}

// Memo returns the state kept with d, made by newMemo on first use,
// or nil when Reuse did not make d: what it hands out must then
// outlive d's next document, as a new reader's would.
func (d *Decoder) Memo(newMemo func() Memo) Memo {
	if d.reuse && d.memo == nil {
		d.memo = newMemo()
	}
	return d.memo
}

func (d *Decoder) errorf(unsupported bool, parts ...string) error {
	return &SyntaxError{Offset: d.pos, Msg: strings.Join(parts, ""), Unsupported: unsupported}
}

func (d *Decoder) syntax(parts ...string) error { return d.errorf(false, parts...) }

func (d *Decoder) eof() error { return d.syntax("unexpected EOF") }

// Root advances to the document's root element, skipping the prolog
// and any text, comments and processing instructions before it. It
// returns io.EOF when the input holds no element.
func (d *Decoder) Root() error {
	for {
		if more, err := d.skipText(); err != nil || !more {
			if err == nil {
				err = io.EOF
			}
			return err
		}
		tok, err := d.markup()
		if err != nil {
			return err
		}
		if tok == tokStart {
			return nil
		}
	}
}

// Offset returns the byte offset in the input up to which the decoder
// has read.
func (d *Decoder) Offset() int { return d.pos }

// Fragment makes the current element's content read as a document of
// its own, as encoding/xml reads it when handed those bytes alone: the
// namespace declarations of the current element and its ancestors are
// out of scope inside it, until its end tag.
func (d *Decoder) Fragment() { d.nsFloor, d.fragment = len(d.ns), len(d.open) }

// StartName checks that the current element — the one whose start tag
// was read last — has the local name want, as encoding/xml checks an
// XMLName field, and returns the element's namespace.
func (d *Decoder) StartName(want string) (space string, err error) {
	prefix, local := d.current()
	if string(local) != want {
		return "", d.syntax("expected element type <", want, "> but have <", string(local), ">")
	}
	return d.resolve(prefix, local), nil
}

// Next advances to the next child of the current element and returns
// its local name; the child becomes the current element. It returns
// ok=false once the current element's end tag has been read, making
// its parent current again.
func (d *Decoder) Next() (local []byte, ok bool, err error) {
	if d.selfClosed {
		d.selfClosed = false
		d.pop()
		return nil, false, nil
	}
	// What the encoders write is read in one step: the current
	// element's end tag, or a child's plain start tag.
	if i := d.pos; i+1 < len(d.data) && d.data[i] == '<' {
		if d.data[i+1] == '/' {
			if d.closes(i + 2) {
				return nil, false, nil
			}
		} else if end := d.plainStart(i + 1); end > 0 {
			return d.data[i+1 : end], true, nil
		}
	}
	for {
		if err := d.ignoredText(); err != nil {
			return nil, false, err
		}
		tok, err := d.markup()
		if err != nil {
			return nil, false, err
		}
		switch tok {
		case tokStart:
			_, local := d.current()
			return local, true, nil
		case tokEnd:
			return nil, false, nil
		}
	}
}

// Children calls field for each child of the current element in turn,
// with that child current and its local name; field reads the child —
// as a scalar, with a Children of its own, or with Skip. Children
// returns once the current element's end tag has been read, or at the
// first error.
func (d *Decoder) Children(field func(name []byte) error) error {
	for {
		name, ok, err := d.Next()
		if err != nil || !ok {
			return err
		}
		if err := field(name); err != nil {
			return err
		}
	}
}

// Skip reads past the rest of the current element, checking that what
// it skips is well formed.
func (d *Decoder) Skip() error {
	_, err := d.InnerXML()
	return err
}

// InnerXML reads past the rest of the current element like Skip and
// returns the raw bytes between its start and end tags.
func (d *Decoder) InnerXML() ([]byte, error) {
	if d.selfClosed {
		d.selfClosed = false
		d.pop()
		return nil, nil
	}
	start, end := d.pos, d.pos
	for target := len(d.open) - 1; len(d.open) > target; {
		if err := d.ignoredText(); err != nil {
			return nil, err
		}
		end = d.pos
		if _, err := d.markup(); err != nil {
			return nil, err
		}
		if d.selfClosed {
			d.selfClosed = false
			d.pop()
		}
	}
	return d.data[start:end], nil
}

// Text reads the current element as a scalar: its character data,
// unescaped, through its end tag. Text that holds no reference, CR,
// control or non-ASCII byte — what the encoders write — is found and
// checked in one pass, a word at a time, and returned in place; other
// text is checked byte by byte from its first such byte on.
func (d *Decoder) Text() ([]byte, error) {
	if d.selfClosed {
		d.selfClosed = false
		d.pop()
		return nil, nil
	}
	start := d.pos
	i := start + plainPrefix(d.data[start:])
	text := d.data[start:i]
	if i == len(d.data) || d.data[i] != '<' {
		n := bytes.IndexByte(d.data[i:], '<')
		if n < 0 {
			return nil, d.eof()
		}
		var err error
		if text, err = d.text(d.data[start:i+n], i-start, false, true); err != nil {
			return nil, err
		}
		i += n
	}
	d.pos = i
	if i+1 == len(d.data) {
		return nil, d.eof()
	}
	if d.data[i+1] != '/' {
		_, local := d.current()
		return nil, d.errorf(true, "markup inside the text of <", string(local), ">")
	}
	if d.closes(i + 2) {
		return text, nil
	}
	d.pos = i + 2
	return text, d.endTag()
}

// String reads the current element's text into *p, in the arena.
func (d *Decoder) String(p *string) error {
	text, err := d.Text()
	if err == nil {
		*p = d.CopyString(text)
	}
	return err
}

// CopyString returns b as a string in the arena.
func (d *Decoder) CopyString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	s := d.Alloc(len(b))
	copy(s, b)
	return unsafe.String(&s[0], len(s))
}

// Alloc returns n bytes of the arena for the caller to fill, never
// nil, with its capacity clipped to n: on a decoder Reuse made they
// may hold an earlier document's bytes. The arena is chunks each sized
// for the rest of the message at the rate values have taken the input
// so far (Expect): a message takes a chunk or two, and a value kept
// pins its chunk alone. A decoder Reuse made starts each document on
// the chunk its last one ended in.
func (d *Decoder) Alloc(n int) []byte {
	if n == 0 {
		return []byte{}
	}
	if n > cap(d.arena)-len(d.arena) {
		size := (len(d.data) - d.pos) / 8 // no value read yet: a guess
		if d.kept > 0 {
			size = d.Expect(d.kept)
		}
		d.arena = make([]byte, 0, max(n, size))
	}
	o := len(d.arena)
	d.arena = d.arena[:o+n]
	d.kept += n
	return d.arena[o : o+n : o+n]
}

// Expect returns how many more of something the unread input holds if
// it holds them at the rate the n so far came in the input read.
func (d *Decoder) Expect(n int) int {
	read := int64(max(d.pos, 1))
	return int((int64(n)*int64(len(d.data)-d.pos) + read - 1) / read)
}

// Peek returns the unread input from the start of the current
// element's text, nil when the element was written <a/>: for a reader
// that parses a scalar of a fixed form straight from the message. Once
// it has parsed n bytes, every one of them plain text — printable ASCII
// other than '&', '<' and '>', tab or line feed — it calls Close(n). A
// reader whose form is not there reads the element with Text instead.
func (d *Decoder) Peek() []byte {
	if d.selfClosed {
		return nil
	}
	return d.data[d.pos:]
}

// Close reads past n bytes of the current element's text, which the
// caller has found to be plain text (see Peek), and past the usual end
// tag after them. It reports false, having read nothing, when anything
// else follows them.
func (d *Decoder) Close(n int) bool {
	i := d.pos + n
	return i+1 < len(d.data) && d.data[i] == '<' && d.data[i+1] == '/' && d.closes(i+2)
}

// Word reports whether the current element's text is word, which is
// plain text, and if so reads through its end tag; otherwise it reads
// nothing.
func (d *Decoder) Word(word string) bool {
	b := d.Peek()
	return len(b) > len(word) && string(b[:len(word)]) == word && d.Close(len(word))
}

// number returns the value of the decimal digits that start b, at most
// 19 of them, and how many there are.
func number(b []byte) (v uint64, n int) {
	for ; n < len(b) && n < 19 && '0' <= b[n] && b[n] <= '9'; n++ {
		v = v*10 + uint64(b[n]-'0')
	}
	return v, n
}

// Int reads the current element's text into *p as encoding/xml reads
// an int field: empty is zero, surrounding space is ignored. Digits
// alone are read as they are parsed.
func (d *Decoder) Int(p *int) error {
	if v, n := number(d.Peek()); n > 0 && v <= math.MaxInt && d.Close(n) {
		*p = int(v)
		return nil
	}
	text, err := d.Text()
	if err != nil {
		return err
	}
	var v int64
	if len(text) > 0 {
		if v, err = strconv.ParseInt(string(bytes.TrimSpace(text)), 10, strconv.IntSize); err != nil {
			return err
		}
	}
	*p = int(v)
	return nil
}

// Uint64 is Int for a uint64 field.
func (d *Decoder) Uint64(p *uint64) error {
	if v, n := number(d.Peek()); n > 0 && d.Close(n) {
		*p = v
		return nil
	}
	text, err := d.Text()
	if err != nil {
		return err
	}
	var v uint64
	if len(text) > 0 {
		if v, err = strconv.ParseUint(string(bytes.TrimSpace(text)), 10, 64); err != nil {
			return err
		}
	}
	*p = v
	return nil
}

// Bool is Int for a bool field.
func (d *Decoder) Bool(p *bool) error {
	text, err := d.Text()
	if err != nil {
		return err
	}
	v := false
	if len(text) > 0 {
		if v, err = strconv.ParseBool(string(bytes.TrimSpace(text))); err != nil {
			return err
		}
	}
	*p = v
	return nil
}

// Time reads the current element's text into *p as encoding/xml reads
// a time.Time field, with its UnmarshalText. The form the encoders
// write, RFC 3339 in UTC, is read as it is parsed.
func (d *Decoder) Time(p *time.Time) error {
	if t, n := utcTime(d.Peek()); n > 0 && d.Close(n) {
		*p = t
		return nil
	}
	text, err := d.Text()
	if err != nil {
		return err
	}
	return p.UnmarshalText(text)
}

// utcTime reads a time of the form 2006-01-02T15:04:05Z, with a
// fraction of one to nine digits or none, from the start of b, and
// returns its length; n is 0 when b does not start with one, or when a
// field is out of its range or the day past the 28th, which Text and
// time.Time.UnmarshalText check instead.
func utcTime(b []byte) (t time.Time, n int) {
	if len(b) < 20 || b[4] != '-' || b[7] != '-' || b[10] != 'T' || b[13] != ':' || b[16] != ':' {
		return t, 0
	}
	year, month, day := digits(b[0:4]), digits(b[5:7]), digits(b[8:10])
	hour, minute, sec := digits(b[11:13]), digits(b[14:16]), digits(b[17:19])
	n, nsec := 19, 0
	if b[n] == '.' {
		frac, k := number(b[20:min(len(b), 29)])
		if k == 0 {
			return t, 0
		}
		n, nsec = 20+k, int(frac)
		for ; k < 9; k++ {
			nsec *= 10
		}
	}
	if n == len(b) || b[n] != 'Z' || year < 0 || month < 1 || month > 12 || day < 1 || day > 28 ||
		hour < 0 || hour > 23 || minute < 0 || minute > 59 || sec < 0 || sec > 59 {
		return t, 0
	}
	return time.Date(year, time.Month(month), day, hour, minute, sec, nsec, time.UTC), n + 1
}

// digits returns the value of the decimal digits b, or -1 if b holds
// another byte.
func digits(b []byte) int {
	v, n := number(b)
	if n < len(b) {
		return -1
	}
	return int(v)
}

// Unmarshal hands the current element's text to u.
func (d *Decoder) Unmarshal(u encoding.TextUnmarshaler) error {
	text, err := d.Text()
	if err != nil {
		return err
	}
	return u.UnmarshalText(text)
}

type token int

const (
	tokStart token = iota // a start tag: its element is now current
	tokEnd                // the current element's end tag
	tokMisc               // a comment or processing instruction
)

// markup reads the markup whose '<' is at d.pos.
func (d *Decoder) markup() (token, error) {
	d.pos++
	if d.pos >= len(d.data) {
		return 0, d.eof()
	}
	switch d.data[d.pos] {
	case '/':
		d.pos++
		return tokEnd, d.endTag()
	case '?':
		d.pos++
		return tokMisc, d.procInst()
	case '!':
		d.pos++
		return tokMisc, d.comment()
	}
	return tokStart, d.startTag()
}

// ignoredText checks the character data up to the next '<', which the
// caller has no use for and which must be there.
func (d *Decoder) ignoredText() error {
	if d.pos < len(d.data) && d.data[d.pos] == '<' {
		return nil
	}
	more, err := d.skipText()
	if err == nil && !more {
		err = d.eof()
	}
	return err
}

// skipText checks the character data from d.pos to the next '<' and
// moves there; more is false when the input ends first.
func (d *Decoder) skipText() (more bool, err error) {
	i := d.pos + plainPrefix(d.data[d.pos:])
	if i < len(d.data) && d.data[i] != '<' {
		end := len(d.data)
		if n := bytes.IndexByte(d.data[i:], '<'); n >= 0 {
			end = i + n
		}
		if _, err := d.text(d.data[d.pos:end], i-d.pos, false, false); err != nil {
			return false, err
		}
		i = end
	}
	d.pos = i
	return i < len(d.data), nil
}

// Name byte classes.
const (
	// nameByte: a name may hold it. Every byte of a multi-byte
	// character counts, checked as UTF-8 afterwards.
	nameByte = 1 << iota
	// nameStart: an ASCII byte a name may begin with.
	nameStart
	// plainName: an ASCII name byte other than the colon. A name of
	// these needs neither a UTF-8 check nor a split into prefix and
	// local name.
	plainName
)

// nameClass holds each byte's name classes.
var nameClass = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c] = nameByte | nameStart | plainName
		t[c-'a'+'A'] = nameByte | nameStart | plainName
	}
	for _, c := range "0123456789.-" {
		t[c] = nameByte | plainName
	}
	t['_'] = nameByte | nameStart | plainName
	t[':'] = nameByte | nameStart
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = nameByte
	}
	return t
}()

// plainStart reads, in one step, a start tag of the form the encoders
// write — <name>, the name plain (see plainName) — from its name at
// start on, makes its element current and returns the name's end. It
// returns 0, having read nothing, for any other start tag, which
// startTag reads.
func (d *Decoder) plainStart(start int) int {
	data := d.data
	if c := nameClass[data[start]]; c&nameStart == 0 || c&plainName == 0 {
		return 0
	}
	i := start + 1
	for i < len(data) && nameClass[data[i]]&plainName != 0 {
		i++
	}
	if i == len(data) || data[i] != '>' || len(d.open) >= MaxDepth {
		return 0
	}
	d.open = append(d.open, span{start, i})
	d.pos = i + 1
	return i
}

// readName reads a name at d.pos and returns its extent. missing is
// the complaint when there is none; qualified names may hold at most
// one colon.
func (d *Decoder) readName(missing string, qualified bool) (span, error) {
	i, colons, all := d.pos, 0, byte(0)
	for ; i < len(d.data) && nameClass[d.data[i]]&nameByte != 0; i++ {
		c := d.data[i]
		all |= c
		if c == ':' {
			colons++
		}
	}
	if i == len(d.data) {
		return span{}, d.eof()
	}
	name := d.data[d.pos:i]
	if len(name) == 0 {
		return span{}, d.syntax(missing)
	}
	if c := name[0]; c < utf8.RuneSelf && nameClass[c]&nameStart == 0 || all >= utf8.RuneSelf && !utf8.Valid(name) {
		return span{}, d.syntax("invalid XML name: ", string(name))
	}
	if qualified && colons > 1 {
		return span{}, d.syntax(missing)
	}
	s := span{d.pos, i}
	d.pos = i
	return s, nil
}

func (d *Decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\r', '\n', '\t':
			d.pos++
		default:
			return
		}
	}
}

// splitName splits a qualified name as encoding/xml does: at its one
// colon, unless that leaves either side empty.
func splitName(name []byte) (prefix, local []byte) {
	if i := bytes.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return name[:i], name[i+1:]
	}
	return nil, name
}

// current returns the name of the innermost open element.
func (d *Decoder) current() (prefix, local []byte) {
	s := d.open[len(d.open)-1]
	return splitName(d.data[s.start:s.end])
}

// resolve maps an element's prefix to its namespace by encoding/xml's
// rules: an undeclared prefix stands for itself.
func (d *Decoder) resolve(prefix, local []byte) string {
	switch {
	case string(prefix) == "xmlns":
		return "xmlns"
	case string(prefix) == "xml":
		return "http://www.w3.org/XML/1998/namespace"
	case len(prefix) == 0 && string(local) == "xmlns":
		return ""
	}
	for i := len(d.ns) - 1; i >= d.nsFloor; i-- {
		if d.ns[i].prefix == string(prefix) {
			return d.ns[i].uri
		}
	}
	return string(prefix)
}

func (d *Decoder) pop() {
	d.open = d.open[:len(d.open)-1]
	if len(d.open) < d.fragment {
		d.nsFloor, d.fragment = 0, 0
	}
	for n := len(d.ns); n > 0 && d.ns[n-1].depth > len(d.open); n-- {
		d.ns = d.ns[:n-1]
	}
}

// startTag reads a start tag from its name on and makes its element
// current. Attributes are checked and, namespace declarations aside,
// dropped: no hand-coded message has an attribute field.
func (d *Decoder) startTag() error {
	name, err := d.readName("expected element name after <", true)
	if err != nil {
		return err
	}
	if len(d.open) >= MaxDepth {
		return d.errorf(true, "elements nested deeper than ", strconv.Itoa(MaxDepth))
	}
	d.open = append(d.open, name)
	for {
		d.skipSpace()
		if d.pos >= len(d.data) {
			return d.eof()
		}
		switch d.data[d.pos] {
		case '/':
			d.pos++
			if d.pos >= len(d.data) {
				return d.eof()
			}
			if d.data[d.pos] != '>' {
				return d.syntax("expected /> in element")
			}
			d.pos++
			d.selfClosed = true
			return nil
		case '>':
			d.pos++
			return nil
		}
		attr, err := d.readName("expected attribute name in element", true)
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.pos >= len(d.data) {
			return d.eof()
		}
		if d.data[d.pos] != '=' {
			return d.syntax("attribute name without = in element")
		}
		d.pos++
		d.skipSpace()
		if d.pos >= len(d.data) {
			return d.eof()
		}
		quote := d.data[d.pos]
		if quote != '"' && quote != '\'' {
			return d.syntax("unquoted or missing attribute value in element")
		}
		d.pos++
		n := bytes.IndexByte(d.data[d.pos:], quote)
		if n < 0 {
			return d.eof()
		}
		raw := d.data[d.pos : d.pos+n]
		if bytes.IndexByte(raw, '<') >= 0 {
			return d.syntax("unescaped < inside quoted string")
		}
		prefix, local := splitName(d.data[attr.start:attr.end])
		declares := string(prefix) == "xmlns" || len(prefix) == 0 && string(local) == "xmlns"
		value, err := d.text(raw, 0, true, declares)
		if err != nil {
			return err
		}
		d.pos += n + 1
		if declares {
			b := binding{uri: string(value), depth: len(d.open)}
			if len(prefix) > 0 {
				b.prefix = string(local)
			}
			d.ns = append(d.ns, b)
		}
	}
}

// endTag reads an end tag from its name on and closes the current
// element with it.
func (d *Decoder) endTag() error {
	if d.closes(d.pos) {
		return nil
	}
	name, err := d.readName("expected element name after </", true)
	if err != nil {
		return err
	}
	closing := d.data[name.start:name.end]
	d.skipSpace()
	if d.pos >= len(d.data) {
		return d.eof()
	}
	if d.data[d.pos] != '>' {
		return d.syntax("invalid characters between </", string(closing), " and >")
	}
	d.pos++
	if len(d.open) == 0 {
		return d.syntax("unexpected end element </", string(closing), ">")
	}
	top := d.open[len(d.open)-1]
	if opened := d.data[top.start:top.end]; !bytes.Equal(opened, closing) {
		return d.syntax("element <", string(opened), "> closed by </", string(closing), ">")
	}
	d.pop()
	return nil
}

// closes reads the usual end tag, which repeats the current element's
// name (already checked) and closes at once, from i, just past its
// "</", and closes the element. It reports false, having read nothing,
// when anything else is there.
func (d *Decoder) closes(i int) bool {
	n := len(d.open)
	if n == 0 {
		return false
	}
	start := d.open[n-1].start
	end := i + d.open[n-1].end - start
	if end >= len(d.data) || d.data[end] != '>' || !d.same(start, i, end-i) {
		return false
	}
	d.pos = end + 1
	d.pop()
	return true
}

// same reports whether the n bytes of the input at i and at j are
// equal, comparing a name of up to 16 bytes a word or two at a time.
func (d *Decoder) same(i, j, n int) bool {
	data := d.data
	if n <= 16 && max(i, j)+8 <= len(data) {
		x := binary.LittleEndian.Uint64(data[i:]) ^ binary.LittleEndian.Uint64(data[j:])
		if n <= 8 {
			return x<<(64-8*n) == 0
		}
		return x == 0 && binary.LittleEndian.Uint64(data[i+n-8:]) == binary.LittleEndian.Uint64(data[j+n-8:])
	}
	return string(data[i:i+n]) == string(data[j:j+n])
}

// procInst reads a processing instruction from its target on. An
// <?xml?> declaration must say version 1.0 and, if it names an
// encoding, UTF-8 — the one encoding/xml reads without a CharsetReader.
func (d *Decoder) procInst() error {
	name, err := d.readName("expected target name after <?", false)
	if err != nil {
		return err
	}
	d.skipSpace()
	n := bytes.Index(d.data[d.pos:], []byte("?>"))
	if n < 0 {
		d.pos = len(d.data)
		return d.eof()
	}
	if string(d.data[name.start:name.end]) == "xml" {
		content := string(d.data[d.pos : d.pos+n])
		if ver := declParam("version", content); ver != "" && ver != "1.0" {
			return d.syntax("unsupported version ", strconv.Quote(ver), "; only version 1.0 is supported")
		}
		if enc := declParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return d.syntax("encoding ", strconv.Quote(enc), " declared; only UTF-8 is supported")
		}
	}
	d.pos += n + 2
	return nil
}

// declParam extracts param's quoted value from an XML declaration, by
// encoding/xml's own (deliberately loose) rules so both agree on which
// declarations pass.
func declParam(param, s string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// comment reads what follows "<!": a comment, or one of the constructs
// the decoder refuses.
func (d *Decoder) comment() error {
	rest := d.data[d.pos:]
	switch {
	case bytes.HasPrefix(rest, []byte("--")):
	case bytes.HasPrefix(rest, []byte("[CDATA[")):
		return d.errorf(true, "CDATA section")
	default:
		return d.errorf(true, "<! directive")
	}
	body := rest[2:]
	k := bytes.Index(body, []byte("--"))
	if k < 0 || k+2 >= len(body) {
		d.pos = len(d.data)
		return d.eof()
	}
	if body[k+2] != '>' {
		return d.syntax(`invalid sequence "--" not allowed in comments`)
	}
	d.pos += 2 + k + 3
	return nil
}

// plainText marks the bytes character data may hold that need no
// decoding, rewriting or further checking. '<' is among them only for
// plainPrefix's sake: it ends a run of character data, which never
// holds one.
var plainText = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	t['\t'], t['\n'] = true, true
	t['&'], t['<'], t['>'] = false, false, false
	return t
}()

// lsb and msb are a word's bytes' lowest and highest bits.
const lsb, msb = 0x0101010101010101, 0x8080808080808080

// plainPrefix returns the length of the longest prefix of b that is
// plain text. It reads b a word at a time: special finds the first
// control, non-ASCII, '&', '<' or '>' byte of a word, and of those only
// a tab or a line feed is plain.
func plainPrefix(b []byte) int {
	i := 0
	for i+8 <= len(b) {
		m := special(binary.LittleEndian.Uint64(b[i:]))
		if m == 0 {
			i += 8
			continue
		}
		i += bits.TrailingZeros64(m) >> 3
		if !plainText[b[i]] {
			return i
		}
		i++
	}
	for i < len(b) && plainText[b[i]] {
		i++
	}
	return i
}

// special returns w, eight bytes read little-endian, with the top bit
// of its lowest byte that is below 0x20 or above 0x7f, or is '&', '<'
// or '>', set, and no bit below it; bits above it are noise. Every
// term is exact up to its first marked byte because no byte below that
// one borrows.
func special(w uint64) uint64 {
	amp := w ^ 0x26*lsb                // '&' bytes become zero
	angle := (w | 0x02*lsb) ^ 0x3e*lsb // '<' (0x3c) and '>' (0x3e) bytes become zero
	return (w | (w - 0x20*lsb) | (amp-lsb)&^amp | (angle-lsb)&^angle) & msb
}

// text checks one run of character data — element text, or with quoted
// set an attribute value — as encoding/xml does: references must be
// the five predefined entities or character references, "]]>" may not
// appear outside a quoted value, and every character, after
// unescaping, must be valid UTF-8 inside XML's character range. The
// caller has found raw[:i] plain. With keep set it returns the
// unescaped text, CR and CRLF rewritten to LF: raw itself when nothing
// needed rewriting, d.scratch otherwise.
func (d *Decoder) text(raw []byte, i int, quoted, keep bool) ([]byte, error) {
	for i < len(raw) && plainText[raw[i]] {
		i++
	}
	if i == len(raw) {
		return raw, nil
	}
	var out []byte
	if keep {
		out = append(d.scratch[:0], raw[:i]...)
	}
	for i < len(raw) {
		c := raw[i]
		size := 1
		switch {
		case plainText[c]:
		case c == '>':
			if !quoted && i >= 2 && raw[i-1] == ']' && raw[i-2] == ']' {
				return nil, d.syntax("unescaped ]]> not in CDATA section")
			}
		case c == '&':
			r, n := reference(raw[i:])
			if n == 0 {
				return nil, d.syntax("invalid character entity ", string(raw[i:min(len(raw), i+12)]))
			}
			if !inCharRange(r) {
				return nil, d.syntax("illegal character code U+", strconv.FormatInt(int64(r), 16))
			}
			if keep {
				out = utf8.AppendRune(out, r)
			}
			i += n
			continue
		case c == '\r':
			if keep {
				out = append(out, '\n')
			}
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
			continue
		case c < 0x20:
			return nil, d.syntax("illegal character code U+", strconv.FormatInt(int64(c), 16))
		default:
			var r rune
			r, size = utf8.DecodeRune(raw[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, d.syntax("invalid UTF-8")
			}
			if !inCharRange(r) {
				return nil, d.syntax("illegal character code U+", strconv.FormatInt(int64(r), 16))
			}
		}
		if keep {
			out = append(out, raw[i:i+size]...)
		}
		i += size
	}
	if keep {
		d.scratch = out
	}
	return out, nil
}

// reference decodes the entity or character reference at the start of
// s (s[0] is '&') and returns its character and length; n is zero when
// s does not start with a reference encoding/xml would take: one of the
// five predefined entities, or a decimal or hex character reference to
// a code point (a surrogate yields U+FFFD, as there).
func reference(s []byte) (r rune, n int) {
	if len(s) < 2 || s[1] != '#' {
		end := bytes.IndexByte(s[:min(len(s), len("&quot;"))], ';')
		switch string(s[1:max(end, 1)]) {
		case "lt":
			return '<', end + 1
		case "gt":
			return '>', end + 1
		case "amp":
			return '&', end + 1
		case "apos":
			return '\'', end + 1
		case "quot":
			return '"', end + 1
		}
		return 0, 0
	}
	base, i := rune(10), 2
	if len(s) > 2 && s[2] == 'x' {
		base, i = 16, 3
	}
	for start := i; i < len(s); i++ {
		var v rune
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			v = rune(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			v = rune(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			v = rune(c-'A') + 10
		default:
			if c != ';' || i == start || r > utf8.MaxRune {
				return 0, 0
			}
			if !utf8.ValidRune(r) {
				r = utf8.RuneError
			}
			return r, i + 1
		}
		if r <= utf8.MaxRune { // beyond it the reference is invalid whatever follows
			r = r*base + v
		}
	}
	return 0, 0
}
