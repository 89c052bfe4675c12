// Package soap implements the minimal XML message envelope the
// provenance architecture uses on the wire. It stands in for the SOAP
// binding of the paper's PReServ ("a SOAP message is sent to PReServ to
// either record or query provenance"): an Envelope with an action header
// and an XML body, POSTed over HTTP, with faults for error returns.
package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"unicode"
	"unicode/utf8"

	"preserv/internal/ids"
	"preserv/internal/xmlwire"
)

// ContentType is the media type of envelope messages.
const ContentType = "text/xml; charset=utf-8"

// contentType is the header value every reply shares, set without the
// slice Header().Set allocates. Its capacity is its length, so an
// append to it copies rather than writes into it.
var contentType = []string{ContentType}

// MaxMessageBytes bounds accepted message sizes (32 MiB), protecting the
// store from unbounded payloads.
const MaxMessageBytes = 32 << 20

// Envelope is the wire wrapper for every message, as encoding/xml
// reads and writes it. Marshal and Unmarshal produce and accept exactly
// this shape without reflecting over it; the type remains as the
// wire's specification and for tests that build or inspect envelopes
// field by field.
type Envelope struct {
	XMLName xml.Name `xml:"Envelope"`
	Header  Header   `xml:"Header"`
	Body    Body     `xml:"Body"`
}

// Header carries routing metadata.
type Header struct {
	// Action selects the operation, e.g. prep.ActionRecord.
	Action string `xml:"action"`
	// MessageID uniquely identifies this message.
	MessageID ids.ID `xml:"messageId"`
}

// Body holds the payload document verbatim.
type Body struct {
	Inner []byte `xml:",innerxml"`
}

// Fault is the error payload.
type Fault struct {
	XMLName xml.Name `xml:"Fault"`
	Code    string   `xml:"code"`
	Message string   `xml:"message"`
}

// Error implements the error interface so faults propagate naturally.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap: fault %s: %s", f.Code, f.Message)
}

// Fault codes.
const (
	FaultBadRequest = "client.bad-request"
	FaultBadAction  = "client.unknown-action"
	FaultInternal   = "server.internal"
)

// ErrNotEnvelope is returned when input does not parse as an Envelope.
var ErrNotEnvelope = errors.New("soap: not an envelope")

// ErrReplyTooLarge is returned by Endpoint.Post when the reply exceeds
// MaxMessageBytes.
var ErrReplyTooLarge = errors.New("soap: reply exceeds size limit")

// The messages on a Record or query request's path — the three PReP
// requests, their four replies and Fault — are written and read by hand
// over internal/xmlwire on both sides of the wire: their types implement
// wireEncoder and wireDecoder, byte-identical on the wire to what
// encoding/xml produces from their struct tags. The cold administrative
// messages and test payloads implement neither and go through
// encoding/xml both ways — that fallback is their only path, not a
// second one for the hot messages. A message type has exactly one
// encoder and one decoder; nothing selects between them at run time.
type wireEncoder interface {
	// AppendXML appends the payload's XML element to dst.
	AppendXML(dst []byte) ([]byte, error)
}

type wireDecoder interface {
	// DecodeXML reads the payload from d, whose current element is the
	// payload's root.
	DecodeXML(d *xmlwire.Decoder) error
}

// AppendXML appends the fault element.
func (f *Fault) AppendXML(dst []byte) ([]byte, error) {
	dst = append(dst, "<Fault>"...)
	dst = xmlwire.AppendString(dst, "code", f.Code)
	dst = xmlwire.AppendString(dst, "message", f.Message)
	return append(dst, "</Fault>"...), nil
}

// DecodeXML reads the fault from d.
//
// provlint:typed-faults
func (f *Fault) DecodeXML(d *xmlwire.Decoder) error {
	space, err := d.StartName("Fault")
	if err != nil {
		return err
	}
	f.XMLName = xml.Name{Space: space, Local: "Fault"}
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "code":
			return d.String(&f.Code)
		case "message":
			return d.String(&f.Message)
		}
		return d.Skip()
	})
}

// reflected adapts a payload without a codec of its own to wireEncoder
// through encoding/xml.
type reflected struct{ payload interface{} }

func (r reflected) AppendXML(dst []byte) ([]byte, error) {
	inner, err := xml.Marshal(r.payload)
	if err != nil {
		return nil, err
	}
	return append(dst, inner...), nil
}

// decodeDocument decodes the XML document data into v.
func decodeDocument(data []byte, v wireDecoder) error {
	d := xmlwire.NewDecoder(data)
	if err := d.Root(); err != nil {
		return err
	}
	return v.DecodeXML(d)
}

// buffers recycles the byte slices whole messages are read into and
// encoded into. A message is tens of kilobytes (a 200-record page is
// 160 KB), and a buffer of that size allocated per message is memory the
// process has to take from the system afresh whenever the heap is short
// of free spans — page faults whose cost lands on whichever request
// happens to be running. With the buffers reused a message's cost is the
// same whatever state the heap is in.
var buffers = sync.Pool{New: func() any { return new([]byte) }}

// maxPooled bounds the buffers the pool keeps; a larger one is left to
// the collector.
const maxPooled = 1 << 20

// getBuffer takes a buffer from the pool; the caller appends to (*p)[:0]
// and hands the result back with putBuffer once nothing refers to it.
func getBuffer() *[]byte { return buffers.Get().(*[]byte) }

// putBuffer returns p to the pool, keeping data — what the caller's
// appends grew (*p)[:0] into — as its buffer when that is the larger.
func putBuffer(p *[]byte, data []byte) {
	if cap(data) > cap(*p) && cap(data) <= maxPooled {
		*p = data[:0]
	}
	buffers.Put(p)
}

// appendEnvelope appends the envelope of payload under action to dst:
// header and payload written in one pass.
func appendEnvelope(dst []byte, action string, payload interface{}) ([]byte, error) {
	enc, ok := payload.(wireEncoder)
	if !ok {
		enc = reflected{payload}
	}
	dst = xmlwire.AppendEscaped(append(dst, "<Envelope><Header><action>"...), action)
	dst = ids.New().AppendXML(append(dst, "</action>"...), "messageId")
	dst, err := enc.AppendXML(append(dst, "</Header><Body>"...))
	if err != nil {
		return nil, fmt.Errorf("soap: marshalling %s payload: %w", action, err)
	}
	return append(dst, "</Body></Envelope>"...), nil
}

// Marshal wraps an XML-marshallable payload in an envelope. The message
// is built in a reused buffer and leaves as one exact copy.
func Marshal(action string, payload interface{}) ([]byte, error) {
	buf := getBuffer()
	data, err := appendEnvelope((*buf)[:0], action, payload)
	defer putBuffer(buf, data)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(data), nil
}

// Unmarshal parses an envelope, returning its action and raw body. It
// is ReadEnvelope's walk with every Body captured rather than decoded:
// the whole envelope is checked for well-formedness, and the body's
// bytes — the last Body's, when there are several — are located, not
// decoded. Endpoint.Post and the server read with ReadEnvelope; this
// stays for callers that want the body's bytes.
//
// provlint:typed-faults
func Unmarshal(data []byte) (action string, body []byte, err error) {
	m := &Message{data: data, capture: true}
	if err := m.open(); err != nil {
		return "", nil, err
	}
	return m.action, m.body, nil
}

// Message is an envelope read in one pass. ReadEnvelope reads it up to
// its payload — the header first, as every encoder writes it and SOAP
// 1.1 §4.2 requires — and Decode reads the payload where it stands,
// then the rest of the envelope, so no byte is tokenised twice. A Body
// that comes before the action header is captured as it is passed and
// decoded from its bytes, as DecodeBody does; after a Body decoded in
// place, a second Body or a Header that changes the action is refused
// as xmlwire.ErrUnsupported. The message id is checked and dropped —
// nothing reads it yet.
type Message struct {
	data    []byte
	d       *xmlwire.Decoder
	action  string
	capture bool // capture every Body: Unmarshal's walk
	// body holds the captured Body's bytes.
	body []byte
	// stopped is set once the walk has stopped at a Body it leaves to
	// Decode, and pending while that Body is unread.
	stopped, pending bool
	// err is the first error reading the message met: it sticks.
	err error
}

// ReadEnvelope reads the envelope in data up to its payload and returns
// the message, whose action is known. The message reads data, which
// must stay unchanged until it has been decoded.
//
// provlint:typed-faults
func ReadEnvelope(data []byte) (*Message, error) {
	m := &Message{data: data}
	if err := m.open(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Message) open() error {
	m.d = xmlwire.NewDecoder(m.data)
	err := m.d.Root()
	if err == nil {
		_, err = m.d.StartName("Envelope")
	}
	if err == nil {
		err = m.walk()
	}
	if err == nil && m.action == "" {
		err = errors.New("missing action header")
	}
	if err != nil {
		m.err = fmt.Errorf("%w: %w", ErrNotEnvelope, err)
	}
	return m.err
}

// unsupported is the refusal of a well-formed envelope the one-pass
// reader cannot follow.
func unsupported(what string) error {
	return fmt.Errorf("%w: %s after the Body read in place", xmlwire.ErrUnsupported, what)
}

// walk reads the Envelope's children on from the decoder's position. It
// returns at the Envelope's end tag or, unless capturing, at the first
// Body the action header precedes, which it leaves to Decode.
func (m *Message) walk() error {
	d := m.d
	for {
		name, ok, err := d.Next()
		if err != nil || !ok {
			return err
		}
		switch string(name) {
		case "Header":
			action := m.action
			if err := d.Children(m.headerField); err != nil {
				return err
			}
			if m.stopped && m.action != action {
				return unsupported("a Header changing the action")
			}
		case "Body":
			switch {
			case m.stopped:
				return unsupported("a second Body")
			case m.capture || m.action == "":
				if m.body, err = d.InnerXML(); err != nil {
					return err
				}
			default:
				m.stopped, m.pending = true, true
				return nil
			}
		default:
			if err := d.Skip(); err != nil {
				return err
			}
		}
	}
}

func (m *Message) headerField(name []byte) error {
	switch string(name) {
	case "action":
		return m.d.String(&m.action)
	case "messageId":
		text, err := m.d.Text()
		if err != nil {
			return err
		}
		var id ids.ID
		return id.UnmarshalText(text)
	}
	return m.d.Skip()
}

// Decode reads the message's payload into v — by its own decoder where
// it has one, by encoding/xml otherwise — and then the rest of the
// envelope: a nil error means the whole message is well formed. A Fault
// payload is returned as the error instead, as DecodeBody returns it;
// with v nil, Decode only looks for one. A payload decoded in place is
// decoded once.
//
// provlint:typed-faults
func (m *Message) Decode(v interface{}) error {
	if m.err == nil {
		m.err = m.decode(v)
	}
	return m.err
}

func (m *Message) decode(v interface{}) error {
	if !m.stopped { // the Body was captured, or there is none
		if v == nil {
			return bodyFault(m.body)
		}
		return DecodeBody(m.body, v)
	}
	if !m.pending {
		return errors.New("soap: message body already read")
	}
	m.pending = false
	d := m.d
	dec, byHand := v.(wireDecoder)
	if v != nil && !byHand {
		body, err := d.InnerXML()
		if err == nil {
			err = m.rest(false)
		}
		if err != nil {
			return err
		}
		return DecodeBody(body, v)
	}
	// The payload is read as DecodeBody reads it from its own bytes:
	// names resolve without the envelope's namespace declarations, and a
	// body that starts <Fault is tried as a fault first.
	d.Fragment()
	start := d.Offset()
	name, ok, err := d.Next()
	switch {
	case err != nil:
	case !ok: // an empty Body
		if v != nil {
			err = io.EOF
		}
	case string(name) == "Fault" && faultFirst(m.data[start:]):
		f := new(Fault)
		if err := f.DecodeXML(d); err != nil {
			return fmt.Errorf("soap: decoding fault: %w", err)
		}
		if err := m.rest(true); err != nil {
			return err
		}
		return f
	case v == nil:
		err = d.Skip()
	default:
		err = dec.DecodeXML(d)
	}
	if err != nil {
		return fmt.Errorf("soap: decoding body: %w", err)
	}
	return m.rest(ok)
}

// rest reads the envelope on from the payload read in place: the rest
// of the Body, when inBody, and what follows it.
func (m *Message) rest(inBody bool) error {
	var err error
	if inBody {
		err = m.d.Skip()
	}
	if err == nil {
		err = m.walk()
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrNotEnvelope, err)
	}
	return nil
}

// finish reads what Decode has left of the envelope — all of it after
// the header when nothing decoded the payload — and returns the error
// reading the message met, Decode's included.
func (m *Message) finish() error {
	if m.err == nil && m.pending {
		m.pending = false
		m.err = m.rest(true)
	}
	return m.err
}

// DecodeBody parses an envelope body into v. If the body is a Fault it
// is returned as the error instead. A body is decoded by the
// hand-written decoder for the payloads that have one, by encoding/xml
// for the rest. It decodes a body Unmarshal located, and is what
// Message.Decode does with a Body it captured — one ahead of the
// header, or the payload of a message without a decoder of its own.
//
// provlint:typed-faults
func DecodeBody(body []byte, v interface{}) error {
	if err := bodyFault(body); err != nil {
		return err
	}
	var err error
	if dec, ok := v.(wireDecoder); ok {
		err = decodeDocument(body, dec)
	} else {
		err = xml.Unmarshal(body, v)
	}
	if err != nil {
		return fmt.Errorf("soap: decoding body: %w", err)
	}
	return nil
}

// bodyFault returns the error a body that starts like a Fault stands
// for: the *Fault it decodes to, or — for a Fault written with a
// construct the decoder refuses (xmlwire.ErrUnsupported) — that refusal,
// so that a peer's fault is never taken for a success or for another
// message. Any other body is nil, a malformed one that starts <Fault
// included: that is not a fault.
func bodyFault(body []byte) error {
	if !faultFirst(body) {
		return nil
	}
	f := new(Fault)
	switch err := decodeDocument(bytes.TrimSpace(body), f); {
	case err == nil:
		return f
	case errors.Is(err, xmlwire.ErrUnsupported):
		return fmt.Errorf("soap: decoding fault: %w", err)
	}
	return nil
}

// faultFirst reports whether the body's first bytes after white space
// are "<Fault": the bodies tried as a Fault.
func faultFirst(body []byte) bool {
	return bytes.HasPrefix(bytes.TrimLeftFunc(body, unicode.IsSpace), []byte("<Fault"))
}

// AsFault reports whether the body is a Fault, returning it if so. A
// body that starts <Fault and does not decode is not one.
func AsFault(body []byte) (*Fault, bool) {
	f, ok := bodyFault(body).(*Fault)
	return f, ok
}

// Handler processes one message and returns the reply payload (to be
// XML-marshalled) or an error. Returning a *Fault preserves its code;
// other errors become FaultInternal.
type Handler interface {
	// Actions lists the action URIs this handler accepts.
	Actions() []string
	// Handle processes a message with a matching action. The envelope
	// has been read up to its payload; body.Decode reads the payload and
	// then checks the rest of the envelope, so a handler that acts on a
	// request decodes it first and acts only on a nil error. A handler
	// that needs no payload may leave it: the translator reads the rest
	// after Handle returns, and answers a malformed envelope with a
	// bad-request fault whatever Handle returned. body is valid until
	// Handle returns.
	Handle(action string, body *Message) (reply interface{}, err error)
}

// HTTPHandler adapts a set of Handlers to HTTP — this is the
// message-translator layer of the PReServ design (Figure 3): it strips
// the HTTP and envelope headers and passes the body to the plug-in
// registered for the action. Server runs it on each connection's own
// loop; ServeHTTP runs it under net/http.
type HTTPHandler struct {
	byAction map[string]Handler
}

// NewHTTPHandler builds the translator from the given plug-ins.
// Registering two handlers for one action panics: that is a static
// wiring error.
func NewHTTPHandler(handlers ...Handler) *HTTPHandler {
	h := &HTTPHandler{byAction: make(map[string]Handler)}
	for _, handler := range handlers {
		for _, action := range handler.Actions() {
			if _, dup := h.byAction[action]; dup {
				panic("soap: duplicate handler for action " + action)
			}
			h.byAction[action] = handler
		}
	}
	return h
}

// ServeHTTP implements http.Handler: the translator under net/http.
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "envelope messages must be POSTed", http.StatusMethodNotAllowed)
		return
	}
	in, out := getBuffer(), getBuffer()
	data, err := readMessage(r.Body, r.ContentLength, (*in)[:0])
	reply := h.answer(data, err, (*out)[:0])
	w.Header()["Content-Type"] = contentType
	w.Write(reply)
	putBuffer(in, data)
	putBuffer(out, reply)
}

// answer appends to out the reply to the request message data, or to
// readErr, the error reading it, and returns it: the handler's reply
// envelope, or a fault's. Faults travel as 200-level envelope replies,
// as in SOAP 1.1 over HTTP POST bindings; transport-level errors use
// HTTP codes. The reply may hold bytes of data, which the caller keeps
// until the reply is written.
func (h *HTTPHandler) answer(data []byte, readErr error, out []byte) []byte {
	fault := func(code, msg string) []byte {
		reply, _ := appendEnvelope(out, "fault", &Fault{Code: code, Message: msg}) // a Fault always encodes
		return reply
	}
	if readErr == errMessageTooLarge {
		return fault(FaultBadRequest, readErr.Error())
	}
	if readErr != nil {
		return fault(FaultBadRequest, "reading request: "+readErr.Error())
	}
	msg, err := ReadEnvelope(data)
	if err != nil {
		return fault(FaultBadRequest, err.Error())
	}
	action := msg.action
	handler, ok := h.byAction[action]
	if !ok {
		if err := msg.finish(); err != nil {
			return fault(FaultBadRequest, err.Error())
		}
		return fault(FaultBadAction, "no handler for action "+action)
	}
	reply, err := handler.Handle(action, msg)
	// A handler that did not decode (sessions, count) left the envelope
	// unread. One that did was told by Decode of anything wrong with it,
	// and its answer stands unless it went on as if nothing were.
	undecoded := msg.pending
	if ferr := msg.finish(); ferr != nil && (undecoded || err == nil) {
		return fault(FaultBadRequest, ferr.Error())
	}
	if err != nil {
		var f *Fault
		if errors.As(err, &f) {
			return fault(f.Code, f.Message)
		}
		return fault(FaultInternal, err.Error())
	}
	env, err := appendEnvelope(out, action+"-response", reply)
	if err != nil {
		return fault(FaultInternal, err.Error())
	}
	return env
}

// errMessageTooLarge is readMessage's refusal; callers word it for
// their side of the exchange.
var errMessageTooLarge = errors.New("message exceeds size limit")

// maxPresize caps the buffer readMessage allocates on the strength of a
// declared length alone: enough for a batch message in one piece, too
// little for a peer to pin memory with a header.
const maxPresize = 1 << 20

// readMessage reads a whole message into buf[:0], growing it as needed,
// and returns what it read — on an error too, so the caller can recycle
// the buffer. A message longer than MaxMessageBytes is refused with
// errMessageTooLarge: from its declared contentLength (negative when
// unknown) before reading anything, else as soon as that many bytes have
// arrived.
func readMessage(r io.Reader, contentLength int64, buf []byte) ([]byte, error) {
	data := buf[:0]
	if contentLength > MaxMessageBytes {
		return data, errMessageTooLarge
	}
	// One byte over the declared length, so the read that finds EOF
	// needs no regrowth.
	if size := int(min(contentLength, maxPresize)) + 1; size > cap(data) {
		data = make([]byte, 0, size)
	} else if cap(data) == 0 {
		data = make([]byte, 0, bytes.MinRead)
	}
	for {
		n, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if len(data) > MaxMessageBytes {
			return data, errMessageTooLarge
		}
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return data, err
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// maxEchoed bounds how much of a non-200 reply's body Endpoint.Post
// quotes in its error: enough to recognise a proxy's error page, not
// the page itself in every log line the error reaches.
const maxEchoed = 512

// excerpt returns body trimmed of surrounding space and, when longer
// than maxEchoed bytes, cut there on a rune boundary and marked with an
// ellipsis.
func excerpt(body []byte) string {
	body = bytes.TrimSpace(body)
	if len(body) <= maxEchoed {
		return string(body)
	}
	cut := maxEchoed
	for cut > 0 && !utf8.RuneStart(body[cut]) {
		cut--
	}
	return string(body[:cut]) + "…"
}
