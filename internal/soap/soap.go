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
	"unicode/utf8"

	"preserv/internal/ids"
	"preserv/internal/xmlwire"
)

// ContentType is the media type of envelope messages.
const ContentType = "text/xml; charset=utf-8"

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

// ErrReplyTooLarge is returned by Post when the reply exceeds
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

// Unmarshal parses an envelope, returning its action and raw body. The
// whole envelope is checked for well-formedness; the body's bytes are
// located, not decoded.
//
// provlint:typed-faults
func Unmarshal(data []byte) (action string, body []byte, err error) {
	env := envelope{}
	if err := decodeDocument(data, &env); err != nil {
		return "", nil, fmt.Errorf("%w: %w", ErrNotEnvelope, err)
	}
	if env.action == "" {
		return "", nil, fmt.Errorf("%w: missing action header", ErrNotEnvelope)
	}
	return env.action, env.body, nil
}

// envelope is what Unmarshal keeps of an Envelope: the action, and the
// Body's inner bytes as they stand in the message. The message id is
// checked and dropped — nothing reads it yet.
type envelope struct {
	action string
	body   []byte
}

func (e *envelope) DecodeXML(d *xmlwire.Decoder) error {
	if _, err := d.StartName("Envelope"); err != nil {
		return err
	}
	return d.Children(func(name []byte) (err error) {
		switch string(name) {
		case "Header":
			return d.Children(func(name []byte) error {
				switch string(name) {
				case "action":
					return d.String(&e.action)
				case "messageId":
					return d.Unmarshal(new(ids.ID))
				}
				return d.Skip()
			})
		case "Body":
			e.body, err = d.InnerXML()
			return err
		}
		return d.Skip()
	})
}

// DecodeBody parses an envelope body into v. If the body is a Fault it
// is returned as the error instead. It is the one place a body is
// decoded: by the hand-written decoder for the payloads that have one,
// by encoding/xml for the rest.
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
	trimmed := bytes.TrimSpace(body)
	if !bytes.HasPrefix(trimmed, []byte("<Fault")) {
		return nil
	}
	f := new(Fault)
	switch err := decodeDocument(trimmed, f); {
	case err == nil:
		return f
	case errors.Is(err, xmlwire.ErrUnsupported):
		return fmt.Errorf("soap: decoding fault: %w", err)
	}
	return nil
}

// AsFault reports whether the body is a Fault, returning it if so. A
// body that starts <Fault and does not decode is not one.
func AsFault(body []byte) (*Fault, bool) {
	f, ok := bodyFault(body).(*Fault)
	return f, ok
}

// Handler processes one decoded message and returns the reply payload
// (to be XML-marshalled) or an error. Returning a *Fault preserves its
// code; other errors become FaultInternal.
type Handler interface {
	// Actions lists the action URIs this handler accepts.
	Actions() []string
	// Handle processes the raw body of a message with a matching action.
	Handle(action string, body []byte) (reply interface{}, err error)
}

// HTTPHandler adapts a set of Handlers to net/http — this is the
// message-translator layer of the PReServ design (Figure 3): it strips
// the HTTP and envelope headers and passes the body to the plug-in
// registered for the action.
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

// ServeHTTP implements http.Handler.
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "envelope messages must be POSTed", http.StatusMethodNotAllowed)
		return
	}
	// The request's buffer is held until the reply is written: a handler
	// may answer with bytes of the body it was given.
	in := getBuffer()
	data, err := readMessage(r.Body, r.ContentLength, (*in)[:0])
	defer func() { putBuffer(in, data) }()
	if err == errMessageTooLarge {
		h.writeFault(w, FaultBadRequest, err.Error())
		return
	}
	if err != nil {
		h.writeFault(w, FaultBadRequest, "reading request: "+err.Error())
		return
	}
	action, body, err := Unmarshal(data)
	if err != nil {
		h.writeFault(w, FaultBadRequest, err.Error())
		return
	}
	handler, ok := h.byAction[action]
	if !ok {
		h.writeFault(w, FaultBadAction, "no handler for action "+action)
		return
	}
	reply, err := handler.Handle(action, body)
	if err != nil {
		var f *Fault
		if errors.As(err, &f) {
			h.writeFault(w, f.Code, f.Message)
		} else {
			h.writeFault(w, FaultInternal, err.Error())
		}
		return
	}
	out := getBuffer()
	respData, err := appendEnvelope((*out)[:0], action+"-response", reply)
	defer putBuffer(out, respData)
	if err != nil {
		h.writeFault(w, FaultInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", ContentType)
	w.Write(respData)
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

func (h *HTTPHandler) writeFault(w http.ResponseWriter, code, msg string) {
	data, err := Marshal("fault", &Fault{Code: code, Message: msg})
	if err != nil {
		http.Error(w, msg, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ContentType)
	// Faults still travel as 200-level envelope replies, as in SOAP 1.1
	// over HTTP POST bindings; transport-level errors use HTTP codes.
	w.Write(data)
}

// maxEchoed bounds how much of a non-200 reply's body Post quotes in its
// error: enough to recognise a proxy's error page, not the page itself
// in every log line the error reaches.
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

// Post sends a payload to url under the given action and decodes the
// reply body into reply (which may be nil to discard it). Fault replies
// are returned as *Fault errors.
func Post(client *http.Client, url, action string, payload, reply interface{}) error {
	data, err := Marshal(action, payload)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, ContentType, bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("soap: posting %s: %w", action, err)
	}
	defer resp.Body.Close()
	// Decoding copies what it keeps, so the reply's buffer goes back to the
	// pool when Post returns.
	buf := getBuffer()
	respData, err := readMessage(resp.Body, resp.ContentLength, (*buf)[:0])
	defer func() { putBuffer(buf, respData) }()
	if err == errMessageTooLarge {
		return fmt.Errorf("%w (%s)", ErrReplyTooLarge, action)
	}
	if err != nil {
		return fmt.Errorf("soap: reading reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("soap: %s returned HTTP %d: %s", action, resp.StatusCode, excerpt(respData))
	}
	_, body, err := Unmarshal(respData)
	if err != nil {
		return err
	}
	if reply == nil {
		return bodyFault(body)
	}
	return DecodeBody(body, reply)
}
