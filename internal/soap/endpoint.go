package soap

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// ErrBadReply is returned by Endpoint.Post for an HTTP reply it cannot
// frame: a malformed status line or Content-Length, or a transfer
// coding other than chunked.
var ErrBadReply = errors.New("soap: malformed HTTP reply")

// The idle pool's bounds: net/http's defaults.
const (
	maxIdlePerHost = 2
	maxIdle        = 100
	maxIdleAge     = 90 * time.Second
)

// Endpoint posts envelope messages to one URL. Over plain http it does
// the whole HTTP/1.1 exchange on the caller's goroutine, on a
// connection from a process-wide idle pool. It posts through the
// net/http client it was built with only where that client would do
// more than plain HTTP/1.1 to the URL's host: a URL that is not
// http:// or carries user info, a Transport that is not an
// *http.Transport, or one whose Proxy picks a proxy for the URL.
type Endpoint struct {
	url     string
	hc      *http.Client // non-nil: every message goes through net/http
	addr    string       // host:port, the pool's key
	head    []byte       // the request's first bytes, up to the Content-Length value
	timeout time.Duration
}

// NewEndpoint returns the endpoint for url. hc's Timeout bounds each
// exchange (zero: no bound); a nil hc is http.DefaultClient.
func NewEndpoint(rawURL string, hc *http.Client) *Endpoint {
	if hc == nil {
		hc = http.DefaultClient
	}
	e := &Endpoint{url: rawURL, hc: hc, timeout: hc.Timeout}
	t, ok := hc.Transport.(*http.Transport)
	if hc.Transport == nil {
		t, ok = http.DefaultTransport.(*http.Transport)
	}
	u, err := url.Parse(rawURL)
	if !ok || err != nil || u.Scheme != "http" || u.Host == "" || u.User != nil {
		return e
	}
	if t.Proxy != nil {
		if proxy, err := t.Proxy(&http.Request{URL: u}); err != nil || proxy != nil {
			return e
		}
	}
	e.hc, e.addr = nil, net.JoinHostPort(u.Hostname(), cmp.Or(u.Port(), "80"))
	e.head = fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: %s\r\nUser-Agent: Go-http-client/1.1\r\nContent-Type: %s\r\nContent-Length: ",
		u.RequestURI(), u.Host, ContentType)
	return e
}

// URL returns the endpoint's URL.
func (e *Endpoint) URL() string { return e.url }

// Post sends payload under action and decodes the reply body into reply
// (nil discards it). Fault replies are returned as *Fault errors; a
// reply other than 200 is an error quoting its status and the start of
// its body, and redirects are not followed.
func (e *Endpoint) Post(action string, payload, reply interface{}) error {
	if e.hc != nil {
		return e.postHTTP(action, payload, reply)
	}
	// The envelope is encoded behind room for the header, which is
	// written in front of it once its length is known: the request
	// leaves in one write, from the pooled buffer.
	room := len(e.head) + 24
	out := getBuffer()
	req := *out
	if cap(req) < room {
		req = make([]byte, room, 4096)
	}
	req, err := appendEnvelope(req[:room], action, payload)
	defer putBuffer(out, req)
	if err != nil {
		return err
	}
	var n [24]byte
	length := append(strconv.AppendInt(n[:0], int64(len(req)-room), 10), "\r\n\r\n"...)
	start := room - len(length) - len(e.head)
	copy(req[start:], e.head)
	copy(req[room-len(length):], length)
	in := getBuffer()
	data, status, err := e.exchange(req[start:], (*in)[:0])
	defer putBuffer(in, data)
	return decodeReply(action, status, data, err, reply)
}

// postHTTP is Post through net/http. The envelope is a copy of its own:
// a RoundTripper may read a request body after RoundTrip returns.
func (e *Endpoint) postHTTP(action string, payload, reply interface{}) error {
	data, err := Marshal(action, payload)
	if err != nil {
		return err
	}
	resp, err := e.hc.Post(e.url, ContentType, bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("soap: posting %s: %w", action, err)
	}
	defer resp.Body.Close()
	buf := getBuffer()
	respData, err := readMessage(resp.Body, resp.ContentLength, (*buf)[:0])
	defer putBuffer(buf, respData)
	return decodeReply(action, resp.StatusCode, respData, err, reply)
}

// decodeReply is Post's result from the reply read whole, or from the
// error reading it. Decoded values live in the decoder's arena, never
// in data, so data may be recycled once this returns.
func decodeReply(action string, status int, data []byte, err error, reply interface{}) error {
	if err == errMessageTooLarge {
		return fmt.Errorf("%w (%s)", ErrReplyTooLarge, action)
	}
	if err != nil {
		return fmt.Errorf("soap: posting %s: %w", action, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("soap: %s returned HTTP %d: %s", action, status, excerpt(data))
	}
	msg, err := ReadEnvelope(data)
	if err != nil {
		return err
	}
	return msg.Decode(reply)
}

// conn is one HTTP/1.1 connection.
type conn struct {
	net.Conn
	br     *bufio.Reader
	addr   string
	idleAt time.Time
	body   io.LimitedReader // the reply's body, when its length is declared
}

// exchange sends req and reads the reply's body into buf[:0]. A server
// may close a connection while it lies idle; a call on it then fails
// before any byte of the reply arrives, and only then is req sent
// again, once, on a new connection. That is safe because every PReP
// and registry action is idempotent, should the server have acted on
// the first send after all.
func (e *Endpoint) exchange(req, buf []byte) ([]byte, int, error) {
	var deadline time.Time
	if e.timeout > 0 {
		deadline = time.Now().Add(e.timeout)
	}
	c := idle.take(e.addr)
	for reused := c != nil; ; reused = false {
		if c == nil {
			d := net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second, Deadline: deadline}
			nc, err := d.Dial("tcp", e.addr)
			if err != nil {
				return buf, 0, err
			}
			c = &conn{Conn: nc, br: bufio.NewReader(nc), addr: e.addr}
		}
		err := c.SetDeadline(deadline)
		if err == nil {
			_, err = c.Write(req)
		}
		if err == nil {
			_, err = c.br.Peek(1)
		}
		if err == nil {
			break
		}
		c.Close()
		if !reused || !(errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)) {
			return buf, 0, err
		}
		c = nil
	}
	data, status, keep, err := c.readReply(buf)
	if err == nil && keep {
		idle.put(c)
	} else {
		c.Close()
	}
	return data, status, err
}

// readReply reads the reply, 1xx replies skipped, and its body into
// buf[:0]. keep reports whether the connection may carry another call.
func (c *conn) readReply(buf []byte) (data []byte, status int, keep bool, err error) {
	var f framing
	for status < 200 {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return buf, 0, false, err
		}
		var code uint64
		if len(line) >= 13 && bytes.HasPrefix(line, []byte("HTTP/1.")) && line[8] == ' ' && bytes.IndexByte([]byte(" \r\n"), line[12]) >= 0 {
			code, err = strconv.ParseUint(string(line[9:12]), 10, 16)
		}
		if err != nil || code < 100 {
			return buf, 0, false, fmt.Errorf("%w: status line %q", ErrBadReply, line)
		}
		status, f = int(code), framing{bad: ErrBadReply, length: -1, closing: line[7] == '0'} // HTTP/1.0
		if err := headers(c.br, f.header); err != nil {
			return buf, status, false, err
		}
	}
	switch {
	case status == http.StatusNoContent || status == http.StatusNotModified:
		data = buf[:0]
	case f.chunked || f.length >= 0:
		data, err = c.readBody(&f, buf)
	default: // the connection's end ends the body
		data, err = readMessage(c.br, -1, buf)
		f.closing = true
	}
	return data, status, err == nil && !f.closing && c.br.Buffered() == 0, err
}

// framing is what a message's headers say of its body and its
// connection. A header it cannot frame the message by is an error
// wrapping bad: ErrBadReply or errBadRequest.
type framing struct {
	bad              error
	length           int64 // -1 when not declared
	chunked, closing bool
	expect           bool // Expect: 100-continue
}

// header takes in one header line's name and value.
func (f *framing) header(name, value []byte) error {
	switch {
	case bytes.EqualFold(name, []byte("Content-Length")):
		n, err := strconv.ParseUint(string(value), 10, 63)
		if err != nil || (f.length >= 0 && int64(n) != f.length) {
			return fmt.Errorf("%w: Content-Length %q", f.bad, value)
		}
		f.length = int64(n)
	case bytes.EqualFold(name, []byte("Transfer-Encoding")):
		if f.chunked || !bytes.EqualFold(value, []byte("chunked")) {
			return fmt.Errorf("%w: Transfer-Encoding %q", f.bad, value)
		}
		f.chunked = true
	case bytes.EqualFold(name, []byte("Connection")):
		// A close missed in a list leaves the connection for the peer
		// to end.
		f.closing = f.closing || bytes.EqualFold(value, []byte("close"))
	case bytes.EqualFold(name, []byte("Expect")):
		f.expect = bytes.EqualFold(value, []byte("100-continue"))
	}
	return nil
}

// readBody reads the body f frames — chunked, else f.length bytes —
// into buf[:0]. A chunked body that cannot be read as one is an error
// wrapping f.bad.
func (c *conn) readBody(f *framing, buf []byte) ([]byte, error) {
	if !f.chunked {
		c.body = io.LimitedReader{R: c.br, N: f.length}
		data, err := readMessage(&c.body, f.length, buf)
		if err == nil && c.body.N > 0 {
			err = io.ErrUnexpectedEOF
		}
		return data, err
	}
	data, err := readMessage(httputil.NewChunkedReader(c.br), -1, buf)
	if err == nil {
		err = headers(c.br, func(_, _ []byte) error { return nil }) // the trailer
	}
	var ne net.Error
	if err != nil && err != errMessageTooLarge && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.As(err, &ne) {
		err = fmt.Errorf("%w: chunked body: %v", f.bad, err)
	}
	return data, err
}

// headers reads header lines up to the blank line that ends them,
// handing each line's name and trimmed value to fn. A line longer than
// br's buffer is bufio.ErrBufferFull.
func headers(br *bufio.Reader, fn func(name, value []byte) error) error {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if line = bytes.TrimRight(line, "\r\n"); len(line) == 0 {
			return nil
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		if err := fn(name, bytes.TrimSpace(value)); err != nil {
			return err
		}
	}
}

// pool holds the idle connections of every Endpoint in the process,
// oldest first. A connection idle for maxIdleAge is closed, not reused,
// when a call next looks: nothing runs in the background.
type pool struct {
	mu    sync.Mutex
	conns []*conn
}

var idle pool

// take returns the newest idle connection to addr, or nil.
func (p *pool) take(addr string) *conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.conns) > 0 && time.Since(p.conns[0].idleAt) >= maxIdleAge {
		p.conns[0].Close()
		p.conns = slices.Delete(p.conns, 0, 1)
	}
	for i := len(p.conns) - 1; i >= 0; i-- {
		if c := p.conns[i]; c.addr == addr {
			p.conns = slices.Delete(p.conns, i, i+1)
			return c
		}
	}
	return nil
}

// put keeps c for reuse unless its address has maxIdlePerHost idle
// already; at maxIdle, the oldest idle connection closes.
func (p *pool) put(c *conn) {
	c.idleAt = time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	same := 0
	for _, o := range p.conns {
		if o.addr == c.addr {
			same++
		}
	}
	if same >= maxIdlePerHost {
		c.Close()
		return
	}
	if len(p.conns) >= maxIdle {
		p.conns[0].Close()
		p.conns = slices.Delete(p.conns, 0, 1)
	}
	p.conns = append(p.conns, c)
}
