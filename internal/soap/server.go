package soap

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// errBadRequest is the refusal of a request the loop cannot frame. A
// malformed header gets 400 and a close; a malformed chunked body, the
// bad-request fault and a close.
var errBadRequest = errors.New("soap: malformed HTTP request")

const (
	// DefaultDrainTimeout is how long Server.Close waits for requests in
	// flight before it cuts their connections.
	DefaultDrainTimeout = 5 * time.Second
	// headerTimeout bounds the reading of a request's line and headers,
	// from the accept for a connection's first request and from the
	// first byte for a later one, as http.Server's ReadHeaderTimeout.
	headerTimeout = 10 * time.Second
	// freshGrace is how long Close lets a connection that has not yet
	// delivered a request keep it open: ample to read a request already
	// in the socket, and well short of a drain.
	freshGrace = 100 * time.Millisecond
	// lingerTime bounds how long a connection ended with its request
	// unread is read and dropped before it closes.
	lingerTime = 500 * time.Millisecond
	// transferUnit is how many bytes of a request body or a reply each
	// header timeout past the first allows for: a floor rate of 256 KiB/s
	// at the 10 s header timeout.
	transferUnit = 2560 << 10
)

// A connection's state, as Close treats it.
const (
	connFresh  int32 = iota // no request yet: cut after freshGrace
	connActive              // a request's header is read: drained
	connIdle                // between requests: closed at once
)

// replyHead starts every reply the loop writes; the date, the length
// and, when the connection ends with the reply, Connection: close
// follow it. replyRoom is the room left for it in front of the reply's
// envelope.
const (
	replyHead       = "HTTP/1.1 200 OK\r\nContent-Type: " + ContentType + "\r\nDate: "
	replyRoom       = len(replyHead) + len(http.TimeFormat) + len("\r\nContent-Length: ") + 20 + len("\r\nConnection: close\r\n\r\n")
	continueReply   = "HTTP/1.1 100 Continue\r\n\r\n"
	badRequestReply = "HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n400 Bad Request"
)

// Server serves envelope messages over HTTP/1.1. Each connection has
// one loop, on its own goroutine, which reads every POST its handler
// routes to an *HTTPHandler, answers it, and writes the reply in one
// write from pooled buffers. A connection whose next request is anything
// else is handed whole, with the bytes already read, to an http.Server
// over the same handler (the connection sniffing of
// github.com/soheilhy/cmux).
type Server struct {
	// URL is the server's address, e.g. "http://127.0.0.1:8734".
	URL string
	// DrainTimeout bounds how long Close waits for requests in flight;
	// zero means DefaultDrainTimeout.
	DrainTimeout time.Duration

	ln      net.Listener
	h       http.Handler
	timeout time.Duration // headerTimeout
	hs      *http.Server
	handoff handoff
	served  chan struct{}  // closed once hs.Serve has returned
	loops   sync.WaitGroup // the accept loop and the connection loops
	closing atomic.Bool
	mu      sync.Mutex // guards conns and cut
	conns   map[*serverConn]struct{}
	cut     bool // the fresh connections were cut: cut any accepted later
}

// Serve starts serving h on ln. h is an *HTTPHandler, or an
// *http.ServeMux the loop asks where each POST goes; the loop serves a
// POST routed to an *HTTPHandler itself, and net/http serves the rest
// with h.
func Serve(ln net.Listener, h http.Handler) *Server { return serve(ln, h, headerTimeout) }

func serve(ln net.Listener, h http.Handler, timeout time.Duration) *Server {
	s := &Server{
		URL:     "http://" + ln.Addr().String(),
		ln:      ln,
		h:       h,
		timeout: timeout,
		hs:      &http.Server{Handler: h, ReadHeaderTimeout: timeout},
		handoff: handoff{Listener: ln, conns: make(chan net.Conn), done: make(chan struct{})},
		served:  make(chan struct{}),
		conns:   make(map[*serverConn]struct{}),
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(&s.handoff) // ErrServerClosed is the normal shutdown signal
	}()
	s.loops.Add(1)
	go s.accept()
	return s
}

// Close stops the server gracefully. The listener closes at once, and
// so does every connection idle between requests; one that has not
// delivered a request within freshGrace is cut. Requests in flight, the
// loop's and net/http's, get up to DrainTimeout to be answered; then
// every connection left is cut, and the deadline returned as the error.
// Close returns once the accept loop and net/http's server have stopped.
func (s *Server) Close() error {
	timeout := s.DrainTimeout
	if timeout <= 0 {
		timeout = DefaultDrainTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	s.closing.Store(true)
	s.ln.Close()
	s.closeConns(connIdle)
	cut := time.AfterFunc(freshGrace, func() {
		s.mu.Lock()
		s.cut = true
		s.mu.Unlock()
		s.closeConns(connFresh)
	})
	defer cut.Stop()
	drained := make(chan struct{})
	go func() {
		s.loops.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
		err = s.hs.Shutdown(ctx)
	case <-ctx.Done():
		err = ctx.Err()
	}
	if err != nil {
		s.closeConns(-1)
		s.hs.Close()
	}
	<-s.served
	return err
}

// closeConns closes the connections in state, or all of them for -1.
func (s *Server) closeConns(state int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		if state < 0 || c.state.Load() == state {
			c.Close()
		}
	}
}

func (s *Server) accept() {
	defer s.loops.Done()
	for {
		nc, err := s.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		} else if err != nil { // out of descriptors, say: wait for some
			time.Sleep(5 * time.Millisecond)
			continue
		}
		c := &serverConn{conn: conn{Conn: nc, br: bufio.NewReader(nc)}}
		s.mu.Lock()
		if s.cut {
			nc.Close()
		} else {
			s.conns[c] = struct{}{}
			s.loops.Add(1)
			go s.serveConn(c)
		}
		s.mu.Unlock()
	}
}

// serverConn is a connection the loop serves.
type serverConn struct {
	conn
	state  atomic.Int32
	target string       // the last POST's request target
	route  *HTTPHandler // and where it goes; nil: to net/http
}

// Read reads what the loop's reader holds first, so that a connection
// handed to net/http loses no byte.
func (c *serverConn) Read(p []byte) (int, error) { return c.br.Read(p) }

// serveConn is c's loop. It serves requests until the connection ends
// or fails, or a request for net/http arrives; then c is handed off.
func (s *Server) serveConn(c *serverConn) {
	defer s.loops.Done()
	handed := false
	defer func() {
		if p := recover(); p != nil {
			buf := make([]byte, 64<<10)
			slog.Error("soap: handler panic", "remote", c.RemoteAddr(), "target", c.target,
				"panic", p, "stack", string(buf[:runtime.Stack(buf, false)]))
		}
		if !handed {
			s.forget(c)
			c.Close()
		}
	}()
	// A read or a write arms its own timer, and only its own, just
	// before it: the header and the body the read deadline, each write
	// the write deadline, so that no write runs under a deadline armed
	// for an earlier one.
	for {
		c.SetReadDeadline(time.Now().Add(s.timeout))
		h, f, err := s.readHead(c)
		if errors.Is(err, errBadRequest) {
			c.SetWriteDeadline(time.Now().Add(s.timeout))
			io.WriteString(c.Conn, badRequestReply)
			c.hangUp()
		}
		if err != nil {
			return
		}
		if h == nil {
			handed = true
			s.handOff(c)
			return
		}
		c.state.Store(connActive)
		// The body, and the 100 Continue before it, are bounded by the
		// declared length; a chunked body, by the most it may be.
		size := min(f.length, MaxMessageBytes)
		if f.chunked {
			size = MaxMessageBytes
		}
		c.SetReadDeadline(s.transferDeadline(size))
		if f.expect && f.length <= MaxMessageBytes {
			c.SetWriteDeadline(s.transferDeadline(size))
			io.WriteString(c.Conn, continueReply)
		}
		in, out, msg := getBuffer(), getBuffer(), getMessage(requests)
		data, readErr := c.readBody(&f, (*in)[:0])
		reply := *out
		if cap(reply) < replyRoom {
			reply = make([]byte, 0, 4096)
		}
		reply = h.answer(msg, data, readErr, reply[:replyRoom])
		closing := f.closing || readErr != nil || s.closing.Load()
		c.SetWriteDeadline(s.transferDeadline(int64(len(reply))))
		_, err = c.Write(reply[putHead(reply, closing):])
		putBuffer(in, data)
		putBuffer(out, reply)
		putMessage(requests, msg)
		if err == nil && readErr != nil {
			c.hangUp()
		}
		if err != nil || closing {
			return
		}
		// Close sets closing, then closes the idle connections: one of the
		// two sees the other.
		if c.state.Store(connIdle); s.closing.Load() {
			return
		}
		c.SetReadDeadline(time.Time{}) // the wait for the next request is unbounded
		if _, err := c.br.Peek(1); err != nil {
			return
		}
	}
}

// transferDeadline is when n bytes of a body or a reply must be through:
// one header timeout from now, and one more for every transferUnit bytes.
func (s *Server) transferDeadline(n int64) time.Time {
	return time.Now().Add(s.timeout + time.Duration(n)*(s.timeout/transferUnit))
}

// readHead reads a request's line and headers off c. A request for
// net/http — anything but a POST over HTTP/1.x that s.h routes to an
// *HTTPHandler — is left unread, and h is nil; so is one whose line is
// longer than c's buffer.
func (s *Server) readHead(c *serverConn) (h *HTTPHandler, f framing, err error) {
	var line []byte
	for i := -1; i < 0 && err == nil; i = bytes.IndexByte(line, '\n') {
		if _, err = c.br.Peek(len(line) + 1); err == nil {
			line, _ = c.br.Peek(c.br.Buffered())
		}
	}
	if err == bufio.ErrBufferFull {
		return nil, f, nil
	} else if err != nil {
		return nil, f, err
	}
	line = line[:bytes.IndexByte(line, '\n')+1]
	rest, post := bytes.CutPrefix(bytes.TrimRight(line, "\r\n"), []byte("POST "))
	target, proto, _ := bytes.Cut(rest, []byte(" "))
	if !post || len(target) == 0 || target[0] != '/' || (string(proto) != "HTTP/1.1" && string(proto) != "HTTP/1.0") {
		return nil, f, nil
	}
	if h = s.routeOf(c, target); h == nil {
		return nil, f, nil
	}
	c.br.Discard(len(line))
	f = framing{bad: errBadRequest, length: -1, closing: proto[7] == '0'}
	switch err = headers(c.br, f.header); {
	case err == bufio.ErrBufferFull:
		err = fmt.Errorf("%w: a header line over %d bytes", errBadRequest, c.br.Size())
	case err == nil && f.chunked && f.length >= 0:
		err = fmt.Errorf("%w: both Content-Length and Transfer-Encoding", errBadRequest)
	case err == nil && f.length < 0:
		f.length = 0 // a request declaring neither has no body
	}
	f.expect = f.expect && proto[7] == '1' // 100 Continue is never sent to HTTP/1.0
	return h, f, err
}

// routeOf returns the handler the loop serves a POST to target with, or
// nil where s.h sends it elsewhere. The answer for c's last target is
// kept.
func (s *Server) routeOf(c *serverConn, target []byte) *HTTPHandler {
	if string(target) == c.target {
		return c.route
	}
	c.target, c.route = string(target), nil
	switch h := s.h.(type) {
	case *HTTPHandler:
		c.route = h
	case *http.ServeMux:
		if u, err := url.ParseRequestURI(c.target); err == nil {
			found, _ := h.Handler(&http.Request{Method: http.MethodPost, URL: u})
			c.route, _ = found.(*HTTPHandler)
		}
	}
	return c.route
}

// forget drops c from the connections Close tracks.
func (s *Server) forget(c *serverConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// handOff hands c to net/http, or closes it once net/http has stopped.
func (s *Server) handOff(c *serverConn) {
	s.forget(c)
	c.SetDeadline(time.Time{})
	select {
	case s.handoff.conns <- c:
	case <-s.handoff.done:
		c.Close()
	}
}

// hangUp ends c once the reply to a request it left unread is on its
// way: the write side first, then, until the client closes its own or
// lingerTime passes, what it still sends is read and dropped. Closing
// with bytes unread resets a TCP connection, and the reset can overtake
// the reply.
func (c *serverConn) hangUp() {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
		c.SetReadDeadline(time.Now().Add(lingerTime))
		io.Copy(io.Discard, c.br)
	}
}

// putHead writes the reply's header into the room in front of its
// envelope, reply[replyRoom:], and returns the offset it starts at.
func putHead(reply []byte, closing bool) int {
	var b [replyRoom]byte
	h := time.Now().UTC().AppendFormat(append(b[:0], replyHead...), http.TimeFormat)
	h = strconv.AppendInt(append(h, "\r\nContent-Length: "...), int64(len(reply)-replyRoom), 10)
	if closing {
		h = append(h, "\r\nConnection: close"...)
	}
	h = append(h, "\r\n\r\n"...)
	return replyRoom - copy(reply[replyRoom-len(h):], h)
}

// handoff is the listener the http.Server accepts handed-off
// connections from; its address is the real listener's.
type handoff struct {
	net.Listener
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *handoff) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *handoff) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}
