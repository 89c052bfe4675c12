package soap

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockHandler holds urn:test:block until release is closed, telling
// started once the first call arrives: the request in flight a drain
// waits for.
type blockHandler struct {
	once             *sync.Once
	started, release chan struct{}
}

func (blockHandler) Actions() []string { return []string{"urn:test:block"} }

func (b blockHandler) Handle(string, *Message) (interface{}, error) {
	b.once.Do(func() { close(b.started) })
	<-b.release
	return &echoPayload{Text: "drained"}, nil
}

// loopServer serves echoHandler and a blockHandler at "/" and a stand-in
// for /metrics on one mux, on the loop, with the given header timeout.
type loopServer struct {
	*Server
	addr             string
	started, release chan struct{}
	shutdown         sync.Once
}

func newLoopServer(t *testing.T, timeout time.Duration) *loopServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ls := &loopServer{addr: ln.Addr().String(), started: make(chan struct{}), release: make(chan struct{})}
	mux := http.NewServeMux()
	mux.Handle("/", NewHTTPHandler(echoHandler{}, blockHandler{once: new(sync.Once), started: ls.started, release: ls.release}))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "metrics "+r.Method)
	})
	ls.Server = serve(ln, mux, timeout)
	t.Cleanup(func() {
		ls.shutdown.Do(func() { close(ls.release) })
		if err := ls.close(5 * time.Second); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return ls
}

func (ls *loopServer) close(drain time.Duration) error {
	ls.DrainTimeout = drain
	return ls.Close()
}

func (ls *loopServer) dial(t *testing.T) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", ls.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c, bufio.NewReader(c)
}

// echoRequest is a POST of an echo of n to path, with the headers given
// and a Content-Length; proto is "1.1" or "1.0".
func echoRequest(t *testing.T, path, proto string, n int, headers ...string) string {
	t.Helper()
	body, err := Marshal("urn:test:echo", &echoPayload{Text: "x", N: n})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("POST %s HTTP/%s\r\nHost: store\r\n%sContent-Length: %d\r\n\r\n%s",
		path, proto, strings.Join(append(headers, ""), "\r\n"), len(body), body)
}

// readEcho reads a reply to an echo of n off br and returns it.
func readEcho(t *testing.T, br *bufio.Reader, n int) *http.Response {
	t.Helper()
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("reading the reply: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var reply echoPayload
	if err := decodeReply("urn:test:echo", resp.StatusCode, data, nil, &reply); err != nil || reply.N != n+1 {
		t.Fatalf("reply %+v, err %v; want N = %d", reply, err, n+1)
	}
	return resp
}

// readFault reads a reply off br that must be a fault with code.
func readFault(t *testing.T, br *bufio.Reader, code string) *http.Response {
	t.Helper()
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("reading the reply: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var f *Fault
	if err := decodeReply("urn:test:echo", resp.StatusCode, data, nil, nil); !errors.As(err, &f) || f.Code != code {
		t.Fatalf("reply error %v, want a %s fault", err, code)
	}
	return resp
}

// closed reports whether the server closed c after what br has read.
func closed(br *bufio.Reader) bool {
	_, err := br.ReadByte()
	return err != nil && !errors.Is(err, os.ErrDeadlineExceeded)
}

// net/http's client and Endpoint both talk to the loop, several calls
// to a connection, and its replies are never chunked.
func TestServerNetHTTPClient(t *testing.T) {
	ls := newLoopServer(t, headerTimeout)
	var dials atomic.Int32
	hc := &http.Client{Transport: &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return (&net.Dialer{}).DialContext(ctx, network, addr)
	}}}
	for n := 0; n < 3; n++ {
		body, _ := Marshal("urn:test:echo", &echoPayload{Text: strings.Repeat("big ", 1000), N: n})
		resp, err := hc.Post("http://"+ls.addr+"/", ContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var reply echoPayload
		if err := decodeReply("urn:test:echo", resp.StatusCode, data, nil, &reply); err != nil || reply.N != n+1 {
			t.Fatalf("call %d: reply %d, err %v", n, reply.N, err)
		}
		if resp.ContentLength != int64(len(data)) || len(resp.TransferEncoding) > 0 || resp.Header.Get("Date") == "" {
			t.Errorf("call %d: length %d, coding %v, date %q", n, resp.ContentLength, resp.TransferEncoding, resp.Header.Get("Date"))
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("three calls took %d connections, want 1", n)
	}
	echoText(t, NewEndpoint("http://"+ls.addr+"/", nil), "endpoint")
}

// An HTTP/1.0 request is answered, and its connection closed.
func TestServerHTTP10(t *testing.T) {
	ls := newLoopServer(t, headerTimeout)
	c, br := ls.dial(t)
	io.WriteString(c, echoRequest(t, "/", "1.0", 4))
	if resp := readEcho(t, br, 4); !resp.Close {
		t.Error("the reply to HTTP/1.0 does not say Connection: close")
	}
	if !closed(br) {
		t.Error("the connection stayed open after an HTTP/1.0 request")
	}
}

// Two requests in one write get two replies, in order; a request with
// Connection: close is the connection's last.
func TestServerPipelined(t *testing.T) {
	ls := newLoopServer(t, headerTimeout)
	c, br := ls.dial(t)
	io.WriteString(c, echoRequest(t, "/", "1.1", 1)+echoRequest(t, "/", "1.1", 5, "Connection: close"))
	readEcho(t, br, 1)
	if resp := readEcho(t, br, 5); !resp.Close {
		t.Error("the reply to Connection: close does not say it")
	}
	if !closed(br) {
		t.Error("the connection stayed open after Connection: close")
	}
}

// A chunked request body is read whole, trailer included, and the
// connection carries the next request.
func TestServerChunkedRequest(t *testing.T) {
	ls := newLoopServer(t, headerTimeout)
	c, br := ls.dial(t)
	body, _ := Marshal("urn:test:echo", &echoPayload{Text: strings.Repeat("chunk ", 3000), N: 7})
	var req bytes.Buffer
	req.WriteString("POST / HTTP/1.1\r\nHost: store\r\nTransfer-Encoding: chunked\r\n\r\n")
	w := httputil.NewChunkedWriter(&req)
	for b := body; len(b) > 0; b = b[min(len(b), 1000):] {
		w.Write(b[:min(len(b), 1000)])
	}
	w.Close()
	req.WriteString("Trailer-Field: x\r\n\r\n")
	c.Write(req.Bytes())
	readEcho(t, br, 7)
	io.WriteString(c, echoRequest(t, "/", "1.1", 8))
	readEcho(t, br, 8)
}

// Expect: 100-continue is answered before the body is read.
func TestServerExpectContinue(t *testing.T) {
	ls := newLoopServer(t, headerTimeout)
	c, br := ls.dial(t)
	req := echoRequest(t, "/", "1.1", 2, "Expect: 100-continue")
	head, body, _ := strings.Cut(req, "\r\n\r\n")
	io.WriteString(c, head+"\r\n\r\n")
	line, err := br.ReadString('\n')
	if err != nil || line != "HTTP/1.1 100 Continue\r\n" {
		t.Fatalf("interim reply %q, err %v", line, err)
	}
	if blank, _ := br.ReadString('\n'); blank != "\r\n" {
		t.Fatalf("interim reply goes on with %q", blank)
	}
	io.WriteString(c, body)
	readEcho(t, br, 2)
}

// A client that stalls mid-header is cut at the header deadline.
func TestServerHeaderDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	ls := newLoopServer(t, timeout)
	c, br := ls.dial(t)
	io.WriteString(c, echoRequest(t, "/", "1.1", 0))
	readEcho(t, br, 0) // the deadline runs from a later request's first byte
	time.Sleep(2 * timeout)
	start := time.Now()
	io.WriteString(c, "POST / HTTP/1.1\r\nHost: sto")
	if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("a stalled header read %v, want the server's close", err)
	}
	if d := time.Since(start); d < timeout || d > 20*timeout {
		t.Errorf("a stalled header was cut after %v, want about %v", d, timeout)
	}
}

// A message over MaxMessageBytes, declared or chunked, gets the
// bad-request fault and a close.
func TestServerOversizedBody(t *testing.T) {
	ls := newLoopServer(t, headerTimeout)
	c, br := ls.dial(t)
	fmt.Fprintf(c, "POST / HTTP/1.1\r\nHost: store\r\nExpect: 100-continue\r\nContent-Length: %d\r\n\r\n", MaxMessageBytes+1)
	if resp := readFault(t, br, FaultBadRequest); !resp.Close {
		t.Error("the fault does not say Connection: close")
	}
	if !closed(br) {
		t.Error("the connection stayed open after an oversized declared body")
	}

	c, br = ls.dial(t)
	go func() {
		io.WriteString(c, "POST / HTTP/1.1\r\nHost: store\r\nTransfer-Encoding: chunked\r\n\r\n")
		w := httputil.NewChunkedWriter(c)
		chunk := bytes.Repeat([]byte("A"), 1<<20)
		for i := 0; i <= MaxMessageBytes>>20; i++ {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
		w.Close()
		io.WriteString(c, "\r\n")
	}()
	readFault(t, br, FaultBadRequest)
	if !closed(br) {
		t.Error("the connection stayed open after an oversized chunked body")
	}
}

// A request the loop cannot frame gets 400 and a close.
func TestServerBadFraming(t *testing.T) {
	ls := newLoopServer(t, headerTimeout)
	for _, head := range []string{
		"Content-Length: 1e3",
		"Content-Length: -1",
		"Content-Length: 5\r\nContent-Length: 6",
		"Transfer-Encoding: gzip",
		"Transfer-Encoding: gzip, chunked",
		"Content-Length: 5\r\nTransfer-Encoding: chunked",
		"X-Long: " + strings.Repeat("x", 5000),
	} {
		c, br := ls.dial(t)
		fmt.Fprintf(c, "POST / HTTP/1.1\r\nHost: store\r\n%s\r\n\r\n", head)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Errorf("%.40q: %v", head, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !resp.Close {
			t.Errorf("%.40q: HTTP %d, close %v; want 400 and a close", head, resp.StatusCode, resp.Close)
		}
	}
}

// Requests the loop does not serve reach the mux through net/http, on
// the same port: first on a connection, and after a PReP request.
func TestServerHandoff(t *testing.T) {
	ls := newLoopServer(t, headerTimeout)
	for _, tc := range []struct{ req, status, body string }{
		{"GET /metrics HTTP/1.1\r\nHost: store\r\n\r\n", "200 OK", "metrics GET"},
		{"POST /metrics HTTP/1.1\r\nHost: store\r\nContent-Length: 0\r\n\r\n", "200 OK", "metrics POST"},
		{"GET / HTTP/1.1\r\nHost: store\r\n\r\n", "405 Method Not Allowed", "envelope messages must be POSTed\n"},
	} {
		c, br := ls.dial(t)
		io.WriteString(c, echoRequest(t, "/", "1.1", 3)+tc.req)
		readEcho(t, br, 3)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%.20q after an echo: %v", tc.req, err)
		}
		body, _ := io.ReadAll(resp.Body)
		if resp.Status != tc.status || string(body) != tc.body {
			t.Errorf("%.20q after an echo: %s %q, want %s %q", tc.req, resp.Status, body, tc.status, tc.body)
		}
		resp, err = http.Get("http://" + ls.addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "metrics GET" {
			t.Errorf("GET /metrics on a new connection: %q", body)
		}
	}
}

// Shutdown waits for a request in flight, and cuts it once its context
// is done.
func TestServerDrain(t *testing.T) {
	for _, drain := range []time.Duration{5 * time.Second, 50 * time.Millisecond} {
		ls := newLoopServer(t, headerTimeout)
		e := NewEndpoint("http://"+ls.addr+"/", nil)
		got := make(chan error, 1)
		go func() {
			var reply echoPayload
			err := e.Post("urn:test:block", &echoPayload{}, &reply)
			if err == nil && reply.Text != "drained" {
				err = fmt.Errorf("reply %q", reply.Text)
			}
			got <- err
		}()
		<-ls.started
		closed := make(chan error, 1)
		go func() { closed <- ls.close(drain) }()
		if drain < time.Second {
			if err := <-closed; !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("Shutdown past its drain: %v, want the deadline", err)
			}
			if err := <-got; err == nil {
				t.Error("a request cut by Shutdown succeeded")
			}
			ls.shutdown.Do(func() { close(ls.release) })
			continue
		}
		select {
		case err := <-closed:
			t.Fatalf("Shutdown returned %v with a request in flight", err)
		case <-time.After(100 * time.Millisecond):
		}
		ls.shutdown.Do(func() { close(ls.release) })
		if err := <-closed; err != nil {
			t.Errorf("Shutdown after the drain: %v", err)
		}
		if err := <-got; err != nil {
			t.Errorf("the request in flight: %v", err)
		}
	}
}

// Shutdown closes a connection idle after a request at once, cuts an
// unused one after freshGrace, and serves a request that reached a fresh
// connection before it.
func TestServerFreshGrace(t *testing.T) {
	ls := newLoopServer(t, headerTimeout)
	idle, idleBR := ls.dial(t)
	io.WriteString(idle, echoRequest(t, "/", "1.1", 0))
	readEcho(t, idleBR, 0)
	start := time.Now()
	if err := ls.close(5 * time.Second); err != nil || time.Since(start) >= freshGrace {
		t.Errorf("Shutdown with one idle connection: %v after %v, want nil before %v", err, time.Since(start), freshGrace)
	}
	if !closed(idleBR) {
		t.Error("the idle connection was left open")
	}

	ls = newLoopServer(t, headerTimeout)
	unused, unusedBR := ls.dial(t)
	sent, sentBR := ls.dial(t)
	// The accept loop takes connections in arrival order: once a later
	// one is answered, both have been accepted.
	echoText(t, NewEndpoint("http://"+ls.addr+"/", nil), "accepted")
	io.WriteString(sent, echoRequest(t, "/", "1.1", 9))
	start = time.Now()
	if err := ls.close(5 * time.Second); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if d := time.Since(start); d < freshGrace/2 || d >= time.Second {
		t.Errorf("Shutdown with an unused connection took %v, want about %v", d, freshGrace)
	}
	readEcho(t, sentBR, 9)
	if !closed(unusedBR) {
		t.Error("the unused connection was left open")
	}
	unused.Close()
}

// Many short connections leave no descriptor behind.
func TestServerDescriptorsBounded(t *testing.T) {
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd:", err)
		}
		return len(entries)
	}
	ls := newLoopServer(t, headerTimeout)
	before := fds()
	for i := 0; i < 200; i++ {
		c, err := net.Dial("tcp", ls.addr)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(c, echoRequest(t, "/", "1.1", i))
		readEcho(t, bufio.NewReader(c), i)
		c.Close()
	}
	// The loops see their clients' closes and close their own ends; a
	// few descriptors of slack for the runtime's and the test's own.
	after := fds()
	for deadline := time.Now().Add(5 * time.Second); after > before+8 && time.Now().Before(deadline); after = fds() {
		time.Sleep(10 * time.Millisecond)
	}
	if after > before+8 {
		t.Errorf("%d descriptors open after 200 short connections, %d before", after, before)
	}
}

// Arbitrary bytes read as requests never panic the reader, and every
// refusal is a typed error.
func FuzzReadRequest(f *testing.F) {
	body, _ := Marshal("urn:test:echo", &echoPayload{Text: "x", N: 1})
	for _, seed := range []string{
		fmt.Sprintf("POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s", len(body), body),
		fmt.Sprintf("POST / HTTP/1.0\r\nContent-Length: %d\r\n\r\n%sPOST / HTTP/1.1\r\n\r\n", len(body), body),
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nExpect: 100-continue\r\n\r\n5\r\nhello\r\n0\r\nT: x\r\n\r\n",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
		"GET /metrics HTTP/1.1\r\n\r\n",
		"POST / HTTP/1.1\r\nX: " + strings.Repeat("y", 100) + "\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s := &Server{h: NewHTTPHandler()}
		c := &serverConn{conn: conn{br: bufio.NewReaderSize(bytes.NewReader(in), 64)}}
		for {
			h, fr, err := s.readHead(c)
			if err == nil && h == nil {
				return // net/http's to read
			}
			if err == nil {
				_, err = c.readBody(&fr, nil)
			}
			if err != nil {
				if !errors.Is(err, errBadRequest) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && err != errMessageTooLarge {
					t.Fatalf("untyped refusal: %v", err)
				}
				return
			}
		}
	})
}
