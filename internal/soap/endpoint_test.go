package soap

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rawServer is a loopback HTTP peer written by hand, for replies
// net/http's server does not send. serve runs on each accepted
// connection; the counters are what the peer saw.
type rawServer struct {
	url             string
	conns, requests atomic.Int32
	wg              sync.WaitGroup
	mu              sync.Mutex
	open            []net.Conn
}

func newRawServer(t *testing.T, serve func(s *rawServer, c net.Conn, br *bufio.Reader)) *rawServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rawServer{url: "http://" + ln.Addr().String() + "/"}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			s.mu.Lock()
			s.open = append(s.open, c)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer c.Close()
				serve(s, c, bufio.NewReader(c))
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.mu.Lock()
		for _, c := range s.open {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return s
}

// read reads one request off br, counting it.
func (s *rawServer) read(br *bufio.Reader) bool {
	req, err := http.ReadRequest(br)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, req.Body)
	s.requests.Add(1)
	return true
}

// echoReply is an envelope replying to urn:test:echo with text.
func echoReply(t *testing.T, text string) string {
	t.Helper()
	data, err := Marshal("urn:test:echo-response", &echoPayload{Text: text, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func idleFor(addr string) int {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	n := 0
	for _, c := range idle.conns {
		if c.addr == addr {
			n++
		}
	}
	return n
}

func hostOf(t *testing.T, rawURL string) string {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// countConns makes srv count the connections it accepts.
func countConns(srv *httptest.Server) *atomic.Int32 {
	var n atomic.Int32
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			n.Add(1)
		}
	}
	return &n
}

func echoText(t *testing.T, e *Endpoint, text string) {
	t.Helper()
	var reply echoPayload
	if err := e.Post("urn:test:echo", &echoPayload{Text: text, N: 1}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Text != text || reply.N != 2 {
		t.Fatalf("reply = %.40q %d, want the text back and 2", reply.Text, reply.N)
	}
}

// net/http's server chunks any reply over 2 KB: the body is read whole,
// and its trailer too, so the connection carries the next call.
func TestEndpointChunkedReply(t *testing.T) {
	srv := httptest.NewUnstartedServer(NewHTTPHandler(echoActions()))
	conns := countConns(srv)
	srv.Start()
	defer srv.Close()
	e := NewEndpoint(srv.URL, srv.Client())
	if e.hc != nil {
		t.Fatal("a plain http URL went through net/http")
	}
	text := strings.Repeat("chunk ", 2000)
	echoText(t, e, text)
	echoText(t, e, text)
	if n := conns.Load(); n != 1 {
		t.Errorf("two chunked replies took %d connections, want 1", n)
	}
}

// A reply with Connection: close is read, and its connection not kept.
func TestEndpointConnectionClose(t *testing.T) {
	handler := NewHTTPHandler(echoActions())
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		handler.ServeHTTP(w, r)
	}))
	conns := countConns(srv)
	srv.Start()
	defer srv.Close()
	e := NewEndpoint(srv.URL, srv.Client())
	echoText(t, e, "a")
	if n := idleFor(e.addr); n != 0 {
		t.Errorf("%d connections kept after Connection: close", n)
	}
	echoText(t, e, "b")
	if n := conns.Load(); n != 2 {
		t.Errorf("two calls took %d connections, want 2", n)
	}
}

// An HTTP/1.0 reply without a length ends where the connection does.
func TestEndpointHTTP10Reply(t *testing.T) {
	reply := echoReply(t, "old")
	s := newRawServer(t, func(s *rawServer, c net.Conn, br *bufio.Reader) {
		if s.read(br) {
			fmt.Fprintf(c, "HTTP/1.0 200 OK\r\nContent-Type: %s\r\n\r\n%s", ContentType, reply)
		}
	})
	e := NewEndpoint(s.url, nil)
	var got echoPayload
	if err := e.Post("urn:test:echo", &echoPayload{}, &got); err != nil || got.Text != "old" {
		t.Fatalf("reply %+v, err %v", got, err)
	}
	if n := idleFor(e.addr); n != 0 {
		t.Errorf("%d connections kept after an HTTP/1.0 reply", n)
	}
}

// An informational reply ahead of the real one is skipped.
func TestEndpointInformationalReply(t *testing.T) {
	handler := NewHTTPHandler(echoActions())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Link", "</style.css>; rel=preload")
		w.WriteHeader(http.StatusEarlyHints)
		w.Header().Del("Link")
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()
	echoText(t, NewEndpoint(srv.URL, srv.Client()), "hint")
}

// A redirect is an error naming its status, and is not followed.
func TestEndpointRedirectNotFollowed(t *testing.T) {
	var followed atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/old", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/new", http.StatusTemporaryRedirect)
	})
	mux.HandleFunc("/new", func(w http.ResponseWriter, r *http.Request) { followed.Store(true) })
	srv := httptest.NewServer(mux)
	defer srv.Close()
	err := NewEndpoint(srv.URL+"/old", srv.Client()).Post("urn:test:echo", &echoPayload{}, nil)
	if err == nil || !strings.Contains(err.Error(), "returned HTTP 307") {
		t.Errorf("err = %v, want HTTP 307", err)
	}
	if followed.Load() {
		t.Error("the redirect was followed")
	}
}

// Replies that cannot be framed are typed errors, and so are replies
// over MaxMessageBytes, declared or not.
func TestEndpointMalformedReplies(t *testing.T) {
	for _, tc := range []struct {
		reply string
		want  error
	}{
		{"HTTX/1.1 200 OK\r\n\r\n", ErrBadReply},
		{"HTTP/1.1 2x0 OK\r\n\r\n", ErrBadReply},
		{"HTTP/1.1 200 OK\r\nContent-Length: 1e3\r\n\r\n", ErrBadReply},
		{"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n", ErrBadReply},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n", ErrBadReply},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n", ErrBadReply},
		{fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", MaxMessageBytes+1), ErrReplyTooLarge},
		{"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n<Envelope>", io.ErrUnexpectedEOF},
	} {
		s := newRawServer(t, func(s *rawServer, c net.Conn, br *bufio.Reader) {
			if s.read(br) {
				io.WriteString(c, tc.reply)
			}
		})
		e := NewEndpoint(s.url, nil)
		if err := e.Post("urn:test:echo", &echoPayload{}, nil); !errors.Is(err, tc.want) {
			t.Errorf("reply %.60q: err = %v, want %v", tc.reply, err, tc.want)
		}
		if n := idleFor(e.addr); n != 0 {
			t.Errorf("reply %.60q: %d connections kept", tc.reply, n)
		}
	}
}

// A server closing a connection while it lay idle costs one retry on a
// new connection, and the request reaches the server once.
func TestEndpointRetryStaleConnection(t *testing.T) {
	reply := echoReply(t, "x")
	s := newRawServer(t, func(s *rawServer, c net.Conn, br *bufio.Reader) {
		// One request per connection, with nothing to say so.
		if s.read(br) {
			fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(reply), reply)
		}
	})
	e := NewEndpoint(s.url, nil)
	for i := 1; i <= 3; i++ {
		if err := e.Post("urn:test:echo", &echoPayload{}, nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := s.requests.Load(); got != int32(i) {
			t.Fatalf("after call %d the server read %d requests", i, got)
		}
	}
	if got := s.conns.Load(); got != 3 {
		t.Errorf("three calls took %d connections, want 3", got)
	}
}

// Once a byte of the reply has arrived the request is not sent again.
func TestEndpointNoRetryAfterReplyByte(t *testing.T) {
	reply := echoReply(t, "x")
	s := newRawServer(t, func(s *rawServer, c net.Conn, br *bufio.Reader) {
		if s.read(br) {
			fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(reply), reply)
		}
		if s.read(br) {
			io.WriteString(c, "HTTP/1.1 2")
		}
	})
	e := NewEndpoint(s.url, nil)
	if err := e.Post("urn:test:echo", &echoPayload{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Post("urn:test:echo", &echoPayload{}, nil); err == nil {
		t.Fatal("a reply cut short succeeded")
	}
	if r, c := s.requests.Load(), s.conns.Load(); r != 2 || c != 1 {
		t.Errorf("server saw %d requests on %d connections, want 2 on 1", r, c)
	}
}

// A new connection that fails is not retried: the server is not
// closing an idle connection, it is failing.
func TestEndpointNoRetryOnFreshConnection(t *testing.T) {
	s := newRawServer(t, func(s *rawServer, c net.Conn, br *bufio.Reader) { s.read(br) })
	e := NewEndpoint(s.url, nil)
	if err := e.Post("urn:test:echo", &echoPayload{}, nil); err == nil {
		t.Fatal("a call the server hung up on succeeded")
	}
	if r, c := s.requests.Load(), s.conns.Load(); r != 1 || c != 1 {
		t.Errorf("server saw %d requests on %d connections, want 1 on 1", r, c)
	}
}

// The client's Timeout bounds the exchange; a timed-out connection is
// closed, not pooled, and not retried, though it was a reused one.
func TestEndpointDeadline(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int32
	handler := NewHTTPHandler(echoActions())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) > 1 {
			<-release
		}
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer close(release)
	const timeout = 200 * time.Millisecond
	e := NewEndpoint(srv.URL, &http.Client{Timeout: timeout})
	echoText(t, e, "before the stall")
	start := time.Now()
	err := e.Post("urn:test:echo", &echoPayload{}, nil)
	if elapsed := time.Since(start); elapsed > 2*timeout {
		t.Errorf("a stalled call returned after %v, want at most %v", elapsed, 2*timeout)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("err = %v, want a deadline error", err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("the server had %d calls, want 2", n)
	}
	if n := idleFor(e.addr); n != 0 {
		t.Errorf("%d timed-out connections pooled", n)
	}
}

// Callers on many goroutines, over two endpoints of one server, share
// the pool: every reply is the caller's own, and the host keeps no more
// than maxIdlePerHost connections idle.
func TestEndpointConcurrentCallers(t *testing.T) {
	srv := newTestServer(t)
	eps := []*Endpoint{NewEndpoint(srv.URL, srv.Client()), NewEndpoint(srv.URL, nil)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var reply echoPayload
				n := g*1000 + i
				if err := eps[i%2].Post("urn:test:echo", &echoPayload{N: n}, &reply); err != nil || reply.N != n+1 {
					t.Errorf("goroutine %d call %d: reply %d, err %v", g, i, reply.N, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := idleFor(hostOf(t, srv.URL)); n < 1 || n > maxIdlePerHost {
		t.Errorf("%d connections idle to the host, want 1 to %d", n, maxIdlePerHost)
	}
}

// An idle connection past maxIdleAge is closed, not reused.
func TestEndpointIdleAge(t *testing.T) {
	srv := httptest.NewUnstartedServer(NewHTTPHandler(echoActions()))
	conns := countConns(srv)
	srv.Start()
	defer srv.Close()
	e := NewEndpoint(srv.URL, nil)
	echoText(t, e, "a")
	idle.mu.Lock()
	for _, c := range idle.conns {
		c.idleAt = time.Now().Add(-maxIdleAge)
	}
	idle.mu.Unlock()
	echoText(t, e, "b")
	if n := conns.Load(); n != 2 {
		t.Errorf("two calls took %d connections, want 2", n)
	}
}

// Where net/http would do more than plain HTTP/1.1 to the URL's host,
// the endpoint posts through it: a RoundTripper that decorates requests
// sees every one, a proxy gets the request, and https works.
func TestEndpointFallback(t *testing.T) {
	srv := newTestServer(t)
	var seen atomic.Int32
	decorated := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		seen.Add(1)
		return http.DefaultTransport.RoundTrip(r)
	})}
	e := NewEndpoint(srv.URL, decorated)
	for i := 0; i < 3; i++ {
		echoText(t, e, "decorated")
	}
	if n := seen.Load(); n != 3 {
		t.Errorf("the RoundTripper saw %d of 3 requests", n)
	}

	proxy := newTestServer(t)
	proxyURL, _ := url.Parse(proxy.URL)
	viaProxy := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)}}
	echoText(t, NewEndpoint("http://store.invalid/", viaProxy), "proxied")

	tls := httptest.NewTLSServer(NewHTTPHandler(echoActions()))
	defer tls.Close()
	echoText(t, NewEndpoint(tls.URL, tls.Client()), "tls")
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// Clients dropped after their servers closed leave their connections in
// the pool, dead; the pool's bound is what keeps them from piling up, as
// net/http's background reader did by closing them.
func TestIdleDescriptorsBounded(t *testing.T) {
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd:", err)
		}
		return len(entries)
	}
	before := fds()
	for i := 0; i < 200; i++ {
		srv := httptest.NewServer(NewHTTPHandler(echoActions()))
		echoText(t, NewEndpoint(srv.URL, nil), "x")
		srv.Close()
	}
	idle.mu.Lock()
	held := len(idle.conns)
	idle.mu.Unlock()
	if held > maxIdle {
		t.Errorf("the pool holds %d connections, want at most %d", held, maxIdle)
	}
	// A few descriptors of slack: the runtime's and the test's own.
	if after := fds(); after > before+maxIdle+8 {
		t.Errorf("%d descriptors open after 200 dead servers, %d before; the pool may hold %d", after, before, maxIdle)
	}
}
