package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/xmlwire"
)

// sampleRecords builds n records shaped like the compressibility
// experiment's: a service invocation with two inputs, one output, a
// session and a thread, and every fourth one an actor-state record.
func sampleRecords(n int) []core.Record {
	session, thread := ids.New(), ids.New()
	ts := time.Date(2005, 7, 24, 10, 0, 0, 123456789, time.UTC)
	out := make([]core.Record, n)
	for i := range out {
		in := core.Interaction{ID: ids.New(), Sender: "svc:enactor", Receiver: "svc:gzip-compression", Operation: "compress"}
		groups := []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: uint64(i)}, {Type: core.GroupThread, ID: thread, Seq: uint64(i)}}
		if i%4 == 3 {
			out[i] = *core.NewActorStateRecord(&core.ActorStatePAssertion{
				LocalID: fmt.Sprintf("state-%d", i), Asserter: in.Receiver, Interaction: in, View: core.ReceiverView,
				StateKind: core.StateScript, Content: core.Bytes("gzip -9 < \"$1\" > \"$2\""), Groups: groups, Timestamp: ts,
			})
			continue
		}
		out[i] = *core.NewInteractionRecord(&core.InteractionPAssertion{
			LocalID: fmt.Sprintf("ipa-%d", i), Asserter: in.Sender, Interaction: in, View: core.SenderView,
			Request: core.Message{Name: "compress", Parts: []core.MessagePart{
				{Name: "sample", DataID: ids.New(), ContentType: "application/fasta", Style: core.StyleDigest, Content: bytes.Repeat([]byte{byte(i)}, 32)},
				{Name: "level", ContentType: "text/plain", Style: core.StyleVerbatim, Content: core.Bytes("9")},
			}},
			Response: core.Message{Name: "compressResponse", Parts: []core.MessagePart{
				{Name: "compressed", DataID: ids.New(), ContentType: "application/gzip", Style: core.StyleDigest, Content: bytes.Repeat([]byte{byte(i + 1)}, 32)},
			}},
			Groups: groups, Timestamp: ts,
		})
	}
	return out
}

// hotPayloads returns one of each record-carrying message and Fault —
// all encoded and decoded by hand — and a constructor for an empty one
// to decode into.
func hotPayloads() []struct {
	msg   interface{}
	empty func() interface{}
} {
	recs := sampleRecords(5)
	plan := prep.QueryPlan{Strategy: prep.PlanIndex, Dims: []string{"session", "service"}, DimCounts: []int{12, 40}, EstCandidates: 12, Postings: 30, Candidates: 5}
	q := prep.Query{SessionID: ids.New(), Service: "svc:gzip-compression", Kind: "interaction", Limit: 10}
	return []struct {
		msg   interface{}
		empty func() interface{}
	}{
		{&prep.RecordRequest{Asserter: "svc:enactor", Records: recs}, func() interface{} { return &prep.RecordRequest{} }},
		{&prep.RecordResponse{Accepted: 4, Rejects: []prep.Reject{{Index: 2, Reason: "asserter <mismatch>"}}}, func() interface{} { return &prep.RecordResponse{} }},
		{&q, func() interface{} { return &prep.Query{} }},
		{&prep.PageQueryRequest{Query: q, After: "cursor", PageSize: 50}, func() interface{} { return &prep.PageQueryRequest{} }},
		{&prep.QueryResponse{Total: 5, Records: recs}, func() interface{} { return &prep.QueryResponse{} }},
		{&prep.PlannedQueryResponse{Total: 5, Plan: plan, Records: recs}, func() interface{} { return &prep.PlannedQueryResponse{} }},
		{&prep.PageQueryResponse{Plan: plan, Next: "next", Records: recs}, func() interface{} { return &prep.PageQueryResponse{} }},
		{&Fault{Code: FaultBadRequest, Message: "bad <query> & \"more\""}, func() interface{} { return &Fault{} }},
	}
}

// oracleEnvelope is the envelope as encoding/xml writes it, carrying
// the message id Marshal drew.
func oracleEnvelope(t *testing.T, action string, payload interface{}, got []byte) []byte {
	t.Helper()
	var env Envelope
	if err := xml.Unmarshal(got, &env); err != nil {
		t.Fatalf("encoding/xml cannot read Marshal's envelope: %v\n%s", err, got)
	}
	inner, err := xml.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := xml.Marshal(Envelope{Header: Header{Action: action, MessageID: env.Header.MessageID}, Body: Body{Inner: inner}})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// Marshal's envelopes are byte for byte what encoding/xml wrote before
// the hand-written codec — for the requests and replies it encodes by
// hand, for a cold message it leaves to encoding/xml, and for a
// hand-coded one passed by value (which has no methods and takes the
// encoding/xml path).
func TestMarshalMatchesEncodingXML(t *testing.T) {
	payloads := []interface{}{&prep.CountResponse{Records: 3, Interactions: 2, ActorStates: 1}, prep.RecordResponse{Accepted: 1}, &echoPayload{Text: "<&>"}}
	for _, p := range hotPayloads() {
		payloads = append(payloads, p.msg)
	}
	for _, action := range []string{prep.ActionRecord, `odd "action" <&> ` + "\t\r\n\x00\xff"} {
		for _, payload := range payloads {
			got, err := Marshal(action, payload)
			if err != nil {
				t.Fatalf("%T: %v", payload, err)
			}
			if want := oracleEnvelope(t, action, payload, got); !bytes.Equal(got, want) {
				t.Errorf("%T: Marshal differs from encoding/xml\n got %s\nwant %s", payload, got, want)
			}
		}
	}
}

// Fault's codec against encoding/xml with every field set, found by
// walking the struct: a field added to Fault fails here until AppendXML
// and DecodeXML carry it.
func TestFaultMatchesEncodingXML(t *testing.T) {
	var f Fault
	v := reflect.ValueOf(&f).Elem()
	for i := 1; i < v.NumField(); i++ { // 0 is XMLName
		if v.Field(i).Kind() != reflect.String {
			t.Fatalf("Fault.%s is a %s: teach this test, and the codec", v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetString(fmt.Sprintf("field %d <&> \r\n\x00", i))
	}
	want, err := xml.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := f.AppendXML(nil); !bytes.Equal(got, want) {
		t.Errorf("AppendXML differs from xml.Marshal\n got %s\nwant %s", got, want)
	}
	var decoded, oracle Fault
	if err := xml.Unmarshal(want, &oracle); err != nil {
		t.Fatal(err)
	}
	if err := decodeDocument(want, &decoded); err != nil || !reflect.DeepEqual(decoded, oracle) {
		t.Errorf("DecodeXML differs from xml.Unmarshal (err %v)\n got %+v\nwant %+v", err, decoded, oracle)
	}
}

// A fault a peer wrote with a construct the decoder refuses is not
// decoded as a Fault, and is not lost either: whoever looks for a fault
// in that body gets an error that says what was refused.
func TestRefusedFaultIsAnError(t *testing.T) {
	for _, body := range []string{
		`<Fault><code>server.internal</code><message><![CDATA[boom]]></message></Fault>`,
		` <Fault><code>server.internal<!-- c --></code></Fault>`,
	} {
		if f, ok := AsFault([]byte(body)); ok {
			t.Errorf("AsFault(%s) = %+v, want not a fault", body, f)
		}
		var reply prep.RecordResponse
		if err := DecodeBody([]byte(body), &reply); !errors.Is(err, xmlwire.ErrUnsupported) {
			t.Errorf("DecodeBody(%s): err = %v, want ErrUnsupported", body, err)
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, "<Envelope><Header><action>fault</action></Header><Body>%s</Body></Envelope>", body)
		}))
		if err := NewEndpoint(srv.URL, srv.Client()).Post("urn:test:echo", &echoPayload{}, nil); !errors.Is(err, xmlwire.ErrUnsupported) {
			t.Errorf("Post discarding the reply %s: err = %v, want ErrUnsupported", body, err)
		}
		srv.Close()
	}
	// Malformed is still just not a fault.
	if err := bodyFault([]byte(`<Fault><code>c</Fault>`)); err != nil {
		t.Errorf("malformed fault body: %v, want nil", err)
	}
}

func TestMarshalReportsPayloadErrors(t *testing.T) {
	bad := sampleRecords(1)
	bad[0].Interaction.View = 0
	for _, payload := range []interface{}{&prep.RecordRequest{Records: bad}, &prep.QueryResponse{Records: bad}} {
		_, err := Marshal(prep.ActionRecord, payload)
		if err == nil || !strings.Contains(err.Error(), prep.ActionRecord) {
			t.Errorf("%T with an unmarshallable view: err = %v", payload, err)
		}
	}
}

// oracleUnmarshal and oracleDecodeBody are Unmarshal and DecodeBody as
// they were on encoding/xml, kept as the reference.
func oracleUnmarshal(data []byte) (action string, body []byte, err error) {
	var env Envelope
	if err := xml.Unmarshal(data, &env); err != nil {
		return "", nil, err
	}
	if env.Header.Action == "" {
		return "", nil, errors.New("missing action header")
	}
	return env.Header.Action, env.Body.Inner, nil
}

func oracleDecodeBody(body []byte, v interface{}) error {
	if trimmed := bytes.TrimSpace(body); bytes.HasPrefix(trimmed, []byte("<Fault")) {
		var f Fault
		if xml.Unmarshal(trimmed, &f) == nil {
			return &f
		}
	}
	return xml.Unmarshal(body, v)
}

func TestUnmarshalAndDecodeBodyMatchEncodingXML(t *testing.T) {
	for _, p := range hotPayloads() {
		data, err := Marshal("urn:test", p.msg)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, data)
		action, body, err := Unmarshal(data)
		if err != nil || action != "urn:test" {
			t.Fatalf("%T: Unmarshal = %q, %v", p.msg, action, err)
		}
		got := p.empty()
		err = DecodeBody(body, got)
		if f, isFault := p.msg.(*Fault); isFault {
			var gotFault *Fault
			if !errors.As(err, &gotFault) || gotFault.Code != f.Code || gotFault.Message != f.Message {
				t.Errorf("fault body: err = %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%T: DecodeBody: %v", p.msg, err)
		}
	}
}

// hotTargets are fresh values of every record-carrying payload type.
func hotTargets() []interface{} {
	var out []interface{}
	for _, p := range hotPayloads() {
		if _, isFault := p.msg.(*Fault); !isFault { // a Fault body is an error, never a target
			out = append(out, p.empty())
		}
	}
	return out
}

// checkAgainstOracle holds Unmarshal and, over the body, DecodeBody into
// every record-carrying type — by hand into all seven, and as a Fault —
// to what encoding/xml does with the same bytes:
//   - both accept: equal action, body and decoded value or fault;
//   - only encoding/xml accepts: the construct is on the decoder's
//     documented unsupported list (ErrUnsupported) — in a fault too,
//     which then is an error saying so, never another message or a
//     success — and a server answers it with a bad-request fault;
//   - only the hand decoder accepts: a non-ASCII name, which it does
//     not check against Unicode's letter classes.
//
// It then holds the one-pass reader Post and ServeHTTP run to Unmarshal
// and DecodeBody (checkOnePass).
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	checkOnePass(t, data)
	action, body, err := Unmarshal(data)
	wantAction, wantBody, wantErr := oracleUnmarshal(data)
	switch {
	case err != nil && wantErr != nil:
		return
	case err != nil:
		if !errors.Is(err, ErrNotEnvelope) || !errors.Is(err, xmlwire.ErrUnsupported) {
			t.Fatalf("Unmarshal rejects what encoding/xml accepts, and not as unsupported: %v\n%q", err, data)
		}
		rec := httptest.NewRecorder()
		NewHTTPHandler(echoActions()).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data)))
		_, reply, rerr := Unmarshal(rec.Body.Bytes())
		if f, ok := AsFault(reply); rerr != nil || !ok || f.Code != FaultBadRequest {
			t.Fatalf("server reply to an unsupported envelope: %s (%v), want a bad-request fault", rec.Body, rerr)
		}
		return
	case wantErr != nil:
		if isASCII(data) {
			t.Fatalf("Unmarshal accepts what encoding/xml rejects (%v)\n%q", wantErr, data)
		}
		return
	}
	if action != wantAction || !bytes.Equal(body, wantBody) {
		t.Fatalf("Unmarshal = %q, %q; encoding/xml = %q, %q\n%q", action, body, wantAction, wantBody, data)
	}
	for _, got := range hotTargets() {
		want := reflect.New(reflect.TypeOf(got).Elem()).Interface()
		err, wantErr := DecodeBody(body, got), oracleDecodeBody(body, want)
		var fault, wantFault *Fault
		switch {
		case errors.As(wantErr, &wantFault):
			if !errors.Is(err, xmlwire.ErrUnsupported) && (!errors.As(err, &fault) || !reflect.DeepEqual(fault, wantFault)) {
				t.Fatalf("encoding/xml reads the fault %+v, DecodeBody returns %v\n%q", wantFault, err, body)
			}
		case err != nil && wantErr != nil:
		case err != nil:
			if !errors.Is(err, xmlwire.ErrUnsupported) {
				t.Fatalf("%T: DecodeBody rejects what encoding/xml accepts, and not as unsupported: %v\n%q", got, err, body)
			}
		case wantErr != nil:
			if isASCII(body) {
				t.Fatalf("%T: DecodeBody accepts what encoding/xml rejects (%v)\n%q", got, wantErr, body)
			}
		case !reflect.DeepEqual(got, want):
			t.Fatalf("%T: DecodeBody differs from encoding/xml on %q\n got %+v\nwant %+v", got, body, got, want)
		}
	}
}

// checkOnePass holds a Message's read and Decode — the one pass Post and
// ServeHTTP make over a message — to Unmarshal and DecodeBody on the
// same bytes, decoding into every record-carrying type, into a payload
// left to encoding/xml, and into nothing (Post discarding a reply): the
// same action and the same value or *Fault, or a refusal as
// ErrUnsupported; an error wherever the two passes return one.
//
// The server's pass, into a pooled message that read other requests
// before, reads what a fresh one reads.
func checkOnePass(t *testing.T, data []byte) {
	t.Helper()
	action, body, envErr := Unmarshal(data)
	srv := primedRequest(t)
	for _, target := range append(hotTargets(), &echoPayload{}, nil) {
		var got, want, gotSrv interface{}
		if target != nil {
			typ := reflect.TypeOf(target).Elem()
			got, want, gotSrv = reflect.New(typ).Interface(), reflect.New(typ).Interface(), reflect.New(typ).Interface()
		}
		srvErr := srv.read(data, true)
		if srvErr == nil {
			srvErr = srv.Decode(gotSrv)
		}
		wantErr := envErr
		if envErr == nil {
			if want == nil {
				wantErr = bodyFault(body)
			} else {
				wantErr = DecodeBody(body, want)
			}
		}
		msg := &Message{d: new(xmlwire.Decoder)} // as DecodeEnvelope reads it
		err := msg.read(data, false)
		if err == nil {
			err = msg.Decode(got)
		}
		var fault, wantFault *Fault
		switch {
		case err != nil && errors.Is(err, xmlwire.ErrUnsupported):
		case errors.As(wantErr, &wantFault):
			if !errors.As(err, &fault) || !reflect.DeepEqual(fault, wantFault) {
				t.Fatalf("%T: two passes read the fault %+v, one pass returns %v\n%q", target, wantFault, err, data)
			}
		case wantErr != nil:
			if err == nil || errors.As(err, &fault) {
				t.Fatalf("%T: two passes fail (%v), one pass returns %v\n%q", target, wantErr, err, data)
			}
		case err != nil:
			t.Fatalf("%T: one pass rejects what two passes accept, and not as unsupported: %v\n%q", target, err, data)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("%T: one pass reads %+v, two passes %+v\n%q", target, got, want, data)
		}
		if (err == nil || fault != nil) && msg.action != action {
			t.Fatalf("%T: one pass reads action %q, two passes %q\n%q", target, msg.action, action, data)
		}
		if fmt.Sprint(srvErr) != fmt.Sprint(err) || !reflect.DeepEqual(gotSrv, got) {
			t.Fatalf("%T: a reused message reads %+v (%v), a fresh one %+v (%v)\n%q", target, gotSrv, srvErr, got, err, data)
		}
	}
}

// primedRequest is a message from the server's pool that has read a
// Record request already.
func primedRequest(t *testing.T) *Message {
	t.Helper()
	data, err := Marshal(prep.ActionRecord, &prep.RecordRequest{Asserter: "svc:enactor", Records: sampleRecords(3)})
	if err != nil {
		t.Fatal(err)
	}
	m := &Message{d: new(xmlwire.Decoder)}
	var req prep.RecordRequest
	if err := m.read(data, true); err != nil {
		t.Fatal(err)
	}
	if err := m.Decode(&req); err != nil {
		t.Fatal(err)
	}
	return m
}

func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// envelopeSeeds are small documents from each class checkAgainstOracle
// distinguishes. The checked-in corpus (testdata/fuzz/FuzzDecodeEnvelope)
// adds the large ones: a Record envelope, a planned-query reply, a Fault,
// a namespaced envelope with a prolog, and what a client decodes by hand
// as a foreign peer might write it — a RecordResponse with two rejects,
// prefixed and reordered, a PageQueryResponse with two records around a
// plan sent in two pieces, a QueryResponse with a comment inside its
// total, and a Fault with an element inside its message.
var envelopeSeeds = []string{
	`<Envelope><Body><Query><limit>1<!-- c --></limit></Query></Body><Header><action>a</action></Header></Envelope>`,
	`<!DOCTYPE Envelope><Envelope><Header><action>a</action></Header><Body><Query/></Body></Envelope>`,
	`<Envelope><Header><action>a</action><messageId/></Header><Body><![CDATA[<Query/>]]></Body></Envelope>`,
	`<Envelope><Header><action>a&#x9;b</action></Header><Body><Fault><code>c</code><message>a<b/>c</message></Fault></Body></Envelope>`,
	`<Envelope><Header><action>a</action></Header><Body> <Fault><code>client.bad-request</code></Fault> </Body><Body/></Envelope>`,
	`<Envelope><Header><action>a</action><messageId>junk</messageId></Header><Body/></Envelope>`,
	`<Envelope><Header><action></action></Header><Body/></Envelope>`,
	`<Envelope><été/><Header><action>a</action></Header></Envelope>`,
	`<?xml version="1.0"?><e:Envelope xmlns:e="urn:e"><e:Body><RecordResponse><accepted> 3 </accepted></RecordResponse></e:Body><e:Header><action>a</action></e:Header></e:Envelope>`,
	`not xml`,
	// The one pass's own cases: namespaces declared outside the Body,
	// which a payload read from its own bytes does not see; Headers and
	// Bodies on either side of the one read in place; a root that starts
	// like a Fault and is not one.
	`<Envelope xmlns="urn:e"><Header><action>a</action></Header><Body xmlns:q="urn:q"> <Fault><code>c</code></Fault></Body></Envelope>`,
	`<Envelope xmlns:q="urn:q"><Header><action>a</action></Header><Body><q:RecordResponse><accepted>1</accepted></q:RecordResponse></Body></Envelope>`,
	`<Envelope><Header><action>a</action></Header><Body><RecordResponse/></Body><Header><action>b</action></Header></Envelope>`,
	`<Envelope><Header><action>a</action></Header><Body><RecordResponse/></Body><Header><action>a</action><messageId>bad</messageId></Header></Envelope>`,
	`<Envelope><Body><Query/></Body><Header><action>a</action></Header><Body><RecordResponse><accepted>2</accepted></RecordResponse></Body></Envelope>`,
	`<Envelope><Header><action>a</action></Header><Body> <Faulty/> </Body><x></Envelope>`,
	// How one message's records share memory (the same documents as
	// prep's TestSharedMemoryEdgeCasesMatchEncodingXML): a second
	// <request> appending parts, groups split by a timestamp, two
	// p-assertions merging, empty contents, bad base64.
	`<Envelope><Header><action>a</action></Header><Body><RecordRequest><record><interactionPAssertion><request><part><name>p1</name></part></request>` +
		`<response><part><name>r1</name></part></response><request><part><name>p2</name></part></request></interactionPAssertion></record>` +
		`<record><interactionPAssertion><request><part><name>n1</name></part></request></interactionPAssertion></record></RecordRequest></Body></Envelope>`,
	`<Envelope><Header><action>a</action></Header><Body><RecordRequest><record><actorStatePAssertion><group><type>session</type></group>` +
		`<timestamp>2005-07-24T10:00:00Z</timestamp><group><type>thread</type></group></actorStatePAssertion></record>` +
		`<record><actorStatePAssertion><group><type>next</type></group></actorStatePAssertion></record></RecordRequest></Body></Envelope>`,
	`<Envelope><Header><action>a</action></Header><Body><RecordRequest><record><interactionPAssertion><localId>first</localId><group><type>session</type></group></interactionPAssertion>` +
		`<interactionPAssertion><asserter>svc:a</asserter><group><type>thread</type></group></interactionPAssertion></record></RecordRequest></Body></Envelope>`,
	`<Envelope><Header><action>a</action></Header><Body><RecordRequest><record><interactionPAssertion><request><part><content/></part>` +
		`<part><content></content></part></request></interactionPAssertion></record><record><actorStatePAssertion><content/></actorStatePAssertion></record></RecordRequest></Body></Envelope>`,
	`<Envelope><Header><action>a</action></Header><Body><RecordRequest><record><actorStatePAssertion><content>aGk</content></actorStatePAssertion></record></RecordRequest></Body></Envelope>`,
	// Records that enter one of the decoder's fast paths and leave it
	// partway (core's fastPathExits has the full list): references and
	// CR in a short string, a local id and base64; a non-ASCII asserter;
	// a prefixed child; attributes and self-closing children; whitespace
	// and a comment between children; children out of the encoder's
	// order; two short strings that share a slot of the intern table
	// (svc:c16 and svc:c20), repeated; text runs and names that end on a
	// word boundary and a byte either side of it; an id, a view, a
	// number and a timestamp that start in their fixed form and leave it.
	recordEnvelope(`<record><interactionPAssertion><asserter>svc:a&amp;b&#x41;` + "\r\n" + `</asserter><localId>pa&amp;1&#x41;` + "\r\n" +
		`</localId><request><part><content>aG&#x6B;` + "\r\n" + `=</content></part></request></interactionPAssertion></record>`),
	recordEnvelope(`<record><actorStatePAssertion><asserter>svc:世界é</asserter><p:stateKind xmlns:p="urn:p">script</p:stateKind>` +
		`<content a="1">aGk=</content><localId/><view/></actorStatePAssertion></record>`),
	recordEnvelope(`<record>` + "\n\t" + `<!-- c --> <kind>interaction</kind> <interactionPAssertion><timestamp>2005-06-01T12:00:00Z</timestamp>` +
		`<group><seq>3</seq><type>thread</type></group><view>receiver</view><localId>x</localId></interactionPAssertion></record>`),
	recordEnvelope(`<record><interactionPAssertion><asserter>svc:c16</asserter><interaction><sender>svc:c20</sender><receiver>svc:c16</receiver>` +
		`<operation>svc:c20</operation></interaction><request><name>svc:c16</name><part><name>svc:c20</name><style>svc:c16</style></part></request>` +
		`</interactionPAssertion></record>`),
	recordEnvelope(`<record><interactionPAssertion><asserter>abcdefg</asserter><localId>abcdefgh&amp;</localId><request><name>abcdefghi</name>` +
		`<part><name>abcdefghabcdefgh` + "\r" + `</name><contentType>abcdefghabcdefghaé</contentType></part></request></interactionPAssertion></record>`),
	recordEnvelope(`<record><interactionPAssertion><interaction><id>urn:pasoa:0123456789ABCDEF0123456789abcdef</id><sender>s</sender></interaction>` +
		`<group><id>urn:pasoa:&#x30;123456789abcdef0123456789abcdef</id><seq>18446744073709551615</seq></group>` +
		`<group><id>0123456789abcdef0123456789abcdef</id ><seq> 7 </seq></group><view>&#x73;ender</view>` +
		`<timestamp>2005-06-01T12:00:00.1234567890+01:00</timestamp></interactionPAssertion></record>`),
	recordEnvelope(`<record><interactionPAssertion><timestamp>2005-02-29T00:00:00Z</timestamp></interactionPAssertion></record>`),
	recordEnvelope(`<record><interactionPAssertion><localId>x</localIX></interactionPAssertion></record>`),
}

// recordEnvelope is a Record request envelope around records.
func recordEnvelope(records string) string {
	return `<Envelope><Header><action>a</action></Header><Body><RecordRequest>` + records + `</RecordRequest></Body></Envelope>`
}

func TestEnvelopeSeedsMatchEncodingXML(t *testing.T) {
	for _, seed := range envelopeSeeds {
		checkAgainstOracle(t, []byte(seed))
	}
}

// FuzzDecodeEnvelope: on arbitrary bytes the envelope and body decoders
// never panic and stay within checkAgainstOracle's contract with
// encoding/xml.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, seed := range envelopeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data)
	})
}

// The point of the hand-written decoder, pinned: a 100-record Record
// envelope decodes in at most one allocation per record (encoding/xml
// took about 400). A message's records take their memory in chunks,
// 74,552 B of it for these 100 (745.5 B a record): the ceiling keeps a
// faster decoder from buying its speed with memory.
func TestDecodeAllocsPerRecord(t *testing.T) {
	const n, maxBytes = 100, 74_600
	data, err := Marshal(prep.ActionRecord, &prep.RecordRequest{Asserter: "svc:enactor", Records: sampleRecords(n)})
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		var req prep.RecordRequest
		if err := DecodeEnvelope(data, &req); err != nil || len(req.Records) != n {
			t.Fatalf("decoded %d records: %v", len(req.Records), err)
		}
	}
	allocs, size := testing.AllocsPerRun(10, decode), bytesPerRun(10, decode)
	if perRecord := allocs / n; perRecord > 1 || size > maxBytes {
		t.Errorf("decoding costs %.1f allocs/record and %d B, want <= 1 and <= %d B", perRecord, size, maxBytes)
	} else {
		t.Logf("decode: %.2f allocs/record, %.1f B/record", perRecord, float64(size)/n)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f
// allocates per call, averaged over runs.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// A one-record Record request, what every call of a synchronous
// recorder sends: its memory comes in a dozen allocations (34 when each
// string, part and group took its own), in no more bytes than then. The
// pooled message and decoder make it 10 and 1,192 B. (The server's
// decode of it, into reused memory, takes none.)
func TestDecodeOneRecordRequestAllocs(t *testing.T) {
	data, err := Marshal(prep.ActionRecord, &prep.RecordRequest{Asserter: "svc:enactor", Records: sampleRecords(1)})
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		var req prep.RecordRequest
		if err := DecodeEnvelope(data, &req); err != nil || len(req.Records) != 1 {
			t.Fatalf("decoded %d records: %v", len(req.Records), err)
		}
	}
	allocs, size := testing.AllocsPerRun(10, decode), bytesPerRun(10, decode)
	if allocs > 12 || size > 1688 {
		t.Errorf("decoding a one-record request costs %.0f allocs and %d B, want <= 12 and <= 1688 B", allocs, size)
	} else {
		t.Logf("decode: %.0f allocs, %d B", allocs, size)
	}
}

// Decoded values own their memory. Nothing a record holds aliases the
// bytes it was decoded from — Post's and ServeHTTP's buffers are
// reused — and no list or content of one record, appended to, grows
// into another record's.
func TestDecodedRecordsOwnTheirMemory(t *testing.T) {
	records := sampleRecords(3)
	data, err := Marshal(prep.ActionRecord, &prep.RecordRequest{Asserter: "svc:enactor", Records: records})
	if err != nil {
		t.Fatal(err)
	}
	var req prep.RecordRequest
	if err := DecodeEnvelope(data, &req); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'x'
	}
	// The pooled message and decoder read another reply next.
	other, err := Marshal(prep.ActionRecord, &prep.RecordRequest{Asserter: "svc:other", Records: sampleRecords(5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeEnvelope(other, new(prep.RecordRequest)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req.Records, records) {
		t.Fatalf("records changed when the bytes they were decoded from were overwritten, and their decoder read another message\n got %+v\nwant %+v", req.Records, records)
	}
	first := req.Records[0].Interaction
	first.Request.Parts = append(first.Request.Parts, core.MessagePart{Name: "appended", Content: core.Bytes("appended")})
	first.Response.Parts = append(first.Response.Parts, core.MessagePart{Name: "appended"})
	first.Groups = append(first.Groups, core.GroupRef{Type: "appended", ID: ids.New()})
	for _, parts := range [][]core.MessagePart{first.Request.Parts, first.Response.Parts} {
		for i := range parts {
			parts[i].Content = append(parts[i].Content, "appended"...)
		}
	}
	if !reflect.DeepEqual(req.Records[1:], records[1:]) {
		t.Errorf("appending to record 0 changed the records after it\n got %+v\nwant %+v", req.Records[1:], records[1:])
	}
}

// pageReply is a full page of a paged walk as the store answers it, and
// readPageReply what Post does with its bytes.
func pageReply(tb testing.TB, n int) []byte {
	data, err := Marshal(prep.ActionQueryPage+"-response", &prep.PageQueryResponse{
		Plan: prep.QueryPlan{Strategy: prep.PlanIndex, Dims: []string{"session"}, DimCounts: []int{n}, EstCandidates: n, Postings: n, Candidates: n},
		Next: "cursor", Records: sampleRecords(n),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func readPageReply(tb testing.TB, data []byte, n int) {
	var resp prep.PageQueryResponse
	if err := DecodeEnvelope(data, &resp); err != nil || len(resp.Records) != n || resp.Next != "cursor" {
		tb.Fatalf("decoded %d records, next %q: %v", len(resp.Records), resp.Next, err)
	}
}

// The client's side of the same ceiling: a 200-record page decodes in
// 42 allocations, 0.21 per record (44 before the message and decoder
// were pooled; 50 before the record list was sized from the rest of the
// message; 23.4 per record before records shared their memory;
// encoding/xml took 338 per record).
func TestDecodePageReplyAllocs(t *testing.T) {
	const n, ceiling = 200, 44
	data := pageReply(t, n)
	allocs := testing.AllocsPerRun(10, func() { readPageReply(t, data, n) })
	if allocs > ceiling {
		t.Errorf("decoding a %d-record page costs %.0f allocs, want <= %d", n, allocs, ceiling)
	} else {
		t.Logf("decode: %.0f allocs, %.2f per record", allocs, allocs/n)
	}
}

// Marshal builds the envelope in a reused buffer and hands out one
// exact copy, for a request as for a reply.
func TestMarshalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	records := sampleRecords(100)
	for _, msg := range []struct {
		action  string
		payload interface{}
	}{
		{prep.ActionQuery + "-response", &prep.QueryResponse{Total: 100, Records: records}},
		{prep.ActionRecord, &prep.RecordRequest{Asserter: "svc:enactor", Records: records}},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Marshal(msg.action, msg.payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("marshalling a 100-record %T costs %.0f allocs, want 1 (the copy handed out; 2 allows a collection emptying the pool)", msg.payload, allocs)
		}
	}
}

// recordReply is the usual answer to a Record — an envelope holding a
// RecordResponse without rejects — and readRecordReply what Post does
// with its bytes.
func recordReply(tb testing.TB) []byte {
	data, err := Marshal(prep.ActionRecord+"-response", &prep.RecordResponse{Accepted: 100})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func readRecordReply(tb testing.TB, data []byte) {
	var resp prep.RecordResponse
	if err := DecodeEnvelope(data, &resp); err != nil || resp.Accepted != 100 {
		tb.Fatalf("decoded %+v: %v", resp, err)
	}
}

// What a client pays to read that answer is a handful of allocations
// (the arena chunk the action is copied into and the reply: 2 measured,
// 4 before the message and its decoder came from a pool), where
// encoding/xml took 29.
func TestDecodeRecordResponseAllocs(t *testing.T) {
	data := recordReply(t)
	allocs := testing.AllocsPerRun(10, func() { readRecordReply(t, data) })
	if allocs > 8 {
		t.Errorf("decoding a RecordResponse envelope costs %.0f allocs, want <= 8", allocs)
	} else {
		t.Logf("decode: %.0f allocs", allocs)
	}
}

// The codec's own numbers, without the whole benchmark: what a client
// pays to write a 100-record Record request, what the store pays to
// read it, and what the client pays to read its reply. Each record
// benchmark reports ns/rec, so one run reads the decode:encode ratio.
func BenchmarkMarshalRecordRequest(b *testing.B) {
	const n = 100
	req := &prep.RecordRequest{Asserter: "svc:enactor", Records: sampleRecords(n)}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Marshal(prep.ActionRecord, req); err != nil {
			b.Fatal(err)
		}
	}
	reportPerRecord(b, n)
}

func BenchmarkDecodeRecordRequest(b *testing.B) {
	const n = 100
	data, err := Marshal(prep.ActionRecord, &prep.RecordRequest{Asserter: "svc:enactor", Records: sampleRecords(n)})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		var req prep.RecordRequest
		if err := DecodeEnvelope(data, &req); err != nil || len(req.Records) != n {
			b.Fatalf("decoded %d records: %v", len(req.Records), err)
		}
	}
	reportPerRecord(b, n)
}

// reportPerRecord reports the time per record of a benchmark whose
// operation handles n records.
func reportPerRecord(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
}

func BenchmarkDecodeRecordResponse(b *testing.B) {
	data := recordReply(b)
	b.ReportAllocs()
	for b.Loop() {
		readRecordReply(b, data)
	}
}

// What a client pays to read one page of a whole-session walk: 200
// records, the benchmark's page size.
func BenchmarkDecodePageQueryResponse(b *testing.B) {
	const n = 200
	data := pageReply(b, n)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		readPageReply(b, data, n)
	}
	reportPerRecord(b, n)
}

// A reply larger than MaxMessageBytes is reported as such, not parsed
// truncated into a misleading "not an envelope".
func TestPostOversizedReply(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		w.Write([]byte("<Envelope><Header><action>a</action></Header><Body><Echo><text>"))
		w.Write(bytes.Repeat([]byte("A"), MaxMessageBytes))
		w.Write([]byte("</text></Echo></Body></Envelope>"))
	}))
	defer srv.Close()
	var reply echoPayload
	err := NewEndpoint(srv.URL, srv.Client()).Post("urn:test:echo", &echoPayload{}, &reply)
	if !errors.Is(err, ErrReplyTooLarge) {
		t.Fatalf("err = %v, want ErrReplyTooLarge", err)
	}
	if errors.Is(err, ErrNotEnvelope) {
		t.Errorf("oversized reply also reported as malformed: %v", err)
	}
}

// A non-200 reply — a proxy's error page, say — is quoted in the error
// only up to maxEchoed bytes, cut on a rune boundary: the error ends up
// in AsyncRecorder's and the router's logs.
func TestPostNon200ReplyIsExcerpted(t *testing.T) {
	page := []byte("  <html>Bad Gateway: ")
	page = append(page, bytes.Repeat([]byte("é"), 512<<10)...) // 1 MiB
	if utf8.RuneStart(bytes.TrimSpace(page)[maxEchoed]) {
		t.Fatal("the cut should fall inside an é")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		w.Write(page)
	}))
	defer srv.Close()
	err := NewEndpoint(srv.URL, srv.Client()).Post("urn:test:echo", &echoPayload{}, nil)
	if err == nil || !strings.Contains(err.Error(), "HTTP 502: <html>Bad Gateway: é") {
		t.Fatalf("err = %.100v, want the status and the start of the body", err)
	}
	msg := err.Error()
	if len(msg) > maxEchoed+100 || !strings.HasSuffix(msg, "é…") || !utf8.ValidString(msg) {
		t.Errorf("error is %d bytes ending %q, want at most %d of the body, whole runes and an ellipsis", len(msg), msg[len(msg)-8:], maxEchoed)
	}
	// A short body is quoted whole, trimmed, without the mark.
	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such store", http.StatusNotFound)
	}))
	defer short.Close()
	err = NewEndpoint(short.URL, short.Client()).Post("urn:test:echo", &echoPayload{}, nil)
	if err == nil || !strings.HasSuffix(err.Error(), "HTTP 404: no such store") {
		t.Errorf("err = %v, want the short body whole", err)
	}
}

// readMessage must return the same bytes whatever the declared length:
// exact, short, long, absent, beyond the presize cap.
func TestReadMessageContentLength(t *testing.T) {
	for _, n := range []int{0, 5000, maxPresize + 5000} {
		payload := bytes.Repeat([]byte("0123456789"), n/10)
		for _, declared := range []int64{-1, 0, 10, int64(n), int64(n) + 100, MaxMessageBytes} {
			got, err := readMessage(bytes.NewReader(payload), declared, nil)
			if err != nil || !bytes.Equal(got, payload) {
				t.Errorf("%d bytes declared as %d: read %d bytes, %v", n, declared, len(got), err)
			}
		}
	}
}

// An oversized message is refused on its declared length before
// anything is read or allocated for it, and a declared length alone
// buys at most maxPresize of buffer; an undeclared one is refused as
// soon as it has outgrown the limit.
func TestReadMessageOversized(t *testing.T) {
	unread := bytes.NewReader([]byte("x"))
	if _, err := readMessage(unread, MaxMessageBytes+1, nil); err != errMessageTooLarge {
		t.Errorf("declared oversize: err = %v", err)
	}
	if unread.Len() != 1 {
		t.Error("declared oversize was read before being refused")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	readMessage(bytes.NewReader(nil), MaxMessageBytes, nil)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*maxPresize {
		t.Errorf("an empty body declared as %d bytes allocated %d", MaxMessageBytes, got)
	}
	endless := io.LimitReader(zeroes{}, MaxMessageBytes*2)
	if _, err := readMessage(endless, -1, nil); err != errMessageTooLarge {
		t.Errorf("undeclared oversize: err = %v", err)
	}
}

type zeroes struct{}

func (zeroes) Read(p []byte) (int, error) { clear(p); return len(p), nil }
