package prep

import (
	"bytes"
	"encoding/xml"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/xmlwire"
)

// The differential tests below keep encoding/xml as the oracle for the
// hand-written codec: over generated messages, every AppendXML must
// produce xml.Marshal's bytes (and fail when it fails) and every
// DecodeXML must produce xml.Unmarshal's value under reflect.DeepEqual.
// That is the byte-identity contract that lets the hand-written side
// talk to a peer on encoding/xml — an older build of this repository,
// whose client read query replies that way.

// gen draws message parts, biased towards the values where the two
// codecs could part ways.
type gen struct{ *rand.Rand }

var hostileStrings = []string{
	"", "", "plain", "svc:gzip-compression", `a<b>&"'c`, "tab\there", "cr\rlf\ncrlf\r\n",
	"\x00\x01\x1f", "\xff\xfe invalid", "é世界🙂", "\uFFFD", "\uFFFE", "]]>", "  padded  ",
	"&amp;", strings.Repeat("long<>", 50),
}

func (g gen) str() string {
	s := hostileStrings[g.Intn(len(hostileStrings))]
	if g.Intn(4) == 0 {
		s += hostileStrings[g.Intn(len(hostileStrings))]
	}
	return s
}

func (g gen) id() ids.ID {
	if g.Intn(3) == 0 {
		return ids.Nil
	}
	return ids.New()
}

func (g gen) bytes() core.Bytes {
	switch g.Intn(4) {
	case 0:
		return nil
	case 1:
		return core.Bytes{}
	}
	b := make(core.Bytes, g.Intn(100))
	g.Read(b)
	return b
}

func (g gen) time() time.Time {
	switch g.Intn(8) {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(g.Int63n(1<<32), g.Int63n(1e9)).In(time.FixedZone("", (g.Intn(27)-12)*3600+g.Intn(2)*1800))
	case 2:
		return time.Unix(g.Int63n(1<<32), 0).Local()
	case 3:
		return time.Date(10000+g.Intn(2), 1, 1, 0, 0, 0, 0, time.UTC) // xml.Marshal refuses the year
	}
	return time.Unix(g.Int63n(1<<32), g.Int63n(1e9)).UTC()
}

func (g gen) view() core.View {
	if g.Intn(20) == 0 {
		return core.View(g.Intn(5)) // 0, 3 and 4 cannot be marshalled
	}
	return core.View(1 + g.Intn(2))
}

func (g gen) kind() core.Kind {
	if g.Intn(20) == 0 {
		return core.Kind(g.Intn(4)) // 0 and 3 cannot be marshalled
	}
	return core.Kind(1 + g.Intn(2))
}

func (g gen) int() int {
	switch g.Intn(6) {
	case 0:
		return 0
	case 1:
		return -1 - g.Intn(5)
	case 2:
		return g.Int()
	}
	return g.Intn(1000)
}

// leaves are the types fill draws whole; every other type it reaches
// is filled by kind, so the values follow the structs' declarations
// and not a list kept here.
var leaves = map[reflect.Type]func(gen) any{
	reflect.TypeOf(ids.ID{}):     func(g gen) any { return g.id() },
	reflect.TypeOf(time.Time{}):  func(g gen) any { return g.time() },
	reflect.TypeOf(core.Bytes{}): func(g gen) any { return g.bytes() },
	reflect.TypeOf(core.View(0)): func(g gen) any { return g.view() },
	reflect.TypeOf(core.Kind(0)): func(g gen) any { return g.kind() },
	reflect.TypeOf(xml.Name{}):   func(gen) any { return xml.Name{} }, // XMLName: set by decoding only
}

// fill draws a value for every field under v, whatever the fields
// are: a field added to a message or to the record is filled, and so
// marshalled by the oracle, before the codec knows it — which fails
// the differential tests until it does.
func (g gen) fill(t *testing.T, v reflect.Value) {
	if leaf, ok := leaves[v.Type()]; ok {
		v.Set(reflect.ValueOf(leaf(g)))
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(g.str())
	case reflect.Int:
		v.SetInt(int64(g.int()))
	case reflect.Uint64:
		v.SetUint(g.Uint64() >> uint(g.Intn(64)))
	case reflect.Bool:
		v.SetBool(g.Intn(2) == 0)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		g.fill(t, v.Elem())
	case reflect.Slice:
		n := g.Intn(4)
		if n > 0 || g.Intn(4) == 0 { // else nil; sometimes empty instead
			v.Set(reflect.MakeSlice(v.Type(), n, n))
		}
		for i := 0; i < n; i++ {
			g.fill(t, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("%s.%s is unexported: encoding/xml ignores it, so must the codec — and fill", v.Type(), v.Type().Field(i).Name)
			}
			g.fill(t, v.Field(i))
		}
		if r, ok := v.Addr().Interface().(*core.Record); ok {
			g.shape(r)
		}
	default:
		t.Fatalf("fill cannot draw a %s (%s): teach it, and the codec", v.Type(), v.Kind())
	}
}

// shape leaves a filled record mostly with the payload its kind calls
// for; sometimes with none, the other, or both.
func (g gen) shape(r *core.Record) {
	switch shape := g.Intn(20); {
	case shape == 0:
	case shape == 1:
		r.ActorState = nil
	case shape == 2:
		r.Interaction, r.ActorState = nil, nil
	case r.Kind == core.KindActorState:
		r.Interaction = nil
	default:
		r.ActorState = nil
	}
}

func (g gen) record(t *testing.T) core.Record {
	var r core.Record
	g.fill(t, reflect.ValueOf(&r).Elem())
	return r
}

// wireEncoder and wireDecoder are what internal/soap looks for.
type wireEncoder interface {
	AppendXML(dst []byte) ([]byte, error)
}

type wireDecoder interface {
	DecodeXML(d *xmlwire.Decoder) error
}

// hotMessages is a zero value of each of the seven record-carrying
// messages: the three requests and the four replies, all written and
// read by hand.
func hotMessages() []any {
	return []any{
		&RecordRequest{}, &Query{}, &PageQueryRequest{},
		&RecordResponse{}, &QueryResponse{}, &PlannedQueryResponse{}, &PageQueryResponse{},
	}
}

// Every record-carrying message has both halves of the codec, so
// neither side of the wire reflects over a hot request or its reply. A
// message added to hotMessages fails here until it has an AppendXML and
// a DecodeXML.
func TestHotMessagesHaveTheirCodecHalves(t *testing.T) {
	for _, msg := range hotMessages() {
		_, enc := msg.(wireEncoder)
		_, dec := msg.(wireDecoder)
		if !enc || !dec {
			t.Errorf("%T: encoder %v, decoder %v; want both", msg, enc, dec)
		}
	}
}

// decodeXML runs a message's hand decoder over a whole document.
func decodeXML(data []byte, into wireDecoder) error {
	d := xmlwire.NewDecoder(data)
	if err := d.Root(); err != nil {
		return err
	}
	return into.DecodeXML(d)
}

func TestMessagesMatchEncodingXML(t *testing.T) {
	g := gen{rand.New(rand.NewSource(12))}
	refused := 0
	for i := 0; i < 3000; i++ {
		n := g.Intn(len(hotMessages()))
		msg := hotMessages()[n]
		g.fill(t, reflect.ValueOf(msg).Elem())
		want, wantErr := xml.Marshal(msg)
		if enc, ok := msg.(wireEncoder); ok {
			got, gotErr := enc.AppendXML([]byte("x"))
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%T: xml.Marshal err = %v, AppendXML err = %v\n%+v", msg, wantErr, gotErr, msg)
			}
			if wantErr == nil && string(got) != "x"+string(want) {
				t.Fatalf("%T: AppendXML differs from xml.Marshal\n got %s\nwant %s", msg, got[1:], want)
			}
		}
		if wantErr != nil {
			refused++
			continue
		}
		if into, ok := hotMessages()[n].(wireDecoder); ok {
			oracleInto := hotMessages()[n]
			wantErr, gotErr := xml.Unmarshal(want, oracleInto), decodeXML(want, into)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%T: xml.Unmarshal err = %v, DecodeXML err = %v\n%s", msg, wantErr, gotErr, want)
			}
			if wantErr == nil && !reflect.DeepEqual(into, oracleInto) {
				t.Fatalf("%T: DecodeXML differs from xml.Unmarshal on\n%s\n got %+v\nwant %+v", msg, want, into, oracleInto)
			}
		}
	}
	if refused == 0 || refused > 1500 {
		t.Errorf("%d of 3000 messages were unmarshallable: the generator should produce some, not mostly", refused)
	}
}

func TestRecordMatchesEncodingXML(t *testing.T) {
	g := gen{rand.New(rand.NewSource(7))}
	for i := 0; i < 2000; i++ {
		rec := g.record(t)
		want, wantErr := xml.Marshal(&rec)
		got, gotErr := rec.AppendXML(nil, "Record")
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("xml.Marshal err = %v, AppendXML err = %v\n%+v", wantErr, gotErr, rec)
		}
		if wantErr != nil {
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendXML differs from xml.Marshal\n got %s\nwant %s", got, want)
		}
		var a, b core.Record
		wantErr = xml.Unmarshal(want, &a)
		d := xmlwire.NewDecoder(want)
		gotErr = d.Root()
		if gotErr == nil {
			var rd core.RecordDecoder
			gotErr = rd.Decode(d, &b)
		}
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("xml.Unmarshal err = %v, DecodeXML err = %v\n%s", wantErr, gotErr, want)
		}
		if wantErr == nil && !reflect.DeepEqual(a, b) {
			t.Fatalf("DecodeXML differs from xml.Unmarshal on\n%s\n got %+v\nwant %+v", want, b, a)
		}
	}
}

// Today's wire carries an empty <dataId> for a part without one:
// omitempty never fires on a struct. Peers on encoding/xml send and
// expect it.
func TestStructFieldsAreNeverOmitted(t *testing.T) {
	rec := core.Record{Kind: core.KindInteraction, Interaction: &core.InteractionPAssertion{
		View: core.SenderView, Request: core.Message{Parts: []core.MessagePart{{Name: "p"}}},
	}}
	got, err := rec.AppendXML(nil, "record")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "<part><name>p</name><dataId></dataId></part>") {
		t.Errorf("part without data id: %s", got)
	}
}

// Documents no encoder of ours writes but a peer may: children
// reordered and repeated, unknown elements, self-closing empties,
// attributes, namespaces, a prolog, comments. They must decode as
// encoding/xml decodes them.
func TestForeignDocumentsDecodeAsToday(t *testing.T) {
	id := "urn:pasoa:000000000000000000000000000000aa"
	rec := `<record v="2"><interactionPAssertion><view>sender</view><unknown><deep a="1">x</deep></unknown>` +
		`<response><part><content>aGk=</content><name>out</name><dataId/></part><name>resp</name></response>` +
		`<group><seq> 7 </seq><id>` + id + `</id><type>session</type></group>` +
		`<interaction><operation>op</operation><id>` + id + `</id><sender>c</sender><receiver>s</receiver></interaction>` +
		`<localId>first</localId><localId>last</localId><timestamp>2005-07-24T10:00:00+01:00</timestamp>` +
		`<asserter>c</asserter><request/></interactionPAssertion><kind>interaction</kind></record>`
	state := `<record><kind>actorState</kind><actorStatePAssertion><content/><stateKind>script</stateKind>` +
		`<view>receiver</view></actorStatePAssertion><actorStatePAssertion><localId>merged</localId></actorStatePAssertion></record>`
	docs := []struct {
		in   string
		into func() wireDecoder
	}{
		{`<?xml version="1.0" encoding="UTF-8"?>` + "\n<RecordRequest>\n  " + rec + "\n  <!-- between -->" + state +
			"\n  <asserter>c</asserter>\n</RecordRequest>\n", func() wireDecoder { return &RecordRequest{} }},
		{`<p:RecordRequest xmlns:p="urn:prep"><p:asserter>c</p:asserter><p:record/></p:RecordRequest>`,
			func() wireDecoder { return &RecordRequest{} }},
		{`<RecordRequest xmlns="urn:prep"/>`, func() wireDecoder { return &RecordRequest{} }},
		{`<Query><limit>5</limit><since>2005-07-24T10:00:00Z</since><kind>interaction</kind><sessionId>` + id + `</sessionId><extra/></Query>`,
			func() wireDecoder { return &Query{} }},
		{`<PageQueryRequest><pageSize>10</pageSize><q:Query xmlns:q="urn:q"><kind>actorState</kind></q:Query><after>cur</after></PageQueryRequest>`,
			func() wireDecoder { return &PageQueryRequest{} }},
		{`<?xml version="1.0"?>` + "\n" + `<p:RecordResponse xmlns:p="urn:prep" v="1">` + "\n  " +
			`<p:reject><p:reason>bad &amp; worse</p:reason><p:index> 2 </p:index><why/></p:reject><!-- between -->` +
			`<p:accepted> 3 </p:accepted><p:reject/><extra><deep a="1"/></extra><accepted/>` + "\n</p:RecordResponse>",
			func() wireDecoder { return &RecordResponse{} }},
		// The three replies as a foreign store might dress them: records
		// before the total, a plan in two pieces whose scalars merge and
		// whose dims and counts append across both.
		{`<?xml version="1.0"?>` + "\n" + `<p:QueryResponse xmlns:p="urn:prep" v="1">` + rec + `<!-- between -->` +
			`<p:total> 2 </p:total><extra><deep a="1"/></extra>` + state + `<total/>` + "\n</p:QueryResponse>\n",
			func() wireDecoder { return &QueryResponse{} }},
		{`<PlannedQueryResponse xmlns="urn:prep">` + state + `<plan kind="first"><dim>session</dim><dimCount>12</dimCount><dim/>` +
			`<strategy>index</strategy><cached> true </cached><why/></plan><total>7</total>` +
			`<p:plan xmlns:p="urn:p"><dimCount/><dim>service &amp; more</dim><p:postings> 30 </p:postings><estCandidates>12</estCandidates>` +
			`<dimCount> 40 </dimCount><candidates>5</candidates></p:plan>` + rec + `</PlannedQueryResponse>`,
			func() wireDecoder { return &PlannedQueryResponse{} }},
		{`<?xml version="1.0" encoding="UTF-8"?>` + "\n<PageQueryResponse>\n  " + rec + `<done> true </done><next>cur&lt;sor</next>` +
			`<plan><strategy>scan</strategy><dimCount>3</dimCount><dim>kind</dim></plan><unknown><plan><strategy>no</strategy></plan></unknown>` +
			state + `<plan><dim/><dimCount>4</dimCount><cached>1</cached></plan><next/>` + "\n</PageQueryResponse>",
			func() wireDecoder { return &PageQueryResponse{} }},
		{`<PageQueryResponse><done/><plan/><record/></PageQueryResponse>`, func() wireDecoder { return &PageQueryResponse{} }},
		// Both must refuse these.
		{`<QueryResponse><total>many</total></QueryResponse>`, func() wireDecoder { return &QueryResponse{} }},
		{`<PlannedQueryResponse><total>many</total></PlannedQueryResponse>`, func() wireDecoder { return &PlannedQueryResponse{} }},
		{`<PlannedQueryResponse><plan><dimCount>1.5</dimCount></plan></PlannedQueryResponse>`, func() wireDecoder { return &PlannedQueryResponse{} }},
		{`<PageQueryResponse><done>maybe</done></PageQueryResponse>`, func() wireDecoder { return &PageQueryResponse{} }},
		{`<PageQueryResponse><plan><cached>2</cached></plan></PageQueryResponse>`, func() wireDecoder { return &PageQueryResponse{} }},
		{`<PageQueryResponses/>`, func() wireDecoder { return &PageQueryResponse{} }},
		{`<QueryResponse><record><kind>neither</kind></record></QueryResponse>`, func() wireDecoder { return &QueryResponse{} }},
		{`<RecordResponses/>`, func() wireDecoder { return &RecordResponse{} }},
		{`<RecordResponse><accepted>three</accepted></RecordResponse>`, func() wireDecoder { return &RecordResponse{} }},
		{`<RecordResponse><reject><index>1.5</index></reject></RecordResponse>`, func() wireDecoder { return &RecordResponse{} }},
		{`<RecordRequests/>`, func() wireDecoder { return &RecordRequest{} }},
		{`<RecordRequest><record><kind>neither</kind></record></RecordRequest>`, func() wireDecoder { return &RecordRequest{} }},
		{`<RecordRequest><record><interactionPAssertion><view>up</view></interactionPAssertion></record></RecordRequest>`,
			func() wireDecoder { return &RecordRequest{} }},
		{`<Query><sessionId>not-an-id</sessionId></Query>`, func() wireDecoder { return &Query{} }},
		{`<Query><since>yesterday</since></Query>`, func() wireDecoder { return &Query{} }},
		{`<Query><limit>many</limit></Query>`, func() wireDecoder { return &Query{} }},
		{`<PageQueryRequest><Query></PageQueryRequest>`, func() wireDecoder { return &PageQueryRequest{} }},
	}
	for _, doc := range docs {
		want, got := doc.into(), doc.into()
		wantErr := xml.Unmarshal([]byte(doc.in), want)
		gotErr := decodeXML([]byte(doc.in), got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("xml.Unmarshal err = %v, DecodeXML err = %v on\n%s", wantErr, gotErr, doc.in)
			continue
		}
		if errors.Is(gotErr, xmlwire.ErrUnsupported) {
			t.Errorf("refused as unsupported: %v\n%s", gotErr, doc.in)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("DecodeXML differs from xml.Unmarshal on\n%s\n got %+v\nwant %+v", doc.in, got, want)
		}
	}
}

// Documents that exercise how one message's records share memory: the
// parts, groups and p-assertions of all its records come from shared
// slabs, and their strings and contents from one arena. Lists that
// append across a sibling, a repeated p-assertion merging into the
// first, and empty contents must still decode as encoding/xml decodes
// them, and bad base64 must fail with the same error. Records before
// each grow the slabs, so that its lists open with room to spare, and a
// record after it shows a list left open onto a neighbour.
func TestSharedMemoryEdgeCasesMatchEncodingXML(t *testing.T) {
	id := "urn:pasoa:000000000000000000000000000000aa"
	group := func(typ string) string {
		return `<group><type>` + typ + `</type><id>` + id + `</id><seq>1</seq></group>`
	}
	part := func(name, content string) string { return `<part><name>` + name + `</name>` + content + `</part>` }
	next := `<record><kind>interaction</kind><interactionPAssertion><localId>next</localId>` +
		`<request>` + part("n1", `<content>bmV4dA==</content>`) + part("n2", "") + part("n3", "") + `</request>` +
		group("session") + group("thread") + `</interactionPAssertion></record>`
	for _, body := range []string{
		// two <request>s: the second's parts append to the first's
		`<interactionPAssertion><request><name>a</name>` + part("p1", "") + `</request>` +
			`<response>` + part("r1", "") + `</response><request>` + part("p2", "") + part("p3", "") + `</request></interactionPAssertion>`,
		// <group>s split by a <timestamp> and by a <request>
		`<interactionPAssertion>` + group("session") + `<timestamp>2005-07-24T10:00:00Z</timestamp>` + group("thread") +
			`<request>` + part("p1", "") + `</request>` + group("other") + `</interactionPAssertion>`,
		`<actorStatePAssertion>` + group("session") + `<timestamp>2005-07-24T10:00:00Z</timestamp>` + group("thread") + `</actorStatePAssertion>`,
		// two p-assertions of one kind in one <record> merge
		`<interactionPAssertion><localId>first</localId>` + group("session") + `<request>` + part("p1", "") + `</request></interactionPAssertion>` +
			`<interactionPAssertion><asserter>svc:a</asserter>` + group("thread") + `<request>` + part("p2", "") + `</request></interactionPAssertion>`,
		`<actorStatePAssertion><content>Zmlyc3Q=</content>` + group("session") + `</actorStatePAssertion>` +
			`<actorStatePAssertion><stateKind>script</stateKind>` + group("thread") + `</actorStatePAssertion>`,
		// empty contents are empty, not absent: DeepEqual tells a nil
		// slice from the empty one Bytes.UnmarshalText makes
		`<interactionPAssertion><request>` + part("self-closed", `<content/>`) + part("open-close", `<content></content>`) + `</request></interactionPAssertion>`,
		`<actorStatePAssertion><content/></actorStatePAssertion>`,
		`<actorStatePAssertion><content></content></actorStatePAssertion>`,
		// bad base64
		`<interactionPAssertion><request>` + part("bad", `<content>!!!!</content>`) + `</request></interactionPAssertion>`,
		`<actorStatePAssertion><content>aGk</content></actorStatePAssertion>`,
	} {
		doc := `<RecordRequest>` + next + next + `<record><kind>interaction</kind>` + body + `</record>` + next + `</RecordRequest>`
		var got, want RecordRequest
		wantErr, gotErr := xml.Unmarshal([]byte(doc), &want), decodeXML([]byte(doc), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("xml.Unmarshal err = %v, DecodeXML err = %v on\n%s", wantErr, gotErr, doc)
			continue
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() || !strings.HasPrefix(gotErr.Error(), "core: decoding content: ") {
				t.Errorf("DecodeXML err = %q, xml.Unmarshal err = %q on\n%s", gotErr, wantErr, doc)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("DecodeXML differs from xml.Unmarshal on\n%s\n got %+v\nwant %+v", doc, got, want)
		}
	}
}
