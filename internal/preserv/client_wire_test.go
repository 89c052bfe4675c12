package preserv_test

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"preserv/internal/client"
	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/preserv"
	"preserv/internal/shard"
	"preserv/internal/soap"
	"preserv/internal/xmlwire"
)

// The client decodes every hot reply by hand — a Record's and the three
// record-carrying query replies — as the store has decoded the requests
// since PR 12. These tests pin what that means for a client talking to
// something other than this build's store: a handler double answers with
// bytes this repository's encoders never write.

// answering starts a store double that answers its n-th request with the
// n-th body in an envelope, the last body from then on, and returns a
// client for it.
func answering(t *testing.T, bodies ...string) *preserv.Client {
	t.Helper()
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		body := bodies[min(int(served.Add(1)), len(bodies))-1]
		w.Header().Set("Content-Type", soap.ContentType)
		fmt.Fprintf(w, `<?xml version="1.0" encoding="UTF-8"?>
<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">
 <soap:Header><action>%s-response</action></soap:Header>
 <soap:Body>%s</soap:Body>
</soap:Envelope>`, prep.ActionRecord, body)
	}))
	t.Cleanup(srv.Close)
	return preserv.NewClient(srv.URL, nil)
}

func sampleRecord(session ids.ID, localID string) core.Record {
	in := core.Interaction{ID: ids.New(), Sender: "svc:enactor", Receiver: "svc:gzip", Operation: "compress"}
	return *core.NewInteractionRecord(&core.InteractionPAssertion{
		LocalID: localID, Asserter: in.Sender, Interaction: in, View: core.SenderView,
		Request:   core.Message{Name: "compress", Parts: []core.MessagePart{{Name: "sample", DataID: ids.New(), Content: core.Bytes("MKVL<&>")}}},
		Response:  core.Message{Name: "compressResponse"},
		Groups:    []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: 1}},
		Timestamp: time.Date(2005, 7, 24, 10, 0, 0, 42, time.UTC),
	})
}

// A RecordResponse dressed as a foreign toolkit would send it — prolog,
// namespace prefixes, attributes, whitespace, unknown elements, a reject
// before accepted — reaches the caller as the value encoding/xml reads
// from the same bytes.
func TestClientReadsForeignRecordResponse(t *testing.T) {
	body := `
  <p:RecordResponse xmlns:p="urn:prep" status="partial">
   <p:reject seq="0"><p:reason>asserter &lt;svc:other&gt; &amp; sender differ</p:reason><p:index> 1 </p:index></p:reject>
   <!-- accepted comes second -->
   <p:accepted> 2 </p:accepted>
   <p:warnings><p:warning code="7">clock skew</p:warning></p:warnings>
   <p:reject><p:index>2</p:index><p:reason/></p:reject>
  </p:RecordResponse>
 `
	var want prep.RecordResponse
	if err := xml.Unmarshal([]byte(body), &want); err != nil {
		t.Fatal(err)
	}
	session := ids.New()
	got, err := answering(t, body).Record("svc:enactor", []core.Record{sampleRecord(session, "a"), sampleRecord(session, "b")})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, want) || want.Accepted != 2 || len(want.Rejects) != 2 || want.XMLName.Space != "urn:prep" {
		t.Errorf("Client.Record = %+v\nencoding/xml reads %+v", *got, want)
	}
}

// A reply written with a construct on xmlwire's refused list is an error
// the caller can recognise — never zero records accepted and no error —
// and an AsyncRecorder shipping to such a store keeps what it holds.
func TestClientRefusesUnsupportedRecordResponse(t *testing.T) {
	for name, body := range map[string]string{
		"cdata":   `<RecordResponse><accepted><![CDATA[1]]></accepted></RecordResponse>`,
		"comment": `<RecordResponse><accepted>1<!-- one --></accepted></RecordResponse>`,
	} {
		t.Run(name, func(t *testing.T) {
			var oracle prep.RecordResponse
			if err := xml.Unmarshal([]byte(body), &oracle); err != nil || oracle.Accepted != 1 {
				t.Fatalf("encoding/xml reads %+v, %v: the reply is meant to be one only the hand decoder refuses", oracle, err)
			}
			store := answering(t, body)
			session := ids.New()
			resp, err := store.Record("svc:enactor", []core.Record{sampleRecord(session, "a")})
			if resp != nil || !errors.Is(err, xmlwire.ErrUnsupported) {
				t.Fatalf("Client.Record = %+v, %v; want an ErrUnsupported error", resp, err)
			}

			journal := filepath.Join(t.TempDir(), "journal")
			rec, err := client.NewAsyncRecorder("svc:enactor", journal, 2, store)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Record(sampleRecord(session, "a"), sampleRecord(session, "b"), sampleRecord(session, "c")); err != nil {
				t.Fatal(err)
			}
			if err := rec.Flush(); !errors.Is(err, xmlwire.ErrUnsupported) {
				t.Fatalf("Flush: %v, want an ErrUnsupported error", err)
			}
			sealed, _ := filepath.Glob(journal + ".*.sealed")
			if stats := rec.Stats(); stats.Shipped != 0 || rec.Pending() != 3 || len(sealed) != 1 {
				t.Errorf("after the refused flush: shipped %d, pending %d, sealed journals %v; want 0, 3 and one file", stats.Shipped, rec.Pending(), sealed)
			}
		})
	}
}

// foreignRecord is a record as a foreign toolkit would write it:
// prefixed, its children out of order, with an attribute, an unknown
// element and a self-closed empty message.
func foreignRecord(localID string) string {
	id := "urn:pasoa:000000000000000000000000000000aa"
	return `<p:record xmlns:p="urn:prep" v="2"><p:interactionPAssertion><p:view>sender</p:view><p:unknown><deep a="1">x</deep></p:unknown>` +
		`<p:response><p:part><p:content>aGk=</p:content><p:name>out</p:name><p:dataId/></p:part><p:name>resp</p:name></p:response>` +
		`<p:group><p:seq> 7 </p:seq><p:id>` + id + `</p:id><p:type>session</p:type></p:group>` +
		`<p:interaction><p:operation>op</p:operation><p:id>` + id + `</p:id><p:sender>c</p:sender><p:receiver>s</p:receiver></p:interaction>` +
		`<p:localId>` + localID + `</p:localId><p:timestamp>2005-07-24T10:00:00+01:00</p:timestamp>` +
		`<p:asserter>c</p:asserter><p:request/></p:interactionPAssertion><p:kind>interaction</p:kind></p:record>`
}

// foreignPlan is a plan sent in two pieces: the scalars merge, the dims
// and their counts append across both, an empty <dim/> included.
const foreignPlan = `<plan kind="first"><dim>session</dim><dimCount>12</dimCount><dim/><strategy>index</strategy><cached> true </cached></plan>` +
	`<!-- between --><plan><dimCount/><dim>service &amp; more</dim><postings> 30 </postings><estCandidates>12</estCandidates>` +
	`<dimCount> 40 </dimCount><candidates>2</candidates><why/></plan>`

// The three record-carrying replies dressed as a foreign store would
// send them reach the caller as the values encoding/xml reads from the
// same bytes.
func TestClientReadsForeignQueryReplies(t *testing.T) {
	q := &prep.Query{Kind: "interaction"}
	t.Run("Query", func(t *testing.T) {
		body := "\n <QueryResponse v=\"1\">" + foreignRecord("a") + "<!-- total comes second --><total> 2 </total><extra><deep/></extra>" +
			foreignRecord("b") + "\n </QueryResponse>\n"
		var want prep.QueryResponse
		if err := xml.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		records, total, err := answering(t, body).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(records, want.Records) || total != want.Total || total != 2 || len(records) != 2 || records[1].Interaction.LocalID != "b" {
			t.Errorf("Client.Query = %+v, %d\nencoding/xml reads %+v", records, total, want)
		}
	})
	t.Run("QueryPlanned", func(t *testing.T) {
		body := `<p:PlannedQueryResponse xmlns:p="urn:prep">` + foreignRecord("a") + foreignPlan + `<p:total>1</p:total></p:PlannedQueryResponse>`
		var want prep.PlannedQueryResponse
		if err := xml.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		records, total, plan, err := answering(t, body).QueryPlanned(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(records, want.Records) || total != want.Total || !reflect.DeepEqual(*plan, want.Plan) ||
			!reflect.DeepEqual(plan.Dims, []string{"session", "", "service & more"}) || !reflect.DeepEqual(plan.DimCounts, []int{12, 0, 40}) ||
			!plan.Cached || plan.Postings != 30 {
			t.Errorf("Client.QueryPlanned = %+v, %d, %+v\nencoding/xml reads %+v", records, total, *plan, want)
		}
	})
	t.Run("QueryPage", func(t *testing.T) {
		body := `<PageQueryResponse>` + foreignRecord("a") + `<done> true </done><next>cur&lt;sor</next>` + foreignPlan + foreignRecord("b") + `<next/></PageQueryResponse>`
		var want prep.PageQueryResponse
		if err := xml.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		page, err := answering(t, body).QueryPage(q, "", 50)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*page, want) || !page.Done || page.Next != "" || len(page.Records) != 2 || len(page.Plan.Dims) != 3 {
			t.Errorf("Client.QueryPage = %+v\nencoding/xml reads %+v", *page, want)
		}
	})
}

// A query reply written with a construct on xmlwire's refused list is an
// error the caller can recognise — never zero records and no error —
// whichever of the three actions asked, and a router over such a child
// reports it instead of merging an empty answer.
func TestClientRefusesUnsupportedQueryReplies(t *testing.T) {
	q := &prep.Query{Kind: "interaction"}
	query := func(s shard.Shard) error { _, _, err := s.Query(q); return err }
	planned := func(s shard.Shard) error { _, _, _, err := s.QueryPlanned(q); return err }
	page := func(s shard.Shard) error { _, _, _, _, err := s.QueryPage(q, "", 50); return err }
	for _, reply := range []struct {
		body   string
		oracle interface{}
		ask    func(shard.Shard) error
	}{
		{`<QueryResponse><total><![CDATA[1]]></total>` + foreignRecord("a") + `</QueryResponse>`, &prep.QueryResponse{}, query},
		{`<QueryResponse><total>1<!-- one --></total>` + foreignRecord("a") + `</QueryResponse>`, &prep.QueryResponse{}, query},
		{`<PlannedQueryResponse><total><![CDATA[1]]></total>` + foreignPlan + foreignRecord("a") + `</PlannedQueryResponse>`, &prep.PlannedQueryResponse{}, planned},
		{`<PlannedQueryResponse><total>1</total><plan><dim>ses<!-- s -->sion</dim></plan>` + foreignRecord("a") + `</PlannedQueryResponse>`, &prep.PlannedQueryResponse{}, planned},
		{foreignPage("a", `<next>cur<!-- c -->sor</next><done>false</done>`), &prep.PageQueryResponse{}, page},
		{foreignPage("a", `<next><![CDATA[cursor]]></next>`), &prep.PageQueryResponse{}, page},
	} {
		if err := xml.Unmarshal([]byte(reply.body), reply.oracle); err != nil {
			t.Fatalf("encoding/xml: %v: the reply is meant to be one only the hand decoder refuses\n%s", err, reply.body)
		}
		child := preserv.NewRemoteShard(answering(t, reply.body))
		if err := reply.ask(child); !errors.Is(err, xmlwire.ErrUnsupported) {
			t.Errorf("client: err = %v, want an ErrUnsupported error\n%s", err, reply.body)
		}
		router, err := shard.NewRouter(child)
		if err != nil {
			t.Fatal(err)
		}
		if err := reply.ask(router); !errors.Is(err, xmlwire.ErrUnsupported) {
			t.Errorf("router over the child: err = %v, want the child's ErrUnsupported error\n%s", err, reply.body)
		}
	}
}

// foreignPage is a PageQueryResponse holding one record and rest.
func foreignPage(localID, rest string) string {
	return `<PageQueryResponse>` + foreignRecord(localID) + rest + `</PageQueryResponse>`
}

// A walk whose second page is such a reply ends with that error, having
// delivered the first page's records and nothing else. (The third page
// ends the walk of a client that reads the second.)
func TestQueryStreamStopsAtUnsupportedPage(t *testing.T) {
	first := `<PageQueryResponse><next>c2</next><done>false</done>` + foreignRecord("a") + foreignRecord("b") + `</PageQueryResponse>`
	second := foreignPage("c", `<next>c3<!-- more --></next><done>false</done>`)
	third := foreignPage("d", `<done>true</done>`)
	var delivered []string
	plan, err := answering(t, first, second, third).QueryStream(&prep.Query{Kind: "interaction"}, 2, func(r *core.Record) error {
		delivered = append(delivered, r.Interaction.LocalID)
		return nil
	})
	if plan != nil || !errors.Is(err, xmlwire.ErrUnsupported) {
		t.Errorf("QueryStream = %+v, %v; want an ErrUnsupported error", plan, err)
	}
	if !reflect.DeepEqual(delivered, []string{"a", "b"}) {
		t.Errorf("delivered %q, want exactly the first page", delivered)
	}
}

// Post decodes a reply out of a pooled buffer the next Post overwrites,
// and a router keeps decoded records in its result cache: nothing a
// decoder hands out may alias the bytes it read. Every hot message is
// decoded, its source overwritten, and the value compared with one
// decoded from bytes left alone.
func TestDecodedMessagesOwnTheirBytes(t *testing.T) {
	session := ids.New()
	records := []core.Record{sampleRecord(session, "a"), sampleRecord(session, "b")}
	plan := prep.QueryPlan{Strategy: prep.PlanIndex, Dims: []string{"session", "service"}, DimCounts: []int{2, 9}, EstCandidates: 2, Postings: 2, Candidates: 2}
	q := prep.Query{SessionID: session, Kind: "interaction", Service: "svc:gzip", Since: time.Date(2005, 7, 1, 0, 0, 0, 0, time.UTC), Limit: 10}
	for _, msg := range []interface{}{
		&prep.RecordRequest{Asserter: "svc:enactor", Records: records},
		&q,
		&prep.PageQueryRequest{Query: q, After: "cursor-1", PageSize: 50},
		&prep.RecordResponse{Accepted: 1, Rejects: []prep.Reject{{Index: 1, Reason: "a <reason>"}}},
		&prep.QueryResponse{Total: 2, Records: records},
		&prep.PlannedQueryResponse{Total: 2, Plan: plan, Records: records},
		&prep.PageQueryResponse{Plan: plan, Next: "cursor-2", Records: records},
	} {
		fresh := func() interface{} { return reflect.New(reflect.TypeOf(msg).Elem()).Interface() }
		if _, byHand := fresh().(interface {
			DecodeXML(*xmlwire.Decoder) error
		}); !byHand {
			t.Errorf("%T has no decoder of its own", msg)
		}
		source, err := soap.Marshal("urn:test", msg)
		if err != nil {
			t.Fatal(err)
		}
		decode := func(data []byte) interface{} { // as Post and ServeHTTP do
			into := fresh()
			if err := soap.DecodeEnvelope(data, into); err != nil {
				t.Fatalf("%T: %v", msg, err)
			}
			return into
		}
		want, got := decode(bytes.Clone(source)), decode(source)
		for i := range source {
			source[i] = 'X'
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T changed when the bytes it was decoded from were overwritten\n got %+v\nwant %+v", msg, got, want)
		}
		sameXML(t, fmt.Sprintf("the %T decoded", msg), got, msg)
	}
}

// xmlPeer is a store that is pure encoding/xml, as every build before
// PR 12 was: it unmarshals the envelope and the request with
// xml.Unmarshal, keeps the request it read, and marshals its reply with
// xml.Marshal.
type xmlPeer struct {
	t       *testing.T
	records []core.Record
	plan    prep.QueryPlan
	request interface{}
}

func (p *xmlPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	data, _ := io.ReadAll(r.Body)
	var env soap.Envelope
	if err := xml.Unmarshal(data, &env); err != nil {
		p.t.Errorf("encoding/xml cannot read the client's envelope: %v\n%s", err, data)
	}
	var reply interface{}
	switch env.Header.Action {
	case prep.ActionRecord:
		p.request, reply = &prep.RecordRequest{}, &prep.RecordResponse{Accepted: len(p.records), Rejects: []prep.Reject{{Index: 1, Reason: "a <reason>"}}}
	case prep.ActionQuery:
		p.request, reply = &prep.Query{}, &prep.QueryResponse{Total: len(p.records), Records: p.records}
	case prep.ActionPlannedQuery:
		p.request, reply = &prep.Query{}, &prep.PlannedQueryResponse{Total: len(p.records), Plan: p.plan, Records: p.records}
	case prep.ActionQueryPage:
		p.request, reply = &prep.PageQueryRequest{}, &prep.PageQueryResponse{Plan: p.plan, Next: "cursor-2", Records: p.records}
	default:
		p.t.Errorf("unexpected action %q", env.Header.Action)
		return
	}
	if err := xml.Unmarshal(env.Body.Inner, p.request); err != nil {
		p.t.Errorf("encoding/xml cannot read the client's %T: %v\n%s", p.request, err, env.Body.Inner)
	}
	inner, err := xml.Marshal(reply)
	if err != nil {
		p.t.Error(err)
	}
	out, err := xml.Marshal(soap.Envelope{Header: soap.Header{Action: env.Header.Action + "-response", MessageID: ids.New()}, Body: soap.Body{Inner: inner}})
	if err != nil {
		p.t.Error(err)
	}
	w.Header().Set("Content-Type", soap.ContentType)
	w.Write(out)
}

// sameXML compares two values by what encoding/xml writes for them,
// which leaves out what the wire does not carry (XMLName, a time's
// location pointer).
func sameXML(t *testing.T, what string, got, want interface{}) {
	t.Helper()
	g, err := xml.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := xml.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Errorf("%s differs\n got %s\nwant %s", what, g, w)
	}
}

// Mixed versions: a store on encoding/xml alone reads what the client
// writes by hand and is read by it, value for value — so a new client or
// front can be rolled out before its children.
func TestClientInteroperatesWithEncodingXMLPeer(t *testing.T) {
	session := ids.New()
	peer := &xmlPeer{t: t,
		records: []core.Record{sampleRecord(session, "a"), sampleRecord(session, "b")},
		plan:    prep.QueryPlan{Strategy: prep.PlanIndex, Dims: []string{"session"}, DimCounts: []int{2}, EstCandidates: 2, Postings: 2, Candidates: 2},
	}
	srv := httptest.NewServer(peer)
	defer srv.Close()
	c := preserv.NewClient(srv.URL, nil)

	resp, err := c.Record("svc:enactor", peer.records)
	if err != nil {
		t.Fatal(err)
	}
	sameXML(t, "the RecordRequest the peer read", peer.request, &prep.RecordRequest{Asserter: "svc:enactor", Records: peer.records})
	sameXML(t, "the RecordResponse the client read", resp, &prep.RecordResponse{Accepted: 2, Rejects: []prep.Reject{{Index: 1, Reason: "a <reason>"}}})

	q := &prep.Query{SessionID: session, Kind: "interaction", Service: "svc:gzip", Since: time.Date(2005, 7, 1, 0, 0, 0, 0, time.FixedZone("", 3600)), Limit: 10}
	scanned, total, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	sameXML(t, "the Query the peer read for a scan", peer.request, q)
	sameXML(t, "the scan reply the client read", &prep.QueryResponse{Total: total, Records: scanned}, &prep.QueryResponse{Total: 2, Records: peer.records})

	records, total, plan, err := c.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	sameXML(t, "the Query the peer read", peer.request, q)
	sameXML(t, "the planned reply the client read", &prep.PlannedQueryResponse{Total: total, Plan: *plan, Records: records},
		&prep.PlannedQueryResponse{Total: 2, Plan: peer.plan, Records: peer.records})

	page, err := c.QueryPage(q, "cursor-1", 50)
	if err != nil {
		t.Fatal(err)
	}
	sameXML(t, "the PageQueryRequest the peer read", peer.request, &prep.PageQueryRequest{Query: *q, After: "cursor-1", PageSize: 50})
	sameXML(t, "the page the client read", page, &prep.PageQueryResponse{Plan: peer.plan, Next: "cursor-2", Records: peer.records})
}
