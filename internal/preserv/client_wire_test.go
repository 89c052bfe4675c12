package preserv_test

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"preserv/internal/client"
	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/preserv"
	"preserv/internal/soap"
	"preserv/internal/xmlwire"
)

// The client decodes a Record's reply by hand, as the store has decoded
// the requests since PR 12. These tests pin what that means for a client
// talking to something other than this build's store: a handler double
// answers with bytes this repository's encoders never write.

// answering starts a store double that answers every request with body
// in an envelope, and returns a client for it.
func answering(t *testing.T, body string) *preserv.Client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
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
