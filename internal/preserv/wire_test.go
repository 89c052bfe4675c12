package preserv

import (
	"encoding/xml"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/soap"
)

// postRaw posts a hand-written envelope and returns the reply's body.
func postRaw(t *testing.T, url, envelope string) []byte {
	t.Helper()
	resp, err := http.Post(url, soap.ContentType, strings.NewReader(envelope))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_, body, err := soap.Unmarshal(reply)
	if err != nil {
		t.Fatalf("reply is not an envelope: %v\n%s", err, reply)
	}
	return body
}

func envelope(action, body string) string {
	return `<Envelope><Header><action>` + action + `</action><messageId></messageId></Header><Body>` + body + `</Body></Envelope>`
}

// A peer's toolkit may send the same messages dressed differently — a
// prolog, namespace prefixes, attributes, unknown elements, children in
// another order, whitespace. The store takes them as it always has.
func TestForeignEnvelopeIsRecordedAndQueried(t *testing.T) {
	client, _ := startServer(t)
	session := ids.New()
	rec := mkRecord(session, "svc:gzip")
	recXML, err := xml.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(string(recXML), "<Record>"), "</Record>")
	body := postRaw(t, client.URL(), `<?xml version="1.0" encoding="UTF-8"?>
<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/" xmlns:p="urn:prep">
  <soap:Body>
    <p:RecordRequest version="1">
      <!-- the record comes before the asserter -->
      <p:record seq="0"><extension><deep/></extension>`+inner+`</p:record>
      <p:asserter>svc:enactor</p:asserter>
    </p:RecordRequest>
  </soap:Body>
  <soap:Header><p:messageId/><p:action>`+prep.ActionRecord+`</p:action></soap:Header>
</soap:Envelope>`)
	var resp prep.RecordResponse
	if err := soap.DecodeBody(body, &resp); err != nil || resp.Accepted != 1 {
		t.Fatalf("record reply %s: accepted %d, err %v", body, resp.Accepted, err)
	}
	got, total, err := client.Query(&prep.Query{SessionID: session})
	if err != nil || total != 1 || got[0].StorageKey() != rec.StorageKey() {
		t.Fatalf("query after foreign record: total %d err %v", total, err)
	}
	body = postRaw(t, client.URL(), envelope(prep.ActionPlannedQuery,
		"\n <Query>\n  <limit> 5 </limit>\n  <sessionId>"+session.String()+"</sessionId>\n  <hint/>\n </Query>\n"))
	var planned prep.PlannedQueryResponse
	if err := soap.DecodeBody(body, &planned); err != nil || planned.Total != 1 || len(planned.Records) != 1 {
		t.Fatalf("planned reply %s: total %d, err %v", body, planned.Total, err)
	}
}

// What the wire decoder refuses — malformed XML, and the well-formed
// constructs it does not support — is client input: every action
// answers it with a bad-request fault, and the store is untouched. The
// body is decoded where the envelope scan reaches it, so this also pins
// that no action acts on a request before the envelope's end is read:
// a well-formed Record whose envelope goes wrong after its Body leaves
// no record behind.
func TestUndecodableRequestsFaultAsBadRequest(t *testing.T) {
	client, svc := startServer(t)
	data, err := soap.Marshal(prep.ActionRecord, &prep.RecordRequest{Asserter: "svc:enactor", Records: []core.Record{mkRecord(ids.New(), "svc:gzip")}})
	if err != nil {
		t.Fatal(err)
	}
	record := strings.TrimSuffix(string(data), "</Envelope>")
	recordBody := record[strings.Index(record, "<Body>"):]
	requests := map[string]string{
		"tail after record":   record + `<x><y></x></Envelope>`,
		"second body":         record + recordBody + `</Envelope>`,
		"header after body":   record + `<Header><action>` + prep.ActionCount + `</action></Header></Envelope>`,
		"sessions, bad tail":  strings.TrimSuffix(envelope(prep.ActionSessions, ``), "</Envelope>") + `<x>`,
		"doctype":             `<!DOCTYPE Envelope>` + envelope(prep.ActionRecord, `<RecordRequest/>`),
		"cdata body":          envelope(prep.ActionRecord, `<![CDATA[<RecordRequest/>]]>`),
		"comment in scalar":   envelope(prep.ActionRecord, `<RecordRequest><asserter>svc:<!-- x -->enactor</asserter></RecordRequest>`),
		"element in scalar":   envelope(prep.ActionQuery, `<Query><kind>inter<b/>action</kind></Query>`),
		"cdata in scalar":     envelope(prep.ActionPlannedQuery, `<Query><kind><![CDATA[interaction]]></kind></Query>`),
		"pi in page size":     envelope(prep.ActionQueryPage, `<PageQueryRequest><pageSize>1<?x?>0</pageSize></PageQueryRequest>`),
		"wrong root":          envelope(prep.ActionRecord, `<Query/>`),
		"bad view":            envelope(prep.ActionRecord, `<RecordRequest><record><kind>interaction</kind><interactionPAssertion><view>sideways</view></interactionPAssertion></record></RecordRequest>`),
		"bad id":              envelope(prep.ActionQuery, `<Query><sessionId>nope</sessionId></Query>`),
		"bad entity":          envelope(prep.ActionQuery, `<Query><kind>&nbsp;</kind></Query>`),
		"control character":   envelope(prep.ActionQuery, "<Query><kind>\x01</kind></Query>"),
		"unclosed":            envelope(prep.ActionQueryPage, `<PageQueryRequest><Query>`),
		"empty body":          envelope(prep.ActionPlannedQuery, ``),
		"fault as request":    envelope(prep.ActionRecord, `<Fault><code>c</code><message>m</message></Fault>`),
		"bad delete":          envelope(prep.ActionDelete, `<DeleteRequest><sessionId>nope</sessionId></DeleteRequest>`),
		"bad compact":         envelope(prep.ActionCompact, `<CompactRequest>`),
		"bad stats":           envelope(prep.ActionStats, `<Stats/>`),
		"not an envelope":     `<Query/>`,
		"nesting too deep":    envelope(prep.ActionQuery, `<Query>`+strings.Repeat(`<a>`, 10001)+strings.Repeat(`</a>`, 10001)+`</Query>`),
		"latin-1 declaration": `<?xml version="1.0" encoding="ISO-8859-1"?>` + envelope(prep.ActionQuery, `<Query/>`),
	}
	for name, req := range requests {
		body := postRaw(t, client.URL(), req)
		if fault, ok := soap.AsFault(body); !ok || fault.Code != soap.FaultBadRequest {
			t.Errorf("%s: reply %s, want a bad-request fault", name, body)
		}
	}
	if cnt, err := svc.Provenance().Count(); err != nil || cnt.Records != 0 {
		t.Errorf("store holds %d records after only undecodable requests (err %v)", cnt.Records, err)
	}
	// The server is still answering.
	if resp, err := client.Record("svc:enactor", []core.Record{mkRecord(ids.New(), "svc:gzip")}); err != nil || resp.Accepted != 1 {
		t.Fatalf("record after the faults: %+v, err %v", resp, err)
	}
}

// A delete reply from an earlier server also carries whether that server
// compacted after the delete and why its compaction failed. The client
// reads what this reply type keeps, the deleted count and the garbage
// ratio, and passes over the rest.
func TestDeleteReplyOfEarlierServerDecodes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", soap.ContentType)
		io.WriteString(w, envelope(prep.ActionDelete, `<DeleteResponse><deleted>3</deleted><garbageRatio>0.25</garbageRatio>`+
			`<compacted>true</compacted><compactError>preserv: scheduled compaction: disk full</compactError></DeleteResponse>`))
	}))
	defer srv.Close()
	resp, err := NewClient(srv.URL, nil).DeleteSession(ids.New())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deleted != 3 || resp.GarbageRatio != 0.25 {
		t.Fatalf("decoded %+v, want 3 deleted and garbage ratio 0.25", resp)
	}
}
