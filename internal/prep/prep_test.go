package prep

import (
	"encoding/xml"
	"reflect"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
)

var seq = &ids.SeqSource{Prefix: 0xBB}

func interactionRecord(session ids.ID, receiver core.ActorID) *core.Record {
	in := core.Interaction{
		ID:        seq.NewID(),
		Sender:    "svc:enactor",
		Receiver:  receiver,
		Operation: "run",
	}
	return core.NewInteractionRecord(&core.InteractionPAssertion{
		LocalID:     "l1",
		Asserter:    in.Sender,
		Interaction: in,
		View:        core.SenderView,
		Request:     core.Message{Name: "invoke"},
		Response:    core.Message{Name: "result"},
		Groups:      []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: 1}},
		Timestamp:   time.Now(),
	})
}

func actorStateRecord(session ids.ID, receiver core.ActorID, kind string) *core.Record {
	in := core.Interaction{
		ID:        seq.NewID(),
		Sender:    "svc:enactor",
		Receiver:  receiver,
		Operation: "run",
	}
	return core.NewActorStateRecord(&core.ActorStatePAssertion{
		LocalID:     "s1",
		Asserter:    in.Receiver,
		Interaction: in,
		View:        core.ReceiverView,
		StateKind:   kind,
		Content:     core.Bytes("#!/bin/sh\n"),
		Groups:      []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: 2}},
		Timestamp:   time.Now(),
	})
}

func TestQueryValidate(t *testing.T) {
	good := []Query{
		{},
		{Kind: "interaction"},
		{Kind: "actorState", StateKind: core.StateScript},
		{Limit: 10},
	}
	for i, q := range good {
		if err := q.Validate(); err != nil {
			t.Errorf("good query %d rejected: %v", i, err)
		}
	}
	bad := []Query{
		{Kind: "weird"},
		{Limit: -1},
		{Kind: "interaction", StateKind: "script"},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

func TestMatchesInteractionID(t *testing.T) {
	session := seq.NewID()
	r := interactionRecord(session, "svc:gzip")
	q := Query{InteractionID: r.InteractionID()}
	if !q.Matches(r) {
		t.Error("record should match its own interaction id")
	}
	q.InteractionID = seq.NewID()
	if q.Matches(r) {
		t.Error("record should not match a different interaction id")
	}
}

func TestMatchesSession(t *testing.T) {
	s1, s2 := seq.NewID(), seq.NewID()
	r := interactionRecord(s1, "svc:gzip")
	if !(&Query{SessionID: s1}).Matches(r) {
		t.Error("session match failed")
	}
	if (&Query{SessionID: s2}).Matches(r) {
		t.Error("wrong session matched")
	}
}

func TestMatchesGroupID(t *testing.T) {
	s := seq.NewID()
	r := interactionRecord(s, "svc:gzip")
	if !(&Query{GroupID: s}).Matches(r) {
		t.Error("group id match failed")
	}
	if (&Query{GroupID: seq.NewID()}).Matches(r) {
		t.Error("wrong group matched")
	}
}

func TestMatchesKind(t *testing.T) {
	s := seq.NewID()
	ri := interactionRecord(s, "svc:gzip")
	rs := actorStateRecord(s, "svc:gzip", core.StateScript)
	qi := &Query{Kind: "interaction"}
	qs := &Query{Kind: "actorState"}
	if !qi.Matches(ri) || qi.Matches(rs) {
		t.Error("interaction kind filter wrong")
	}
	if !qs.Matches(rs) || qs.Matches(ri) {
		t.Error("actorState kind filter wrong")
	}
}

func TestMatchesAsserterAndService(t *testing.T) {
	s := seq.NewID()
	r := interactionRecord(s, "svc:ppmz")
	if !(&Query{Asserter: "svc:enactor"}).Matches(r) {
		t.Error("asserter filter failed")
	}
	if (&Query{Asserter: "svc:ppmz"}).Matches(r) {
		t.Error("asserter filter matched receiver")
	}
	if !(&Query{Service: "svc:ppmz"}).Matches(r) {
		t.Error("service filter failed")
	}
	if (&Query{Service: "svc:gzip"}).Matches(r) {
		t.Error("service filter matched wrong service")
	}
	rs := actorStateRecord(s, "svc:ppmz", core.StateScript)
	if !(&Query{Service: "svc:ppmz"}).Matches(rs) {
		t.Error("service filter must apply to actor state records too")
	}
}

func TestMatchesStateKind(t *testing.T) {
	s := seq.NewID()
	script := actorStateRecord(s, "svc:gzip", core.StateScript)
	usage := actorStateRecord(s, "svc:gzip", core.StateResource)
	inter := interactionRecord(s, "svc:gzip")
	q := &Query{StateKind: core.StateScript}
	if !q.Matches(script) {
		t.Error("script state should match")
	}
	if q.Matches(usage) {
		t.Error("resource state should not match script filter")
	}
	if q.Matches(inter) {
		t.Error("interaction record should not match stateKind filter")
	}
}

func TestMatchesConjunction(t *testing.T) {
	s := seq.NewID()
	r := actorStateRecord(s, "svc:gzip", core.StateScript)
	q := &Query{
		SessionID: s,
		Kind:      "actorState",
		StateKind: core.StateScript,
		Service:   "svc:gzip",
	}
	if !q.Matches(r) {
		t.Error("conjunctive query should match")
	}
	q.Service = "svc:ppmz"
	if q.Matches(r) {
		t.Error("one failing conjunct must reject")
	}
}

func TestEmptyQueryMatchesEverything(t *testing.T) {
	s := seq.NewID()
	q := &Query{}
	if !q.Matches(interactionRecord(s, "svc:a")) || !q.Matches(actorStateRecord(s, "svc:b", "x")) {
		t.Error("empty query must match all records")
	}
}

func TestRecordRequestXMLRoundTrip(t *testing.T) {
	s := seq.NewID()
	req := &RecordRequest{
		Asserter: "svc:enactor",
		Records: []core.Record{
			*interactionRecord(s, "svc:gzip"),
			*actorStateRecord(s, "svc:gzip", core.StateScript),
		},
	}
	// Fix asserter consistency for the second record (receiver view).
	req.Records[1].ActorState.Asserter = "svc:gzip"
	data, err := xml.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back RecordRequest
	if err := xml.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Asserter != req.Asserter || len(back.Records) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	for i := range back.Records {
		if back.Records[i].StorageKey() != req.Records[i].StorageKey() {
			t.Errorf("record %d key changed: %s vs %s", i,
				back.Records[i].StorageKey(), req.Records[i].StorageKey())
		}
	}
}

func TestQueryXMLRoundTrip(t *testing.T) {
	q := &Query{
		InteractionID: seq.NewID(),
		SessionID:     seq.NewID(),
		Kind:          "actorState",
		StateKind:     "script",
		Limit:         25,
	}
	data, err := xml.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var back Query
	if err := xml.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.InteractionID != q.InteractionID || back.SessionID != q.SessionID ||
		back.Kind != q.Kind || back.StateKind != q.StateKind || back.Limit != q.Limit {
		t.Errorf("query round trip mismatch: %+v vs %+v", back, q)
	}
}

func TestResponsesXMLRoundTrip(t *testing.T) {
	rr := &RecordResponse{Accepted: 3, Rejects: []Reject{{Index: 1, Reason: "bad"}}}
	data, err := xml.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	var backRR RecordResponse
	if err := xml.Unmarshal(data, &backRR); err != nil {
		t.Fatal(err)
	}
	if backRR.Accepted != 3 || len(backRR.Rejects) != 1 || backRR.Rejects[0].Index != 1 {
		t.Errorf("RecordResponse round trip: %+v", backRR)
	}

	cr := &CountResponse{Records: 10, Interactions: 6, ActorStates: 4}
	data, err = xml.Marshal(cr)
	if err != nil {
		t.Fatal(err)
	}
	var backCR CountResponse
	if err := xml.Unmarshal(data, &backCR); err != nil {
		t.Fatal(err)
	}
	if backCR.Records != cr.Records || backCR.Interactions != cr.Interactions ||
		backCR.ActorStates != cr.ActorStates {
		t.Errorf("CountResponse round trip: %+v", backCR)
	}
}

// countersFilled returns a counter struct with every numeric field set
// to a distinct non-zero value, so an Add that skips a field shows.
func countersFilled[T any](t *testing.T) T {
	t.Helper()
	var c T
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		default:
			t.Fatalf("%T.%s: unexpected kind %s", c, v.Type().Field(i).Name, f.Kind())
		}
	}
	return c
}

// TestCountersAddEveryField checks that each counter set's Add carries
// every field: adding a filled value into a zero one reproduces it, and
// adding it again doubles every sum (StallP99, a worst-shard maximum,
// stays put).
func TestCountersAddEveryField(t *testing.T) {
	e := countersFilled[EngineCounters](t)
	var es EngineCounters
	es.Add(e)
	if es != e {
		t.Errorf("EngineCounters.Add into zero = %+v, want %+v", es, e)
	}
	es.Add(e)
	if want := (EngineCounters{2, 4, 6, 8, 10, 12, 14, 16}); es != want {
		t.Errorf("EngineCounters.Add twice = %+v, want %+v", es, want)
	}

	w := countersFilled[WritePathCounters](t)
	var ws WritePathCounters
	ws.Add(w)
	if ws != w {
		t.Errorf("WritePathCounters.Add into zero = %+v, want %+v", ws, w)
	}
	ws.Add(w)
	if want := (WritePathCounters{2, 4, 5, 3.5}); ws != want {
		t.Errorf("WritePathCounters.Add twice = %+v, want %+v", ws, want)
	}
}
