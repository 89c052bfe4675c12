package store

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
)

var seq = &ids.SeqSource{Prefix: 0xDD}

// backends returns one fresh instance of every backend flavour.
func backends(t *testing.T) map[string]Backend {
	t.Helper()
	fb, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	kb, err := NewKVBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]Backend{
		"memory": NewMemoryBackend(),
		"file":   fb,
		"kvdb":   kb,
	}
	t.Cleanup(func() {
		for _, b := range m {
			b.Close()
		}
	})
	return m
}

func mkInteraction(session ids.ID, receiver core.ActorID, op string) core.Record {
	in := core.Interaction{ID: seq.NewID(), Sender: "svc:enactor", Receiver: receiver, Operation: op}
	return *core.NewInteractionRecord(&core.InteractionPAssertion{
		LocalID:     "exchange",
		Asserter:    in.Sender,
		Interaction: in,
		View:        core.SenderView,
		Request:     core.Message{Name: "invoke", Parts: []core.MessagePart{{Name: "in", DataID: seq.NewID()}}},
		Response:    core.Message{Name: "result", Parts: []core.MessagePart{{Name: "out", DataID: seq.NewID()}}},
		Groups:      []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: 1}},
		Timestamp:   time.Unix(1117584000, 0),
	})
}

func mkScript(inter core.Interaction, session ids.ID, script string) core.Record {
	return *core.NewActorStateRecord(&core.ActorStatePAssertion{
		LocalID:     "script",
		Asserter:    inter.Receiver,
		Interaction: inter,
		View:        core.ReceiverView,
		StateKind:   core.StateScript,
		Content:     core.Bytes(script),
		Groups:      []core.GroupRef{{Type: core.GroupSession, ID: session, Seq: 1}},
		Timestamp:   time.Unix(1117584001, 0),
	})
}

func TestBackendPutGetScanCount(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.Put("i/x/1", []byte("one")); err != nil {
				t.Fatal(err)
			}
			if err := b.Put("i/x/2", []byte("two")); err != nil {
				t.Fatal(err)
			}
			if err := b.Put("s/x/1", []byte("state")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := b.Get("i/x/1")
			if err != nil || !ok || string(v) != "one" {
				t.Fatalf("Get = %q %v %v", v, ok, err)
			}
			if _, ok, _ := b.Get("i/missing"); ok {
				t.Error("absent key reported present")
			}
			var seen []string
			if err := b.ScanFrom("i/", "", func(k string, v []byte) error {
				seen = append(seen, k)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(seen) != 2 || seen[0] != "i/x/1" || seen[1] != "i/x/2" {
				t.Errorf("Scan order = %v", seen)
			}
			n, err := b.Count("s/")
			if err != nil || n != 1 {
				t.Errorf("Count(s/) = %d %v", n, err)
			}
			if err := b.Put("", []byte("v")); err == nil && name != "kvdb" {
				t.Error("empty key should be rejected")
			}
		})
	}
}

func TestStoreRecordAndQueryAllBackends(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := New(b)
			session := seq.NewID()
			r1 := mkInteraction(session, "svc:gzip", "compress")
			r2 := mkInteraction(session, "svc:ppmz", "compress")
			scr := mkScript(r1.Interaction.Interaction, session, "#!/bin/sh gzip")

			acc, rej, err := s.Record("svc:enactor", []core.Record{r1, r2})
			if err != nil {
				t.Fatal(err)
			}
			if acc != 2 || len(rej) != 0 {
				t.Fatalf("accepted %d, rejects %v", acc, rej)
			}
			acc, rej, err = s.Record("svc:gzip", []core.Record{scr})
			if err != nil {
				t.Fatal(err)
			}
			if acc != 1 || len(rej) != 0 {
				t.Fatalf("script record: %d %v", acc, rej)
			}

			recs, total, err := s.Query(&prep.Query{SessionID: session})
			if err != nil {
				t.Fatal(err)
			}
			if total != 3 || len(recs) != 3 {
				t.Fatalf("session query: %d/%d records", len(recs), total)
			}

			recs, total, err = s.Query(&prep.Query{InteractionID: r1.InteractionID()})
			if err != nil {
				t.Fatal(err)
			}
			if total != 2 {
				t.Fatalf("interaction query total = %d, want 2 (exchange + script)", total)
			}
			for _, r := range recs {
				if r.InteractionID() != r1.InteractionID() {
					t.Error("interaction query leaked other interactions")
				}
			}

			recs, _, err = s.Query(&prep.Query{Kind: "actorState", StateKind: core.StateScript})
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 || string(recs[0].ActorState.Content) != "#!/bin/sh gzip" {
				t.Fatalf("script query: %+v", recs)
			}

			cnt, err := s.Count()
			if err != nil {
				t.Fatal(err)
			}
			if cnt.Interactions != 2 || cnt.ActorStates != 1 || cnt.Records != 3 {
				t.Fatalf("Count = %+v", cnt)
			}
		})
	}
}

func TestStoreRejectsInvalidAndForged(t *testing.T) {
	s := New(NewMemoryBackend())
	session := seq.NewID()
	good := mkInteraction(session, "svc:gzip", "compress")
	invalid := good
	invalid.Interaction = nil // kind says interaction but payload missing

	acc, rej, err := s.Record("svc:enactor", []core.Record{good, invalid})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 || len(rej) != 1 || rej[0].Index != 1 {
		t.Fatalf("acc=%d rej=%v", acc, rej)
	}

	// Forgery: submitting a record asserted by someone else.
	other := mkInteraction(session, "svc:gzip", "compress")
	acc, rej, err = s.Record("svc:impostor", []core.Record{other})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0 || len(rej) != 1 || !strings.Contains(rej[0].Reason, "submitted by") {
		t.Fatalf("forged record not rejected: acc=%d rej=%v", acc, rej)
	}
}

func TestStoreIdempotentReRecord(t *testing.T) {
	s := New(NewMemoryBackend())
	session := seq.NewID()
	r := mkInteraction(session, "svc:gzip", "compress")
	for i := 0; i < 2; i++ {
		acc, rej, err := s.Record("svc:enactor", []core.Record{r})
		if err != nil || acc != 1 || len(rej) != 0 {
			t.Fatalf("attempt %d: acc=%d rej=%v err=%v", i, acc, rej, err)
		}
	}
	cnt, _ := s.Count()
	if cnt.Records != 1 {
		t.Fatalf("Records = %d after idempotent re-record, want 1", cnt.Records)
	}
	// Same key, different content: conflict.
	r2 := r
	clone := *r.Interaction
	clone.Request = core.Message{Name: "invoke", Parts: []core.MessagePart{{Name: "other"}}}
	r2.Interaction = &clone
	acc, rej, err := s.Record("svc:enactor", []core.Record{r2})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0 || len(rej) != 1 || !strings.Contains(rej[0].Reason, "duplicate") {
		t.Fatalf("conflicting duplicate accepted: acc=%d rej=%v", acc, rej)
	}
}

func TestStoreQueryLimit(t *testing.T) {
	s := New(NewMemoryBackend())
	session := seq.NewID()
	var recs []core.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, mkInteraction(session, "svc:gzip", fmt.Sprintf("op%d", i)))
	}
	if _, _, err := s.Record("svc:enactor", recs); err != nil {
		t.Fatal(err)
	}
	got, total, err := s.Query(&prep.Query{SessionID: session, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || total != 10 {
		t.Fatalf("limit query: %d returned, %d total", len(got), total)
	}
}

func TestStoreQueryInvalid(t *testing.T) {
	s := New(NewMemoryBackend())
	if _, _, err := s.Query(&prep.Query{Kind: "weird"}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestStoreEmptyAsserter(t *testing.T) {
	s := New(NewMemoryBackend())
	if _, _, err := s.Record("", nil); err == nil {
		t.Error("empty asserter accepted")
	}
}

func TestFileBackendPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(fb)
	session := seq.NewID()
	r := mkInteraction(session, "svc:gzip", "compress")
	if _, _, err := s.Record("svc:enactor", []core.Record{r}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(fb2)
	defer s2.Close()
	recs, total, err := s2.Query(&prep.Query{SessionID: session})
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 || recs[0].StorageKey() != r.StorageKey() {
		t.Fatalf("reopened store lost record: total=%d", total)
	}
}

func TestKVBackendPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	kb, err := NewKVBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(kb)
	session := seq.NewID()
	r := mkInteraction(session, "svc:ppmz", "compress")
	if _, _, err := s.Record("svc:enactor", []core.Record{r}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	kb2, err := NewKVBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(kb2)
	defer s2.Close()
	cnt, err := s2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Interactions != 1 {
		t.Fatalf("reopened kvdb store: %+v", cnt)
	}
}

// TestReadsDoNotWaitOnIndexOpen: a reopened store opens its index on
// first use, under the store's mutex. A reader must not wait behind that
// open — which on a stale index is a full rebuild — nor behind a scan
// that the open is queued on.
func TestReadsDoNotWaitOnIndexOpen(t *testing.T) {
	dir := t.TempDir()
	kb, err := NewKVBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(kb)
	recs := []core.Record{mkInteraction(seq.NewID(), "svc:gzip", "a"), mkInteraction(seq.NewID(), "svc:gzip", "b")}
	if _, _, err := s.Record("svc:enactor", recs); err != nil {
		t.Fatal(err)
	}
	s.Close()
	kb, err = NewKVBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s = New(kb)
	defer s.Close()

	inScan, release := make(chan struct{}), make(chan struct{})
	scanDone := make(chan error, 1)
	go func() {
		first := true
		scanDone <- s.ScanQuery(&prep.Query{}, "", func(string, *core.Record) (bool, error) {
			if first {
				first = false
				close(inScan)
				<-release
			}
			return false, nil
		})
	}()
	<-inScan
	indexDone := make(chan error, 1)
	go func() {
		_, err := s.Index()
		indexDone <- err
	}()
	// Read until the index is open. Every read must return promptly,
	// including the ones issued while the open waits for the mutex.
	key := recs[0].StorageKey()
	done := false
	for !done {
		select {
		case err := <-indexDone:
			if err != nil {
				t.Error(err)
			}
			done = true
		default:
		}
		readDone := make(chan error, 1)
		go func() {
			_, present, err := s.GetBatch([]string{key})
			if err == nil && !present[0] {
				err = fmt.Errorf("recorded key %s absent", key)
			}
			readDone <- err
		}()
		select {
		case err := <-readDone:
			if err != nil {
				t.Error(err)
				done = true
			}
		case <-time.After(5 * time.Second):
			t.Error("GetBatch waited behind an index open queued on a paused scan")
			done = true
		}
	}
	close(release)
	if err := <-scanDone; err != nil {
		t.Error(err)
	}
}

// The store reports its backend's garbage and tombstones: zero on
// memory, which has none, and the log's own counts on the persistent
// backends until Compact reclaims them.
func TestStoreReportsBackendGarbage(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := New(b)
			session := seq.NewID()
			recs := []core.Record{mkInteraction(session, "svc:gzip", "compress"), mkInteraction(session, "svc:gzip", "compress")}
			if _, _, err := s.Record("svc:enactor", recs); err != nil {
				t.Fatal(err)
			}
			if n, err := s.DeleteRecords([]string{recs[0].StorageKey()}); err != nil || n != 1 {
				t.Fatalf("DeleteRecords = %d, %v", n, err)
			}
			persistent := name != "memory"
			if g, n := s.GarbageRatio(), s.Tombstones(); (g > 0) != persistent || (n > 0) != persistent {
				t.Fatalf("garbage ratio %v, %d tombstones after a delete", g, n)
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			if g, n := s.GarbageRatio(), s.Tombstones(); g != 0 || n != 0 {
				t.Fatalf("garbage ratio %v, %d tombstones after Compact", g, n)
			}
		})
	}
}

func TestScanEarlyStop(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 5; i++ {
				b.Put(fmt.Sprintf("i/k%d", i), []byte{byte(i)})
			}
			count := 0
			stop := fmt.Errorf("stop")
			err := b.ScanFrom("i/", "", func(string, []byte) error {
				count++
				if count == 2 {
					return stop
				}
				return nil
			})
			if err != stop || count != 2 {
				t.Errorf("early stop: err=%v count=%d", err, count)
			}
		})
	}
}

func TestStoreLinearScanCost(t *testing.T) {
	// Document the complexity property Figure 5 relies on: full-store
	// queries touch every record (linear), interaction queries do not.
	s := New(NewMemoryBackend())
	session := seq.NewID()
	var recs []core.Record
	for i := 0; i < 200; i++ {
		recs = append(recs, mkInteraction(session, "svc:gzip", "op"))
	}
	if _, _, err := s.Record("svc:enactor", recs); err != nil {
		t.Fatal(err)
	}
	_, total, err := s.Query(&prep.Query{})
	if err != nil || total != 200 {
		t.Fatalf("full scan total = %d err=%v", total, err)
	}
	_, total, err = s.Query(&prep.Query{InteractionID: recs[42].InteractionID()})
	if err != nil || total != 1 {
		t.Fatalf("interaction-scoped total = %d err=%v", total, err)
	}
}
