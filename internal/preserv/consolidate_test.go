package preserv

import (
	"bytes"
	"testing"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/store"
)

func TestConsolidateMergesStores(t *testing.T) {
	// Three sources with disjoint sessions plus one record duplicated
	// across two of them.
	var sources []*Client
	session := seq.NewID()
	shared := mkRecord(session, "svc:gzip")
	for i := 0; i < 3; i++ {
		c, _ := startServer(t)
		sources = append(sources, c)
		recs := []core.Record{mkRecord(seq.NewID(), "svc:gzip")}
		if i < 2 {
			recs = append(recs, shared)
		}
		if _, err := c.Record("svc:enactor", recs); err != nil {
			t.Fatal(err)
		}
	}
	dst, _ := startServer(t)

	accepted, err := Consolidate(dst, sources...)
	if err != nil {
		t.Fatal(err)
	}
	// 3 unique + shared accepted twice (idempotently).
	if accepted != 5 {
		t.Errorf("accepted = %d, want 5", accepted)
	}
	cnt, err := dst.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Interactions != 4 {
		t.Errorf("consolidated store holds %d interactions, want 4 (dedup)", cnt.Interactions)
	}
}

func TestConsolidatePreservesAsserters(t *testing.T) {
	src, _ := startServer(t)
	session := seq.NewID()
	r := mkRecord(session, "svc:gzip")
	scr := mkScriptRecord(r.Interaction.Interaction, session, "#!s")
	if _, err := src.Record("svc:enactor", []core.Record{r}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Record("svc:gzip", []core.Record{scr}); err != nil {
		t.Fatal(err)
	}
	dst, _ := startServer(t)
	accepted, err := Consolidate(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 2 {
		t.Errorf("accepted = %d, want 2", accepted)
	}
	cnt, _ := dst.Count()
	if cnt.Interactions != 1 || cnt.ActorStates != 1 {
		t.Errorf("consolidated counts = %+v", cnt)
	}
}

func TestSessionsDiscovery(t *testing.T) {
	c, _ := startServer(t)
	s1, s2 := seq.NewID(), seq.NewID()
	for i := 0; i < 3; i++ {
		if _, err := c.Record("svc:enactor", []core.Record{mkRecord(s1, "svc:gzip")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Record("svc:enactor", []core.Record{mkRecord(s2, "svc:ppmz")}); err != nil {
		t.Fatal(err)
	}
	sessions, err := c.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 2 {
		t.Fatalf("sessions = %v, want 2", sessions)
	}
	found := map[ids.ID]bool{}
	for _, s := range sessions {
		found[s] = true
	}
	if !found[s1] || !found[s2] {
		t.Errorf("sessions %v missing %v or %v", sessions, s1, s2)
	}
	// Sorted order.
	if sessions[0].Compare(sessions[1]) >= 0 {
		t.Error("sessions not sorted")
	}
}

func TestSessionsEmptyStore(t *testing.T) {
	c, _ := startServer(t)
	sessions, err := c.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 0 {
		t.Errorf("sessions = %v", sessions)
	}
}

func TestConsolidateEmptySources(t *testing.T) {
	dst, _ := startServer(t)
	src, _ := startServer(t)
	accepted, err := Consolidate(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 0 {
		t.Errorf("accepted = %d", accepted)
	}
	accepted, err = Consolidate(dst)
	if err != nil || accepted != 0 {
		t.Errorf("no sources: %d %v", accepted, err)
	}
}

func TestConsolidateDeadSource(t *testing.T) {
	dst, _ := startServer(t)
	dead := NewClient("http://127.0.0.1:1", nil)
	if _, err := Consolidate(dst, dead); err == nil {
		t.Error("dead source should fail")
	}
}

func TestConsolidateDistributedRunRoundTrip(t *testing.T) {
	// E8's companion: after a distributed async run, consolidation
	// produces one store holding the whole session.
	var sources []*Client
	var urls []string
	for i := 0; i < 3; i++ {
		c, svc := startServer(t)
		_ = svc
		sources = append(sources, c)
		urls = append(urls, c.URL())
	}
	_ = urls
	session := seq.NewID()
	// Stripe 30 records over the three stores by hand.
	for i := 0; i < 30; i++ {
		r := mkRecord(session, "svc:gzip")
		if _, err := sources[i%3].Record("svc:enactor", []core.Record{r}); err != nil {
			t.Fatal(err)
		}
	}
	dstBackend := store.NewMemoryBackend()
	dstSvc := NewService(store.New(dstBackend))
	srv, err := Serve(dstSvc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dst := NewClient(srv.URL, nil)

	accepted, err := Consolidate(dst, sources...)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 30 {
		t.Errorf("accepted = %d, want 30", accepted)
	}
	cnt, _ := dst.Count()
	if cnt.Interactions != 30 {
		t.Errorf("consolidated = %d interactions, want 30", cnt.Interactions)
	}
	var _ ids.ID = session
}

// TestConsolidateStreamsLargeSources: a source whose records together
// encode to more than one reply may carry (soap.MaxMessageBytes) is
// still consolidated whole, because it is read page by page. Each
// record carries a 60 KB part, about 80 KB encoded, so a 256-record page
// stays near 20 MB while the whole store exceeds the cap.
func TestConsolidateStreamsLargeSources(t *testing.T) {
	if testing.Short() {
		t.Skip("moves about 70 MB over loopback")
	}
	src, _ := startServer(t)
	const n, batch = 450, 50
	session := seq.NewID()
	content := core.Bytes(bytes.Repeat([]byte("MKVLAAGHWR"), 6000))
	for off := 0; off < n; off += batch {
		recs := make([]core.Record, batch)
		for i := range recs {
			recs[i] = mkRecord(session, "svc:gzip")
			recs[i].Interaction.Request.Parts[0].Content = content
		}
		if _, err := src.Record("svc:enactor", recs); err != nil {
			t.Fatal(err)
		}
	}
	dst, _ := startServer(t)
	accepted, err := Consolidate(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != n {
		t.Errorf("accepted = %d, want %d", accepted, n)
	}
	if cnt, err := dst.Count(); err != nil || cnt.Interactions != n {
		t.Errorf("consolidated store holds %d interactions (err %v), want %d", cnt.Interactions, err, n)
	}
}
