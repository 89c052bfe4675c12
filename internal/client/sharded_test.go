package client

// Tests for the multi-endpoint shipping fixes and the sharded-topology
// routing mode: Shipped accounting across flush retries, round-robin
// balance across flushes, and session-affine placement when the
// endpoints are shards of one partitioned store.

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/preserv"
	"preserv/internal/shard"
	"preserv/internal/store"
)

// TestAsyncRecorderShippedNeverExceedsRecordedAcrossRetries is the
// regression test for the Shipped over-count: a flush that ships some
// batches and then fails keeps the journal whole, and the retry
// re-ships everything — the store accepts the idempotent re-records as
// accepted, so without a per-attempt rollback the counter double-counts
// every batch the failed attempt already landed.
func TestAsyncRecorderShippedNeverExceedsRecordedAcrossRetries(t *testing.T) {
	svc := preserv.NewService(store.New(store.NewMemoryBackend()))
	// The endpoint accepts the first two record POSTs, fails the next
	// one, then recovers for good — the flaky-endpoint shape.
	var calls atomic.Int64
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if calls.Add(1) == 3 {
			http.Error(w, "injected flake", http.StatusInternalServerError)
			return
		}
		svc.Handler().ServeHTTP(w, req)
	})
	ts := httptest.NewServer(wrapped)
	defer ts.Close()

	journal := filepath.Join(t.TempDir(), "j.gob")
	r, err := NewAsyncRecorder("svc:enactor", journal, 2, preserv.NewClient(ts.URL, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetFlushConcurrency(1) // deterministic: batches ship in order

	session := seq.NewID()
	const n = 10 // 5 batches of 2
	for i := 0; i < n; i++ {
		if err := r.Record(mkRecord(session)); err != nil {
			t.Fatal(err)
		}
	}

	if err := r.Flush(); err == nil {
		t.Fatal("flush through the flake should fail")
	}
	st := r.Stats()
	if st.Shipped > st.Recorded {
		t.Fatalf("after failed flush: Shipped %d > Recorded %d", st.Shipped, st.Recorded)
	}

	if err := r.Flush(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	st = r.Stats()
	if st.Shipped != st.Recorded || st.Shipped != n {
		t.Fatalf("after retry: Stats %+v, want Shipped = Recorded = %d", st, n)
	}
	// The store holds each record exactly once, the journal is spent.
	if stats := storeStats(t, svc); stats.RecordsAccepted < n {
		t.Fatalf("store accepted %d, want >= %d", stats.RecordsAccepted, n)
	}
	cnt, err := preserv.NewClient(ts.URL, nil).Count()
	if err != nil || cnt.Records != n {
		t.Fatalf("store count %d err=%v, want %d", cnt.Records, err, n)
	}
	if r.Pending() != 0 {
		t.Fatalf("pending %d after successful retry", r.Pending())
	}
}

// countingEndpoints starts n single-store servers, each counting its
// record requests.
func countingEndpoints(t *testing.T, n int) ([]*preserv.Client, []*preserv.Service, []*atomic.Int64) {
	t.Helper()
	clients := make([]*preserv.Client, n)
	services := make([]*preserv.Service, n)
	counts := make([]*atomic.Int64, n)
	for i := 0; i < n; i++ {
		svc := preserv.NewService(store.New(store.NewMemoryBackend()))
		cnt := &atomic.Int64{}
		wrapped := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			cnt.Add(1)
			svc.Handler().ServeHTTP(w, req)
		})
		ts := httptest.NewServer(wrapped)
		t.Cleanup(ts.Close)
		clients[i] = preserv.NewClient(ts.URL, nil)
		services[i] = svc
		counts[i] = cnt
	}
	return clients, services, counts
}

// TestAsyncRecorderRoundRobinBalancedAcrossFlushes is the regression
// test for the per-flush cursor reset: with the cursor declared inside
// flushLocked, every flush restarted at endpoint 0, so a recorder
// shipping one small batch per flush (the SetAutoFlushThreshold shape)
// sent nearly all E8 traffic to the first endpoint.
func TestAsyncRecorderRoundRobinBalancedAcrossFlushes(t *testing.T) {
	const endpoints = 3
	const flushes = 12
	clients, _, counts := countingEndpoints(t, endpoints)

	journal := filepath.Join(t.TempDir(), "j.gob")
	r, err := NewAsyncRecorder("svc:enactor", journal, DefaultBatchSize, clients...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// One small batch per flush: the pathological shape.
	for f := 0; f < flushes; f++ {
		if err := r.Record(mkRecord(seq.NewID())); err != nil {
			t.Fatal(err)
		}
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	for i, c := range counts {
		if got := c.Load(); got != flushes/endpoints {
			all := make([]int64, endpoints)
			for j := range counts {
				all[j] = counts[j].Load()
			}
			t.Fatalf("endpoint %d carried %d of %d batches (distribution %v), want an even %d each",
				i, got, flushes, all, flushes/endpoints)
		}
	}
	if st := r.Stats(); st.Shipped != flushes {
		t.Fatalf("Shipped %d, want %d", st.Shipped, flushes)
	}
}

// TestAsyncRecorderShardedTopologyRoutesSessionAffine pins the sharded
// shipping mode: every record lands on the endpoint its affinity hash
// names — the same endpoint a shard.Router over the same list would
// route it to — so a sharded front-end never has to move it.
func TestAsyncRecorderShardedTopologyRoutesSessionAffine(t *testing.T) {
	const endpoints = 3
	clients, services, _ := countingEndpoints(t, endpoints)

	journal := filepath.Join(t.TempDir(), "j.gob")
	r, err := NewAsyncRecorder("svc:enactor", journal, 4, clients...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetShardedTopology(true)

	const sessions = 9
	const perSession = 6
	sids := make([]ids.ID, sessions)
	for i := range sids {
		sids[i] = seq.NewID()
	}
	// Interleave sessions in recording order, so affinity (not
	// accidental batching) is what keeps them together.
	for j := 0; j < perSession; j++ {
		for _, sid := range sids {
			if err := r.Record(mkRecord(sid)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Shipped != sessions*perSession {
		t.Fatalf("Shipped %d, want %d", st.Shipped, sessions*perSession)
	}

	spread := 0
	for _, sid := range sids {
		home := shard.AffinityIndex(sid.String(), endpoints)
		for e, svc := range services {
			recs, _, err := svc.Provenance().Query(&prep.Query{SessionID: sid})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			if e == home {
				want = perSession
			}
			if len(recs) != want {
				t.Fatalf("endpoint %d holds %d records of session %s, want %d (home %d)",
					e, len(recs), sid, want, home)
			}
		}
		if home != 0 {
			spread++
		}
	}
	if spread == 0 {
		t.Fatal("every session hashed to endpoint 0 — affinity not exercised")
	}
}

// TestAsyncRecorderShardedRetryIdempotent combines the two: a sharded
// flush that fails mid-way retries cleanly, with Shipped intact and
// every record on its home endpoint exactly once.
func TestAsyncRecorderShardedRetryIdempotent(t *testing.T) {
	const endpoints = 2
	svcs := make([]*preserv.Service, endpoints)
	clients := make([]*preserv.Client, endpoints)
	var fail atomic.Bool
	for i := 0; i < endpoints; i++ {
		svc := preserv.NewService(store.New(store.NewMemoryBackend()))
		svcs[i] = svc
		i := i
		wrapped := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if i == 1 && fail.Load() {
				http.Error(w, "injected outage", http.StatusInternalServerError)
				return
			}
			svc.Handler().ServeHTTP(w, req)
		})
		ts := httptest.NewServer(wrapped)
		t.Cleanup(ts.Close)
		clients[i] = preserv.NewClient(ts.URL, nil)
	}

	journal := filepath.Join(t.TempDir(), "j.gob")
	r, err := NewAsyncRecorder("svc:enactor", journal, 3, clients...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetShardedTopology(true)

	// Sessions spanning both endpoints.
	var recs []core.Record
	for {
		sid := seq.NewID()
		for j := 0; j < 6; j++ {
			recs = append(recs, mkRecord(sid))
		}
		// Stop once both endpoints have a session homed on them.
		homes := map[int]bool{}
		for i := range recs {
			homes[shard.Affinity(&recs[i], endpoints)] = true
		}
		if len(homes) == endpoints {
			break
		}
	}
	if err := r.Record(recs...); err != nil {
		t.Fatal(err)
	}

	fail.Store(true)
	if err := r.Flush(); err == nil {
		t.Fatal("flush with endpoint 1 down should fail")
	}
	if st := r.Stats(); st.Shipped > st.Recorded {
		t.Fatalf("Shipped %d > Recorded %d after partial sharded flush", st.Shipped, st.Recorded)
	}
	fail.Store(false)
	if err := r.Flush(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if st := r.Stats(); st.Shipped != st.Recorded {
		t.Fatalf("Stats %+v after retry", st)
	}
	// Exactly once, on the right endpoint.
	total := 0
	for i, svc := range svcs {
		cnt, err := svc.Provenance().Count()
		if err != nil {
			t.Fatal(err)
		}
		total += cnt.Records
		wantHere := 0
		for j := range recs {
			if shard.Affinity(&recs[j], endpoints) == i {
				wantHere++
			}
		}
		if cnt.Records != wantHere {
			t.Fatalf("endpoint %d holds %d records, want %d", i, cnt.Records, wantHere)
		}
	}
	if total != len(recs) {
		t.Fatalf("endpoints hold %d records total, want %d", total, len(recs))
	}
}
