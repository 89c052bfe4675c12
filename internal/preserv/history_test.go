package preserv

// Tests for the history, the span ring urn:prep:stats carries: a
// store's open and compactions enter it whether or not telemetry is on,
// a failed request enters it while telemetry is on, and a front over
// remote children shows each child's store-level entries in that
// child's breakdown.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"preserv/internal/core"
	"preserv/internal/kvdb"
	"preserv/internal/obs"
	"preserv/internal/prep"
	"preserv/internal/store"
)

var errInjectedCompact = errors.New("injected compaction failure")

// failingCompact is the kvdb backend with a Compact that always fails.
type failingCompact struct{ *kvdb.DB }

func (failingCompact) Compact() error { return errInjectedCompact }

// setTelemetry sets the instrumentation switch for one test and
// restores the previous state after.
func setTelemetry(t *testing.T, on bool) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(on)
	t.Cleanup(func() { obs.SetEnabled(prev) })
}

// serveStore serves s as a single-store service and returns its URL.
func serveStore(t *testing.T, s *store.Store) string {
	t.Helper()
	srv, err := Serve(NewService(s), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); s.Close() })
	return srv.URL
}

// entries returns the ring entries named op.
func entries(ring []prep.SlowSpan, op string) []prep.SlowSpan {
	var out []prep.SlowSpan
	for _, s := range ring {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

func attr(s prep.SlowSpan, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

func TestFrontHistoryCarriesChildStoreEvents(t *testing.T) {
	for _, on := range []bool{true, false} {
		t.Run(fmt.Sprintf("telemetry=%v", on), func(t *testing.T) {
			setTelemetry(t, on)

			// Child A: a kvdb store with records in it, reopened.
			dirA := t.TempDir()
			a, err := store.Open("kvdb", dirA)
			if err != nil {
				t.Fatal(err)
			}
			session := seq.NewID()
			if _, _, err := a.Record("svc:enactor", []core.Record{mkRecord(session, "svc:gzip"), mkRecord(session, "svc:ppmz")}); err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			db, err := kvdb.Open(dirA)
			if err != nil {
				t.Fatal(err)
			}
			liveKeys := db.Len()
			db.Close()
			if a, err = store.Open("kvdb", dirA); err != nil {
				t.Fatal(err)
			}

			// Child B: a store whose backend fails Compact.
			kb, err := store.NewKVBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			b := store.New(failingCompact{kb})

			rt, err := NewRemoteRouter(serveStore(t, a) + "," + serveStore(t, b))
			if err != nil {
				t.Fatal(err)
			}
			front := NewShardedService(rt)
			srv, err := Serve(front, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			if _, err := NewClient(srv.URL, nil).Compact(); err == nil || !strings.Contains(err.Error(), errInjectedCompact.Error()) {
				t.Fatalf("compacting through the front: err = %v, want the injected failure", err)
			}

			st, err := front.StatsResponse()
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Shards) != 2 {
				t.Fatalf("front reports %d shards, want 2", len(st.Shards))
			}
			// Each child's store events sit in its store's leaf, not in
			// the child's own node.
			for i, child := range st.Shards {
				if len(child.Shards) != 1 || len(entries(child.Slow, "store.compact")) != 0 {
					t.Fatalf("child %d's node = %+v, want its one store's leaf to hold the store's events", i, child)
				}
			}
			ringA, ringB := st.Shards[0].Shards[0].Slow, st.Shards[1].Shards[0].Slow
			if c := entries(ringA, "store.compact"); len(c) != 1 || c[0].Err != "" {
				t.Errorf("A's breakdown holds store.compact entries %+v, want one without error", c)
			} else if attr(c[0], "garbage_before") == "" || attr(c[0], "tombstones_after") == "" {
				t.Errorf("A's store.compact lacks its garbage and tombstone attributes: %+v", c[0])
			}
			if c := entries(ringB, "store.compact"); len(c) != 1 || !strings.Contains(c[0].Err, errInjectedCompact.Error()) {
				t.Errorf("B's breakdown holds store.compact entries %+v, want one carrying the injected error", c)
			}
			if o := entries(ringA, "store.open"); len(o) != 1 || attr(o[0], "live_keys") != strconv.Itoa(liveKeys) {
				t.Errorf("A's breakdown holds store.open entries %+v, want one with live_keys=%d", o, liveKeys)
			} else if attr(o[0], "replay") == "" || attr(o[0], "log_bytes") == "" {
				t.Errorf("A's store.open lacks its replay time or log bytes: %+v", o[0])
			}
		})
	}
}

func TestHistoryWithTelemetryOff(t *testing.T) {
	setTelemetry(t, false)
	kb, err := store.NewKVBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := store.New(kb)
	defer s.Close()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	failing := store.New(failingCompact{kb})
	if err := failing.Compact(); !errors.Is(err, errInjectedCompact) {
		t.Fatalf("failing Compact: err = %v", err)
	}
	for _, st := range []*store.Store{s, failing} {
		if ring := st.Obs().Tracer().Slow(); len(ring) != 1 || ring[0].Op() != "store.compact" {
			t.Errorf("ring after one Compact with telemetry off = %v, want one store.compact entry", ring)
		}
	}
	if got := failing.Obs().Tracer().Slow()[0].Err(); got != errInjectedCompact.Error() {
		t.Errorf("failed compaction's entry carries %q, want the injected error", got)
	}

	// A request that faults enters the history only while telemetry is
	// on: the request span is one of the instruments the switch gates.
	client, svc := startKVServer(t)
	for _, on := range []bool{false, true} {
		obs.SetEnabled(on)
		if _, _, err := client.Query(&prep.Query{Kind: "bogus"}); err == nil {
			t.Fatal("a query with an unknown kind succeeded")
		}
		st, err := svc.StatsResponse()
		if err != nil {
			t.Fatal(err)
		}
		q := entries(st.Slow, "preserv.query")
		if want := map[bool]int{false: 0, true: 1}[on]; len(q) != want {
			t.Fatalf("telemetry=%v: %d preserv.query entries after a fault, want %d", on, len(q), want)
		}
		if on && !strings.Contains(q[0].Err, "bogus") {
			t.Errorf("the faulted query's entry carries %q, want the unknown-kind error", q[0].Err)
		}
	}
}
