package preserv

// Tests for the single-store service as a router over one shard: its
// page cursors stay the plain storage keys a single store always
// issued, a composite cursor minted against several shards is refused,
// and every read still crosses the router's one timed fan-out leg.

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"preserv/internal/core"
	"preserv/internal/prep"
	"preserv/internal/shard"
)

func TestSingleStorePagesUseStorageKeyCursors(t *testing.T) {
	client, svc := startServer(t)
	sessions := recordShardSessions(t, client, 3, 9)
	q := &prep.Query{SessionID: sessions[1]}
	want, _, err := svc.Store.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	var got []core.Record
	after := ""
	for pages := 1; ; pages++ {
		if pages > 5 {
			t.Fatal("paging did not terminate")
		}
		resp, err := client.QueryPage(q, after, 4)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resp.Records...)
		if resp.Done || resp.Next == "" {
			if pages < 3 {
				t.Fatalf("9 records over size-4 pages took %d pages, want >= 3", pages)
			}
			break
		}
		if last := resp.Records[len(resp.Records)-1].StorageKey(); resp.Next != last {
			t.Fatalf("cursor %q is not the page's last storage key %q", resp.Next, last)
		}
		after = resp.Next
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pages hold %d records, the scan %d, or they differ", len(got), len(want))
	}
}

func TestSingleStoreRefusesShardedCursor(t *testing.T) {
	sharded, _, _ := startShardedServer(t, 2)
	sessions := recordShardSessions(t, sharded, 4, 3)
	q := &prep.Query{Asserter: "svc:enactor"}
	resp, err := sharded.QueryPage(q, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.Next, "sc1!2!") {
		t.Fatalf("2-shard cursor %q is not composite", resp.Next)
	}

	single, _ := startServer(t)
	recordShardSessions(t, single, len(sessions), 3)
	if _, err := single.QueryPage(q, resp.Next, 2); !errors.Is(err, shard.ErrBadCursor) {
		t.Fatalf("single store took a 2-shard cursor: err = %v, want shard.ErrBadCursor", err)
	}
}

func TestSingleStoreFanOutLegsAreTimed(t *testing.T) {
	withTelemetry(t)
	client, svc := startServer(t)
	sessions := recordShardSessions(t, client, 2, 3)
	legs := func() int64 {
		return svc.rt.Obs().HistogramSnapshots()[`router_shard_fanout_seconds{shard="0"}`].Count
	}
	before := legs()
	q := &prep.Query{SessionID: sessions[0]}
	for i := 0; i < 2; i++ { // a miss fans out, the repeat is a hit
		if _, _, _, err := client.QueryPlanned(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.QueryPage(q, "", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Sessions(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Count(); err != nil {
		t.Fatal(err)
	}
	if n := legs() - before; n != 4 {
		t.Fatalf("fan-out histogram counted %d legs, want 4", n)
	}
}

// TestOneEndpointFrontPagesShardedChild: a front over one remote child
// passes the child's page cursor through, so a child that is itself
// sharded still resumes every page from its own composite cursor.
func TestOneEndpointFrontPagesShardedChild(t *testing.T) {
	child, _, _ := startShardedServer(t, 2)
	sessions := recordShardSessions(t, child, 4, 3)
	rt, err := NewRemoteRouter(child.URL())
	if err != nil {
		t.Fatal(err)
	}
	front, err := Serve(NewShardedService(rt), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })

	q := &prep.Query{Asserter: "svc:enactor"}
	want, _, err := child.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var got []core.Record
	if _, err := NewClient(front.URL, nil).QueryStream(q, 5, func(r *core.Record) error {
		got = append(got, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) != 3*len(sessions) || !reflect.DeepEqual(got, want) {
		t.Fatalf("paged %d records through the front, the child holds %d, or they differ", len(got), len(want))
	}
}
