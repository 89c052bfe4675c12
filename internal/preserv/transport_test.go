package preserv

import (
	"testing"

	"preserv/internal/core"
)

// A one-record Record over loopback, client and server together: the
// client's HTTP exchange runs on the caller's goroutine from pooled
// buffers, so what is left is the envelope codec, the store and
// net/http's server. Through net/http's client the call made 124
// allocations.
func TestRecordRoundTripAllocs(t *testing.T) {
	client, _ := startServer(t)
	session := seq.NewID()
	const runs = 200
	records := make([]core.Record, runs+1)
	for i := range records {
		records[i] = mkRecord(session, "svc:gzip")
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := client.Record("svc:enactor", records[i:i+1]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.0f allocations per one-record Record", allocs)
	if ceiling := float64(recordRoundTripAllocs); allocs > ceiling {
		t.Errorf("a one-record Record made %.0f allocations, want at most %.0f", allocs, ceiling)
	}
}
