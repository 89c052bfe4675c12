package query

import (
	"runtime/debug"
	"testing"

	"preserv/internal/core"
	"preserv/internal/prep"
	"preserv/internal/store"
)

// What reading 50 stored records allocates on kvdb, through the
// planner's page and through the scan: the records share one arena per
// fetch, so the count does not grow by a dozen allocations per record
// (a 50-record page made 806 and the scan 812 when every record was
// decoded field by field). The scan is allowed one more a record:
// ScanFrom reads each value into an allocation of its own. The
// collector is off while the reads are counted, as in
// store.TestRecordAllocs: a collection empties kvdb's read buffer pool.
func TestReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops what it holds at random under the race detector")
	}
	const n = 50
	b, err := store.NewKVBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	s := store.New(b)
	session := populateSessions(t, s, 1, n)[0].id // n interactions, n scripts
	e := New(s)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		name    string
		ceiling float64
		read    func() ([]core.Record, error)
	}{
		{"planned page", 64, func() ([]core.Record, error) {
			recs, _, _, _, err := e.QueryPage(&prep.Query{SessionID: session}, "", n)
			return recs, err
		}},
		{"scan query", 64 + n, func() ([]core.Record, error) {
			recs, _, plan, err := e.Query(&prep.Query{Kind: core.KindInteraction.String()})
			if err == nil && plan.Strategy != prep.PlanScan {
				t.Fatalf("the scan query ran a %s plan", plan.Strategy)
			}
			return recs, err
		}},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if recs, err := c.read(); err != nil || len(recs) != n {
				t.Fatalf("%s: read %d records, want %d: %v", c.name, len(recs), n, err)
			}
		})
		t.Logf("a %d-record %s: %.0f allocations", n, c.name, allocs)
		if allocs > c.ceiling {
			t.Errorf("a %d-record %s made %.0f allocations, want at most %.0f", n, c.name, allocs, c.ceiling)
		}
	}
}
