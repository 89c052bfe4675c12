package preserv

import (
	"fmt"

	"preserv/internal/core"
	"preserv/internal/prep"
)

// Consolidate copies every record from the source stores into dst —
// the facility the paper's future-work section calls for alongside
// distributed PReServ ("a facility is also required to consolidate data
// into a single provenance store"). Each source is read page by page
// (QueryStream), so no reply has to hold a whole store, and records
// ship in batches of up to 200 as they fill, each under its own
// asserter, preserving the who-asserted-what integrity check. Records
// are deduplicated by storage key (the store layer is idempotent for
// identical records).
//
// It returns the number of records accepted by dst.
func Consolidate(dst *Client, sources ...*Client) (int, error) {
	const batchSize = 200
	total := 0
	// ship records one batch; a RecordRequest carries one asserter.
	ship := func(asserter core.ActorID, recs []core.Record) error {
		resp, err := dst.Record(asserter, recs)
		if err != nil {
			return fmt.Errorf("preserv: consolidating into %s: %w", dst.URL(), err)
		}
		if len(resp.Rejects) > 0 {
			return fmt.Errorf("preserv: consolidation rejected %d records, first: %s",
				len(resp.Rejects), resp.Rejects[0].Reason)
		}
		total += resp.Accepted
		return nil
	}
	for i, src := range sources {
		pending := make(map[core.ActorID][]core.Record)
		_, err := src.QueryStream(&prep.Query{}, 0, func(r *core.Record) error {
			a := r.Asserter()
			batch := append(pending[a], *r)
			if len(batch) < batchSize {
				pending[a] = batch
				return nil
			}
			delete(pending, a)
			return ship(a, batch)
		})
		if err != nil {
			return total, fmt.Errorf("preserv: consolidating source %d: %w", i, err)
		}
		for a, batch := range pending {
			if err := ship(a, batch); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}
