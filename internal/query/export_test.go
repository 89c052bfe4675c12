package query

import (
	"testing"

	"preserv/internal/ids"
	"preserv/internal/store"
)

// PopulateSessions writes sessions as populateSessions does, for the
// tests in package query_test, and returns their ids.
func PopulateSessions(t testing.TB, s *store.Store, n, perSession int) []ids.ID {
	var out []ids.ID
	for _, sd := range populateSessions(t, s, n, perSession) {
		out = append(out, sd.id)
	}
	return out
}
