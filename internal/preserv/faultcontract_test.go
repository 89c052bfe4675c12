package preserv

// Regression pin for the wire error contract provlint's typedfault
// analyzer enforces statically: the shard cursor sentinel must stay
// errors.Is-matchable through the full client → server → client round
// trip. The server folds it into a bad-request fault whose message
// carries the sentinel text, and Client.QueryPage re-types the fault —
// if either side drops its half of the contract, callers are back to
// string matching.

import (
	"errors"
	"testing"

	"preserv/internal/prep"
	"preserv/internal/shard"
)

func TestBadCursorErrorsIsAcrossRoundTrip(t *testing.T) {
	client, _, _ := startShardedServer(t, 3)
	recordShardSessions(t, client, 4, 3)

	// A cursor that claims to be composite ("sc1!" tag) but cannot be
	// decoded: wrong shard count, no fingerprint field.
	_, err := client.QueryPage(&prep.Query{}, "sc1!garbage", 5)
	if !errors.Is(err, shard.ErrBadCursor) {
		t.Fatalf("malformed cursor over the wire: errors.Is(err, ErrBadCursor)=false, err=%v", err)
	}
}
