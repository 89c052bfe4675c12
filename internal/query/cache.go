package query

import (
	"fmt"

	"preserv/internal/core"
	"preserv/internal/prep"
)

// MaxCachedRecords bounds what a result cache retains: a result with
// more records is recomputed on every query rather than pinned. The
// shard router's merged-answer cache uses the same bound.
const MaxCachedRecords = 1024

// cachedResult is one index-plan answer, held in the engine's kv.LRU
// under its CacheKey and stamped with the store generation read before
// the plan ran.
type cachedResult struct {
	records []core.Record
	total   int
	plan    prep.QueryPlan
}

// CacheKey renders the canonical form of a predicate, the identity every
// result cache (this package's and the shard router's) keys on. Every
// field that can change the result participates. Free-form fields
// (asserter, service, state kind) are %q-quoted so embedded separators
// cannot make two different predicates collide on one key.
func CacheKey(q *prep.Query) string {
	since, until := "-", "-"
	if !q.Since.IsZero() {
		since = fmt.Sprintf("%d", q.Since.UnixNano())
	}
	if !q.Until.IsZero() {
		until = fmt.Sprintf("%d", q.Until.UnixNano())
	}
	return fmt.Sprintf("i=%s|s=%s|g=%s|d=%s|k=%q|a=%q|v=%q|t=%q|since=%s|until=%s|l=%d",
		q.InteractionID, q.SessionID, q.GroupID, q.DataID,
		q.Kind, q.Asserter, q.Service, q.StateKind, since, until, q.Limit)
}
