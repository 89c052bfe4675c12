// Package crashtest is the cross-backend crash/fuzz/property harness
// for the provenance store's write, delete and compaction paths. Its
// tests simulate crashes by truncating or corrupting the kvdb log tail
// mid-PutBatch / mid-DeleteBatch, at every byte boundary, reopen the
// store, and assert that
//
//   - the kvdb log recovers the interrupted batch whole or not at all
//     (never a hole, never a half-applied record), and
//   - the secondary index opens without writing anything, its planner
//     query results byte-identical to a full scan; a store in an
//     earlier format is refused by name, with nothing written.
//
// It also drives a randomized lifecycle property test: a random
// interleaving of Record / Delete / Query / Compact against both
// backends, concurrently, checked against a plain-map oracle at every
// quiesce point (run under -race in CI).
//
// The package contains no production code; it exists so the crash
// machinery has a home that future storage work extends.
package crashtest
