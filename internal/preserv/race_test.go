//go:build race

package preserv

// recordRoundTripAllocs is TestRecordRoundTripAllocs's ceiling: the
// race detector makes sync.Pool drop what it holds at random, and the
// count read 21–26 over 64 runs.
const recordRoundTripAllocs = 28
