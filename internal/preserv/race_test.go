//go:build race

package preserv

// recordRoundTripAllocs is TestRecordRoundTripAllocs's ceiling: the
// race detector makes sync.Pool drop buffers at random, and the count
// read 37–38 over 7 runs.
const recordRoundTripAllocs = 40
