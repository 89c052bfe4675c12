//go:build race

package preserv

// recordRoundTripAllocs is TestRecordRoundTripAllocs's ceiling: the
// race detector makes sync.Pool drop buffers at random, and the count
// read 36–37 over 8 runs.
const recordRoundTripAllocs = 39
