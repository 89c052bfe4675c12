//go:build race

package preserv

// recordRoundTripAllocs is TestRecordRoundTripAllocs's ceiling: the
// race detector makes sync.Pool drop buffers at random, and the count
// read 65–67 over 15 runs.
const recordRoundTripAllocs = 68
