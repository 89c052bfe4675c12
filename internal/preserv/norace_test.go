//go:build !race

package preserv

// recordRoundTripAllocs is TestRecordRoundTripAllocs's ceiling. The
// store's kvdb batch encoding takes 3 of them (the log bytes, the run's
// keys and the runs). The count read 26 over 8 runs.
const recordRoundTripAllocs = 27
