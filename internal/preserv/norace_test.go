//go:build !race

package preserv

// recordRoundTripAllocs is TestRecordRoundTripAllocs's ceiling.
const recordRoundTripAllocs = 50
