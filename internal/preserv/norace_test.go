//go:build !race

package preserv

// recordRoundTripAllocs is TestRecordRoundTripAllocs's ceiling. The
// count read 7 over 8 runs: on the client the request and reply values
// and the reply's arena chunk; on the server the decoded request, the
// reply value, the reply's action name and the string the record's
// storage and posting keys are cut from. Both sides' messages and
// decoders, the server's decode memory, its spans and the store's and
// kvdb's batch buffers come from pools.
const recordRoundTripAllocs = 8
