//go:build race

package soap

// raceEnabled: the race detector makes sync.Pool drop buffers at
// random, so Marshal's allocation ceiling does not hold under it.
const raceEnabled = true
