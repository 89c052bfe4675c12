//go:build race

package query

// raceEnabled: the race detector makes sync.Pool drop what it holds at
// random, so the allocation ceilings do not hold under it.
const raceEnabled = true
