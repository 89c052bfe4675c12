//go:build !race

package soap

const raceEnabled = false
