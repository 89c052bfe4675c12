//go:build !unix

package main

import "time"

// cpuTime is unavailable without getrusage; the CPU metrics read zero.
func cpuTime() time.Duration { return 0 }
