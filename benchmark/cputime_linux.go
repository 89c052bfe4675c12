//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTimeID is CLOCK_PROCESS_CPUTIME_ID from <time.h>.
const clockProcessCPUTimeID = 2

// cpuTime is the process's user+system CPU time so far, from the
// scheduler's own nanosecond accounting: getrusage advances in timer
// ticks (4 ms here), a twentieth of a short section.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
