//go:build linux

package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that pinToOneCPU has already restarted.
const pinnedEnv = "PRESERV_BENCHMARK_CPU"

// pinToOneCPU restarts the program confined to one processor — the last
// of those it may use — with GOMAXPROCS=1. The reference sandbox's
// processors change speed independently of each other (calib.go), and a
// request's work hops between them: client and server goroutines of one
// process on two processors read the speed of both in proportions that
// change from run to run, and the bursts could measure only the one they
// ran on. On one processor every request and every burst see the same
// speed. It is what a closed loop over one connection uses anyway: one
// request is in flight, and client and server take turns.
//
// The affinity is set on this thread and kept by exec, so every thread
// of the restarted process inherits it. Best effort: on failure the run
// goes on unpinned and says so.
func pinToOneCPU() {
	if os.Getenv(pinnedEnv) != "" {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask [16]uint64 // 1024 processors
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: not pinned: sched_getaffinity:", errno)
		return
	}
	cpu := -1
	for i := 0; i < int(n)*8; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: not pinned: sched_setaffinity:", errno)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: not pinned:", err)
		return
	}
	os.Setenv(pinnedEnv, fmt.Sprint(cpu))
	os.Setenv("GOMAXPROCS", "1")
	err = syscall.Exec(exe, os.Args, os.Environ())
	fmt.Fprintln(os.Stderr, "benchmark: not pinned: exec:", err)
}
