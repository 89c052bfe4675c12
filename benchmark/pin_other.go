//go:build !linux

package main

// pinToOneCPU confines the run to one processor where the platform lets
// a process do that to itself; here it does not.
func pinToOneCPU() {}
