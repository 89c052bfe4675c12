//go:build !linux

package main

// spreadSubdirs works around an ext4 allocation heuristic; see
// spread_linux.go.
func spreadSubdirs(string) {}
