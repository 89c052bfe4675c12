//go:build linux

package main

import (
	"os"
	"syscall"
	"unsafe"
)

// ioctl numbers and the inode flag from <linux/fs.h>.
const (
	fsIocGetFlags = 0x80086601
	fsIocSetFlags = 0x40086602
	fsTopdirFl    = 0x00020000
)

// spreadSubdirs marks dir as a "top of directory hierarchy" (chattr +T),
// which makes ext4 place each new subdirectory, and so its files, in a
// block group of its own choosing instead of next to dir. ext4 makes
// every file creation step over the inodes deleted in its block group
// during the last one to five minutes, one by one: a store directory
// created beside one that was just removed — the previous set-up, the
// previous run — pays 100-300 us per file instead of 15, a regime that
// would decide the file backend's numbers. Best effort: other file
// systems refuse the flag and do not need it.
func spreadSubdirs(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags int
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); errno != 0 {
		return
	}
	flags |= fsTopdirFl
	_, _, _ = syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags)))
}
