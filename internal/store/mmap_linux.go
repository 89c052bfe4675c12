//go:build linux

package store

import (
	"os"
	"syscall"
)

// mmapSupported reports whether this platform serves segment reads from
// a real memory mapping; elsewhere mapSeg keeps a heap copy of the
// segment with the same handle lifetime.
const mmapSupported = true

// mmapFile maps size bytes of fh read-only and shared, so the kernel
// page cache backs every read directly — no read syscalls, no buffer
// copies until a value is handed out — and returns the mapping with its
// releaser.
func mmapFile(fh *os.File, size int64) ([]byte, func() error, error) {
	data, err := syscall.Mmap(int(fh.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
