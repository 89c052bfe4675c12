//go:build !linux

package store

import "os"

// mmapSupported: no memory mapping on this platform; mapSeg keeps the
// whole segment on the heap instead, keeping the handle read path (and
// every test that exercises it) portable.
const mmapSupported = false

// mmapFile is unreachable when mmapSupported is false.
func mmapFile(fh *os.File, size int64) ([]byte, func() error, error) {
	return nil, nil, os.ErrInvalid
}
