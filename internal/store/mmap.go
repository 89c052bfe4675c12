package store

// Mmap-backed segment handles, the file backend's one segment read
// path. Segments are immutable once renamed into place, which makes
// them ideal mmap targets: each segment is mapped once and every read
// is a memcpy out of the kernel page cache with zero syscalls.
//
// Lifetime contract: a segment's handle lives exactly as long as its
// file. publishFile maps a new segment before renaming it into place,
// open maps every segment it replays, and the handle sits in f.segs
// until Compact unlinks the file or Close releases it — both under f.mu
// held exclusively. Readers copy values out under f.mu held shared, so
// an unmap can never yank pages out from under them; no mapped byte
// escapes the lock.

import (
	"fmt"
	"os"
)

// segMap is one segment's bytes: an mmap of the whole file where the
// platform supports it, a heap copy where it doesn't (and for an empty
// file, which cannot be mapped).
type segMap struct {
	data  []byte
	unmap func() error
}

// mapSeg returns a handle over the first size bytes of the segment open
// on fh. Without mmap the bytes go on the heap: written when the caller
// has just written them, a read of the file otherwise.
func mapSeg(fh *os.File, size int64, written []byte) (*segMap, error) {
	if mmapSupported && size > 0 {
		data, unmap, err := mmapFile(fh, size)
		if err != nil {
			return nil, err
		}
		return &segMap{data: data, unmap: unmap}, nil
	}
	if written == nil {
		written = make([]byte, size)
		if _, err := fh.ReadAt(written, 0); err != nil {
			return nil, err
		}
	}
	return &segMap{data: written}, nil
}

// openSegMap maps an existing segment file.
func openSegMap(path string) (*segMap, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return nil, err
	}
	return mapSeg(fh, st.Size(), nil)
}

func (m *segMap) close() error {
	if m == nil || m.unmap == nil {
		return nil
	}
	u := m.unmap
	m.unmap = nil
	return u()
}

// valueIn returns the bytes at loc within m, the handle of loc's
// segment: a view into it, which the caller copies out before releasing
// the lock that keeps m mapped. An empty value (an index posting, which
// a key batch may hold) needs no handle. A missing handle or a range past the segment's end is
// corruption, since every location the directory holds lies in a live
// segment.
func valueIn(m *segMap, loc fileLoc) ([]byte, error) {
	if loc.vlen <= 0 {
		return nil, nil
	}
	end := loc.off + int64(loc.vlen)
	if m == nil || end > int64(len(m.data)) {
		return nil, fmt.Errorf("%w: segment %s holds no bytes [%d, %d)", ErrCorrupt, loc.file, loc.off, end)
	}
	return m.data[loc.off:end], nil
}

// addSegLocked installs the handle of a segment just published or
// replayed. Callers hold f.mu.
func (f *FileBackend) addSegLocked(name string, m *segMap) {
	f.segs[name] = m
	f.segBytes += int64(len(m.data))
}

// MappedBytes reports how many segment bytes the handles hold (mapped
// or heap-resident) — an obs gauge input.
func (f *FileBackend) MappedBytes() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.segBytes
}
