package store

// Mmap-backed segment handles, the file backend's one segment read
// path. Segments are immutable once renamed into place, which makes
// them ideal mmap targets — open each touched segment once, keep the
// mapping in a handle cache, and serve every later read as a memcpy out
// of the kernel page cache with zero syscalls.
//
// Lifecycle contract: readers only touch mapped memory inside
// withSegData, under the handle lock held shared; Compact retires a
// mapping with dropSeg, which unmaps under the same lock held
// exclusively — so an unmap can never yank pages out from under an
// in-flight reader. Values handed out are always copies; no mapped byte
// escapes the lock.

import (
	"fmt"
	"os"
	"path/filepath"
)

// segMap is one open segment: an mmap of the whole file where the
// platform supports it, a heap copy where it doesn't (or where mapping
// failed — some filesystems refuse MAP_SHARED).
type segMap struct {
	data  []byte
	unmap func() error
}

func openSegMap(path string) (*segMap, error) {
	if mmapSupported {
		fh, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		if st, err := fh.Stat(); err == nil && st.Size() > 0 {
			if data, unmap, merr := mmapFile(fh, st.Size()); merr == nil {
				fh.Close()
				return &segMap{data: data, unmap: unmap}, nil
			}
		}
		fh.Close()
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &segMap{data: data}, nil
}

func (m *segMap) close() error {
	if m.unmap != nil {
		u := m.unmap
		m.unmap = nil
		return u()
	}
	return nil
}

// withSegData runs fn over the segment's bytes while holding the handle
// lock, opening (and caching) the handle on first touch. fn must copy
// anything it keeps and must not acquire f.mu (f.mu is ordered above
// segMu). Returns ok=false when the segment no longer exists — the
// caller treats its keys as absent.
func (f *FileBackend) withSegData(name string, fn func(data []byte) error) (ok bool, err error) {
	f.segMu.RLock()
	if m := f.segs[name]; m != nil {
		err := fn(m.data)
		f.segMu.RUnlock()
		return true, err
	}
	f.segMu.RUnlock()

	f.segMu.Lock()
	defer f.segMu.Unlock()
	m := f.segs[name]
	if m == nil {
		var oerr error
		m, oerr = openSegMap(filepath.Join(f.dir, name))
		if oerr != nil {
			if os.IsNotExist(oerr) {
				return false, nil
			}
			return false, fmt.Errorf("store: mapping segment %s: %w", name, oerr)
		}
		if f.segs == nil {
			f.segs = make(map[string]*segMap)
		}
		f.segs[name] = m
		f.segBytes.Add(int64(len(m.data)))
	}
	return true, fn(m.data)
}

// dropSeg retires a segment handle after Compact removed its file. The
// unmap happens under the exclusive handle lock, after every in-flight
// reader has copied its bytes out.
func (f *FileBackend) dropSeg(name string) {
	f.segMu.Lock()
	if m := f.segs[name]; m != nil {
		delete(f.segs, name)
		f.segBytes.Add(-int64(len(m.data)))
		_ = m.close()
	}
	f.segMu.Unlock()
}

// MappedBytes reports how many segment bytes are currently held by
// cached handles (mapped or heap-resident) — an obs gauge input.
func (f *FileBackend) MappedBytes() int64 { return f.segBytes.Load() }
