package kvdb

import (
	"io"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// file is what a DB asks of its log and compaction files. *os.File is
// one; so is memFile. Both allow concurrent ReadAt and WriteAt, return
// io.EOF from a short read, and fail with os.ErrClosed after Close.
type file interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	Close() error
}

// fsys is where a DB keeps its files: the operating system's (osFS), or
// memory (memFS).
type fsys interface {
	MkdirAll(dir string, perm os.FileMode) error
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	Remove(name string) error
	Rename(oldpath, newpath string) error
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }
func (osFS) Remove(name string) error                    { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error        { return os.Rename(oldpath, newpath) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a typed nil *os.File in a non-nil file
	}
	return f, nil
}

// memFS keeps files in memory, by name. Directories are only name
// prefixes: MkdirAll has nothing to make, and OpenFile creates a missing
// file whatever its flags.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memData
}

func newMemFS() *memFS { return &memFS{files: make(map[string]*memData)} }

func (*memFS) MkdirAll(string, os.FileMode) error { return nil }

// OpenFile opens name, creating it if it is missing and emptying it under
// os.O_TRUNC.
func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[name]
	if !ok {
		d = new(memData)
		m.files[name] = d
	} else if flag&os.O_TRUNC != 0 {
		d.mu.Lock()
		d.resize(0)
		d.mu.Unlock()
	}
	return &memFile{memData: d}, nil
}

// Remove removes name; removing a missing file is not an error.
func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

// Rename moves oldpath's file to newpath, replacing any there. Files open
// at either name keep their bytes, as an unlinked file's open handles do.
func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	m.files[newpath] = d
	delete(m.files, oldpath)
	return nil
}

// memBlock is the size of the blocks an in-memory file keeps its bytes
// in. A file grows by whole blocks and never copies the bytes it holds,
// so a write costs what it writes however large the log has grown.
const memBlock = 64 << 10

// memData is one in-memory file's bytes. Bytes past size in the last
// block are kept zero, so growing the file leaves a zero-filled hole, as
// a write past the end of a file does.
type memData struct {
	mu     sync.RWMutex
	blocks [][]byte
	size   int64
}

// resize sets the file's size, zero-filling what it grows by. Callers
// hold d.mu, or own d alone.
func (d *memData) resize(size int64) {
	keep := int((size + memBlock - 1) / memBlock)
	if size < d.size {
		clear(d.blocks[keep:])
		d.blocks = d.blocks[:keep]
		if tail := size % memBlock; tail != 0 {
			clear(d.blocks[keep-1][tail:])
		}
	}
	for len(d.blocks) < keep {
		d.blocks = append(d.blocks, make([]byte, memBlock))
	}
	d.size = size
}

// copyAt copies between p and the file's bytes from off on, into the
// file if in is set and out of it otherwise, up to the file's size, and
// returns how many bytes it copied. Callers hold d.mu.
func (d *memData) copyAt(p []byte, off int64, in bool) int {
	n := 0
	for n < len(p) && off < d.size {
		b := d.blocks[off/memBlock][off%memBlock:]
		b = b[:min(int64(len(b)), d.size-off)]
		var c int
		if in {
			c = copy(b, p[n:])
		} else {
			c = copy(p[n:], b)
		}
		n += c
		off += int64(c)
	}
	return n
}

// memFile is one open of a memData.
type memFile struct {
	*memData
	closed atomic.Bool
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, os.ErrClosed
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if n := f.copyAt(p, off, false); n < len(p) {
		return n, io.EOF
	}
	return len(p), nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, os.ErrClosed
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if end := off + int64(len(p)); end > f.size {
		f.resize(end)
	}
	return f.copyAt(p, off, true), nil
}

func (f *memFile) Truncate(size int64) error {
	if f.closed.Load() {
		return os.ErrClosed
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resize(size)
	return nil
}

func (f *memFile) Sync() error {
	if f.closed.Load() {
		return os.ErrClosed
	}
	return nil
}

func (f *memFile) Stat() (os.FileInfo, error) {
	if f.closed.Load() {
		return nil, os.ErrClosed
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return memInfo(f.size), nil
}

func (f *memFile) Close() error {
	if f.closed.Swap(true) {
		return os.ErrClosed
	}
	return nil
}

// memInfo is a memFile's size, as Stat reports it.
type memInfo int64

func (memInfo) Name() string       { return "" }
func (s memInfo) Size() int64      { return int64(s) }
func (memInfo) Mode() os.FileMode  { return 0o644 }
func (memInfo) ModTime() time.Time { return time.Time{} }
func (memInfo) IsDir() bool        { return false }
func (memInfo) Sys() any           { return nil }
