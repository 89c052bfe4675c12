package kvdb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// Both file systems keep the contract a DB relies on of its files: a
// read past the end returns what there is and io.EOF, a write past the
// end leaves a zero-filled hole, Truncate cuts and zero-extends, reads
// and writes run concurrently, a renamed file keeps its bytes, and every
// call after Close fails with os.ErrClosed.
func TestFileContract(t *testing.T) {
	onEachFS(t, func(t *testing.T, fs fsys, dir string) {
		name := filepath.Join(dir, "f")
		f, err := fs.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("abc"), 2); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		if n, err := f.ReadAt(buf, 0); n != 5 || err != io.EOF || string(buf[:n]) != "\x00\x00abc" {
			t.Fatalf("ReadAt past the end = %d, %v, %q", n, err, buf[:n])
		}
		if n, err := f.ReadAt(buf[:0], 5); n != 0 || err != nil {
			t.Fatalf("an empty ReadAt at the end = %d, %v", n, err)
		}
		if err := f.Truncate(3); err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(6); err != nil {
			t.Fatal(err)
		}
		if n, err := f.ReadAt(buf[:6], 0); err != nil || string(buf[:n]) != "\x00\x00a\x00\x00\x00" {
			t.Fatalf("after cutting to 3 bytes and growing to 6: %q, %v", buf[:n], err)
		}
		if st, err := f.Stat(); err != nil || st.Size() != 6 {
			t.Fatalf("Stat = %v, %v; want 6 bytes", st, err)
		}
		spanBlocks(t, fs, filepath.Join(dir, "big"))

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					want := []byte(fmt.Sprintf("%d:%03d.", g, i))
					off := int64((i*4 + g) * len(want))
					if _, err := f.WriteAt(want, off); err != nil {
						t.Error(err)
						return
					}
					got := make([]byte, len(want))
					if _, err := f.ReadAt(got, off); err != nil || !bytes.Equal(got, want) {
						t.Errorf("read back %q, %v; want %q", got, err, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = f.ReadAt(buf, 0)
		closed := map[string]error{"ReadAt": err}
		_, closed["WriteAt"] = f.WriteAt(buf, 0)
		closed["Truncate"] = f.Truncate(0)
		closed["Sync"] = f.Sync()
		_, closed["Stat"] = f.Stat()
		closed["Close"] = f.Close()
		for op, err := range closed {
			if !errors.Is(err, os.ErrClosed) {
				t.Errorf("%s after Close = %v, want os.ErrClosed", op, err)
			}
		}

		moved := filepath.Join(dir, "g")
		if err := fs.Rename(name, moved); err != nil {
			t.Fatal(err)
		}
		if exists(fs, name) || len(readFile(t, fs, moved)) != 4*200*6 {
			t.Fatalf("after the rename: %v at the old name, %d bytes at the new", exists(fs, name), len(readFile(t, fs, moved)))
		}
		if err := fs.Rename(name, moved); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("renaming a missing file = %v, want os.ErrNotExist", err)
		}
		writeFile(t, fs, moved, []byte("new"))
		if got := readFile(t, fs, moved); string(got) != "new" {
			t.Errorf("after an open with O_TRUNC and a write: %q", got)
		}
		if err := fs.Remove(moved); err != nil || exists(fs, moved) {
			t.Errorf("Remove = %v; the file exists after it: %v", err, exists(fs, moved))
		}
	})
}

// Open keeps its log in the directory it names, NewMemory keeps it in
// memory; both are the same engine.
func TestOpenAndNewMemory(t *testing.T) {
	dir := t.TempDir()
	disk, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []*DB{disk, NewMemory()} {
		if err := db.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := db.Get("k"); err != nil || !ok || string(v) != "v" {
			t.Fatalf("Get = %q, %v, %v", v, ok, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := readFile(t, osFS{}, filepath.Join(dir, dataFileName)); len(got) != int(disk.offset) {
		t.Fatalf("Open's log file holds %d bytes, want %d", len(got), disk.offset)
	}
}

// spanBlocks writes and reads across several of memFS's blocks, cuts the
// file inside one and grows it past the cut again: the bytes between
// read as zeros.
func spanBlocks(t *testing.T, fs fsys, name string) {
	t.Helper()
	f, err := fs.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	big := bytes.Repeat([]byte("0123456789"), memBlock/4)
	if _, err := f.WriteAt(big, memBlock-7); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(big))
	if _, err := f.ReadAt(got, memBlock-7); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("read across blocks: %v, equal %v", err, bytes.Equal(got, big))
	}
	if err := f.Truncate(memBlock + 3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("z"), 2*memBlock+5); err != nil {
		t.Fatal(err)
	}
	want := append([]byte("789"), make([]byte, memBlock+2)...)
	want = append(want, 'z')
	got = make([]byte, len(want))
	if _, err := f.ReadAt(got, memBlock); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("after a cut inside a block and a write past it: %v, equal %v", err, bytes.Equal(got, want))
	}
}
