package client

// The AsyncRecorder's journal is journalMagic, then one frame per record:
// a uvarint payload length, a big-endian CRC-32C of the payload, and the
// payload, core.EncodeRecord's bytes.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strings"

	"preserv/internal/core"
	"preserv/internal/reuse"
	"preserv/internal/soap"
)

// journalMagic heads every journal. No gob journal of an earlier version
// starts with it: gob opens with a one-byte length and a type's negative
// id, an odd byte or one of 0xF8 and up, never 'J'.
const journalMagic = "PJRNL1\n"

var (
	castagnoli  = crc32.MakeTable(crc32.Castagnoli)
	errBadFrame = errors.New("client: torn or corrupt journal frame")
)

// appendFrame appends r's journal frame to buf.
func appendFrame(buf []byte, r *core.Record) ([]byte, error) {
	start := len(buf)
	buf, err := core.AppendRecord(buf, r)
	if err != nil {
		return buf[:start], err
	}
	var hdr [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(len(buf)-start))
	binary.BigEndian.PutUint32(hdr[n:], crc32.Checksum(buf[start:], castagnoli))
	return slices.Insert(buf, start, hdr[:n+4]...), nil
}

// journalReader reads the frames of one journal.
type journalReader struct {
	br      *bufio.Reader
	payload bytes.Buffer
	canon   []byte
}

// newJournalReader consumes the magic from src. A journal shorter than
// the magic and a prefix of it holds no record; one that does not start
// with it is an earlier version's gob journal, refused naming path.
func newJournalReader(src io.Reader, path string) (*journalReader, error) {
	br := bufio.NewReaderSize(src, 64<<10)
	head, err := br.Peek(len(journalMagic))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("client: reading journal %s: %w", path, err)
	}
	if !strings.HasPrefix(journalMagic, string(head)) {
		return nil, fmt.Errorf("%w: %s is a gob journal; the binary of commit %s ships it",
			core.ErrOldFormat, path, core.LastAdoptingCommit)
	}
	br.Discard(len(head))
	return &journalReader{br: br}, nil
}

// batch reads up to n records into a list whose records share one
// core.RecordArena, sized as if each took the first one's bytes, up to
// reuse.MaxBytes: past that its chunks grow with what was read, so a
// large record costs about its own size, not n times it. The
// error ends the list short of n: io.EOF at a clean end, errBadFrame
// for a frame the writer could not have written — torn, a length over
// soap.MaxMessageBytes or in more bytes than it needs, a CRC mismatch,
// or a payload that does not decode and re-encode to itself.
func (jr *journalReader) batch(n int) ([]core.Record, error) {
	var records []core.Record
	var arena *core.RecordArena
	for len(records) < n {
		payload, err := jr.frame()
		if err != nil {
			return records, err
		}
		if arena == nil {
			records = make([]core.Record, 0, n)
			arena = core.NewRecordArena(min(n*len(payload), reuse.MaxBytes))
		}
		var r core.Record
		if err = arena.Decode(payload, &r); err == nil {
			jr.canon, err = core.AppendRecord(jr.canon[:0], &r)
		}
		if err != nil || !bytes.Equal(jr.canon, payload) {
			return records, errBadFrame
		}
		records = append(records, r)
	}
	return records, nil
}

// frame returns the next frame's payload, valid until the next call.
func (jr *journalReader) frame() ([]byte, error) {
	head, err := jr.br.Peek(binary.MaxVarintLen64 + 4)
	if len(head) == 0 {
		if err != io.EOF {
			err = fmt.Errorf("client: reading journal: %w", err)
		}
		return nil, err
	}
	n, size := binary.Uvarint(head)
	if size <= 0 || size != len(binary.AppendUvarint(jr.canon[:0], n)) || n > soap.MaxMessageBytes || len(head) < size+4 {
		return nil, errBadFrame
	}
	sum := binary.BigEndian.Uint32(head[size:])
	jr.br.Discard(size + 4)
	// The payload grows as it arrives: a corrupt length costs no more
	// memory than the file holds.
	jr.payload.Reset()
	if _, err := io.CopyN(&jr.payload, jr.br, int64(n)); err != nil || crc32.Checksum(jr.payload.Bytes(), castagnoli) != sum {
		return nil, errBadFrame
	}
	return jr.payload.Bytes(), nil
}

// countJournalRecords reports how many records the clean prefix of the
// journal at path holds, or core.ErrOldFormat for a gob journal.
func countJournalRecords(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("client: opening journal: %w", err)
	}
	defer f.Close()
	jr, err := newJournalReader(f, path)
	if err != nil {
		return 0, err
	}
	for n := int64(0); ; {
		records, err := jr.batch(DefaultBatchSize)
		n += int64(len(records))
		if err != nil {
			return n, nil
		}
	}
}
