package db

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// The framing the snapshot file (internal/shard) is written and read
// with. A payload is a sequence of bytes, uvarints and
// uvarint-length-prefixed strings, and it ends in the integrity trailer:
// sumMagic and the little-endian IEEE CRC32 of every byte before the
// trailer.

// sumMagic introduces the integrity trailer.
const sumMagic = "TIXSUM1\n"

// FrameWriter writes a snapshot payload through a buffer that hashes every
// byte; Seal ends it with the integrity trailer. Write errors are sticky
// in the buffer and surface from Seal.
type FrameWriter struct {
	*bufio.Writer
	w io.Writer
	h hash.Hash32
}

// NewFrameWriter starts a snapshot payload on w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	h := crc32.NewIEEE()
	return &FrameWriter{Writer: bufio.NewWriter(io.MultiWriter(w, h)), w: w, h: h}
}

// PutUvarint writes v as a uvarint.
func (f *FrameWriter) PutUvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	_, _ = f.Write(buf[:binary.PutUvarint(buf[:], v)])
}

// PutString writes s after its uvarint length.
func (f *FrameWriter) PutString(s string) {
	f.PutUvarint(uint64(len(s)))
	_, _ = f.WriteString(s)
}

// Seal flushes the payload and writes the trailer, which goes to the
// underlying writer directly and so stays outside its own sum.
func (f *FrameWriter) Seal() error {
	if err := f.Flush(); err != nil {
		return err
	}
	var tr [len(sumMagic) + 4]byte
	copy(tr[:], sumMagic)
	binary.LittleEndian.PutUint32(tr[len(sumMagic):], f.h.Sum32())
	_, err := f.w.Write(tr[:])
	return err
}

// FrameReader decodes a payload written through a FrameWriter from
// memory. NewFrameReader checks the integrity trailer before anything is
// decoded, so a damaged payload fails before any work is spent on it, and
// Done checks that decoding consumed the payload exactly. Failures are
// sticky: the first is kept for Err and Done, and every later read
// returns a zero value. Every error it returns starts with the caller's
// prefix and wraps the caller's corrupt sentinel: a payload that cannot
// be read as written, short input included, is a corrupt one.
type FrameReader struct {
	buf     []byte // the payload, trailer excluded
	off     int
	err     error
	prefix  string
	corrupt error
}

// NewFrameReader checks that data starts with magic and ends in an
// integrity trailer whose checksum matches every byte before it, and
// returns a reader positioned after the magic. The reader decodes from
// data without copying it; Text copies what it returns.
func NewFrameReader(data []byte, magic, prefix string, corrupt error) (*FrameReader, error) {
	f := &FrameReader{prefix: prefix, corrupt: corrupt}
	n := len(data) - len(sumMagic) - 4
	switch {
	case !bytes.HasPrefix(data, []byte(magic)):
		return nil, f.Corrupt(fmt.Sprintf("bad magic %q, want %q", data[:min(len(data), len(magic))], magic), nil)
	case n < len(magic):
		return nil, f.Corrupt(fmt.Sprintf("truncated integrity trailer (%d bytes after the magic)", len(data)-len(magic)), nil)
	case string(data[n:n+len(sumMagic)]) != sumMagic:
		return nil, f.Corrupt(fmt.Sprintf("no %q trailer at the end of the input", sumMagic), nil)
	}
	if want, got := binary.LittleEndian.Uint32(data[n+len(sumMagic):]), crc32.ChecksumIEEE(data[:n]); got != want {
		return nil, f.Corrupt(fmt.Sprintf("checksum mismatch (file %08x, payload %08x)", want, got), nil)
	}
	f.buf, f.off = data[:n], len(magic)
	return f, nil
}

// Corrupt returns the error for a payload that holds what, wrapping the
// corrupt sentinel and cause when it is non-nil.
func (f *FrameReader) Corrupt(what string, cause error) error {
	if cause == nil {
		return fmt.Errorf("%s: %s: %w", f.prefix, what, f.corrupt)
	}
	return fmt.Errorf("%s: %s: %w: %w", f.prefix, what, f.corrupt, cause)
}

// Err returns the first failure, or nil.
func (f *FrameReader) Err() error { return f.err }

// Fail records that the payload holds what, unless a failure is recorded
// already, and ends the input, so every later read returns zero. The
// reads call it when the input runs short; decoders call it when what
// they read does not hold.
func (f *FrameReader) Fail(what string, cause error) {
	if f.err == nil {
		f.err = f.Corrupt(what, cause)
	}
	f.off = len(f.buf)
}

// Byte reads one byte.
func (f *FrameReader) Byte() byte {
	if f.off == len(f.buf) {
		f.Fail("short read", io.ErrUnexpectedEOF)
		return 0
	}
	f.off++
	return f.buf[f.off-1]
}

// Uvarint reads one uvarint.
func (f *FrameReader) Uvarint() uint64 {
	v, n := binary.Uvarint(f.buf[f.off:])
	if n <= 0 {
		f.Fail("bad uvarint", nil)
		return 0
	}
	f.off += n
	return v
}

// Bytes returns the next n bytes, a slice of the input: a declared length
// longer than what remains is corrupt before anything is allocated.
func (f *FrameReader) Bytes(n uint64) []byte {
	if n > uint64(len(f.buf)-f.off) {
		f.Fail(fmt.Sprintf("%d bytes declared, %d left", n, len(f.buf)-f.off), io.ErrUnexpectedEOF)
		return nil
	}
	f.off += int(n)
	//tixlint:ignore aliasret the slice is the caller's own input, which the reader never writes; the loaders parse it or copy it before they return
	return f.buf[f.off-int(n) : f.off]
}

// Text reads a string written by PutString.
func (f *FrameReader) Text() string { return string(f.Bytes(f.Uvarint())) }

// Done returns the first failure, or an error if decoding stopped short
// of the trailer.
func (f *FrameReader) Done() error {
	if f.err == nil && f.off != len(f.buf) {
		return f.Corrupt(fmt.Sprintf("%d bytes of unexpected data after payload", len(f.buf)-f.off), nil)
	}
	return f.err
}
