package db

import (
	"bufio"
	"encoding/binary"
	"errors"
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

// maxString bounds a string a payload may declare, so that a corrupted
// length fails as implausible instead of reading on to the end of input.
const maxString = 1 << 30

// FrameReader reads a payload written through a FrameWriter, hashing
// exactly the bytes its consumer takes, and Verify checks the trailer
// after them. Every error it returns starts with the caller's prefix and
// wraps the caller's corrupt sentinel: a payload that cannot be read as
// written, short input included, is a corrupt one.
type FrameReader struct {
	// raw is the buffered source. The hash is taken above it, not under
	// it: bufio's readahead would otherwise pull trailer bytes into the
	// payload hash.
	raw     *bufio.Reader
	h       hash.Hash32
	prefix  string
	corrupt error
}

// NewFrameReader starts reading a snapshot payload from r.
func NewFrameReader(r io.Reader, prefix string, corrupt error) *FrameReader {
	return &FrameReader{raw: bufio.NewReader(r), h: crc32.NewIEEE(), prefix: prefix, corrupt: corrupt}
}

// Corrupt returns the error for a payload that holds what, wrapping the
// corrupt sentinel and cause when it is non-nil.
func (f *FrameReader) Corrupt(what string, cause error) error {
	if cause == nil {
		return fmt.Errorf("%s: %s: %w", f.prefix, what, f.corrupt)
	}
	return fmt.Errorf("%s: %s: %w: %w", f.prefix, what, f.corrupt, cause)
}

// Read reads and hashes up to len(p) bytes.
func (f *FrameReader) Read(p []byte) (int, error) {
	n, err := f.raw.Read(p)
	f.h.Write(p[:n])
	return n, err
}

// ReadByte reads and hashes one byte. It is the io.ByteReader the uvarint
// decoder reads through; Byte is its checked form.
func (f *FrameReader) ReadByte() (byte, error) {
	b, err := f.raw.ReadByte()
	if err == nil {
		f.h.Write([]byte{b})
	}
	return b, err
}

// Byte reads one byte.
func (f *FrameReader) Byte() (byte, error) {
	b, err := f.ReadByte()
	if err != nil {
		return 0, f.Corrupt("short read", err)
	}
	return b, nil
}

// Magic reads the format's magic and checks it is want.
func (f *FrameReader) Magic(want string) error {
	got := make([]byte, len(want))
	if _, err := io.ReadFull(f, got); err != nil {
		return f.Corrupt("no magic", err)
	}
	if string(got) != want {
		return f.Corrupt(fmt.Sprintf("bad magic %q, want %q", got, want), nil)
	}
	return nil
}

// Uvarint reads one uvarint.
func (f *FrameReader) Uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(f)
	if err != nil {
		return 0, f.Corrupt("bad uvarint", err)
	}
	return v, nil
}

// Bytes reads exactly n bytes in bounded chunks: a lying length on a
// corrupted file must not force a giant up-front allocation before the
// short read surfaces.
func (f *FrameReader) Bytes(n uint64) ([]byte, error) {
	const chunk = 1 << 16
	buf := make([]byte, 0, min(n, chunk))
	for remaining := n; remaining > 0; {
		k := min(remaining, chunk)
		start := len(buf)
		buf = append(buf, make([]byte, k)...)
		if _, err := io.ReadFull(f, buf[start:]); err != nil {
			return nil, f.Corrupt("short read", err)
		}
		remaining -= k
	}
	return buf, nil
}

// Text reads a string written by PutString.
func (f *FrameReader) Text() (string, error) {
	n, err := f.Uvarint()
	if err != nil {
		return "", err
	}
	if n > maxString {
		return "", f.Corrupt(fmt.Sprintf("implausible string length %d", n), nil)
	}
	buf, err := f.Bytes(n)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// Verify checks the trailer once the payload has been consumed: it must
// be present in full, match the payload's checksum and end the input.
func (f *FrameReader) Verify() error {
	tr := make([]byte, len(sumMagic)+4)
	if n, err := io.ReadFull(f.raw, tr); err != nil {
		return f.Corrupt(fmt.Sprintf("truncated integrity trailer (%d of %d bytes)", n, len(tr)), nil)
	}
	if string(tr[:len(sumMagic)]) != sumMagic {
		return f.Corrupt(fmt.Sprintf("unexpected data after payload (missing %q trailer)", sumMagic), nil)
	}
	want := binary.LittleEndian.Uint32(tr[len(sumMagic):])
	if got := f.h.Sum32(); got != want {
		return f.Corrupt(fmt.Sprintf("checksum mismatch (file %08x, payload %08x)", want, got), nil)
	}
	if _, err := f.raw.ReadByte(); !errors.Is(err, io.EOF) {
		return f.Corrupt("data after integrity trailer", nil)
	}
	return nil
}
