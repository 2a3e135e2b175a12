package protocol

import (
	"encoding/binary"
	"fmt"
)

// Cursor is the one bounds-checked decoder for variable-shape payloads
// (shard maps, control-plane RPC bodies, volume images): big-endian
// fields read in sequence, with a sticky error so a decoder reads every
// field unconditionally and checks Err once. After a failed read every
// later read returns zero. Lengths come off the wire, so a negative or
// overrunning one is refused, never sliced.
type Cursor struct {
	b    []byte
	off  int
	err  error
	what string
}

// NewCursor decodes b; what prefixes the error ("shard: map", "volume:
// image") so failures name the payload that was malformed.
func NewCursor(b []byte, what string) Cursor { return Cursor{b: b, what: what} }

// Err reports the first failed read, or nil.
func (c *Cursor) Err() error { return c.err }

// Remaining reports how many bytes have not been read.
func (c *Cursor) Remaining() int { return len(c.b) - c.off }

// Take reads n raw bytes. The result aliases the input.
func (c *Cursor) Take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b)-c.off {
		c.err = fmt.Errorf("%s truncated at offset %d (want %d bytes, have %d)", c.what, c.off, n, len(c.b)-c.off)
		return nil
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	if p := c.Take(1); p != nil {
		return p[0]
	}
	return 0
}

// U16 reads a big-endian uint16.
func (c *Cursor) U16() uint16 {
	if p := c.Take(2); p != nil {
		return binary.BigEndian.Uint16(p)
	}
	return 0
}

// U32 reads a big-endian uint32.
func (c *Cursor) U32() uint32 {
	if p := c.Take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (c *Cursor) U64() uint64 {
	if p := c.Take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// Str reads a string written by AppendStr (u16 length prefix).
func (c *Cursor) Str() string { return string(c.Take(int(c.U16()))) }

// Bytes reads a byte slice written by AppendBytes (u32 length prefix).
// The result is a copy; an empty field decodes as nil.
func (c *Cursor) Bytes() []byte { return append([]byte(nil), c.Take(int(c.U32()))...) }

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU16 appends a big-endian uint16.
func AppendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// AppendU32 appends a big-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// AppendU64 appends a big-endian uint64.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendStr appends s behind a u16 length prefix.
func AppendStr(b []byte, s string) []byte { return append(AppendU16(b, uint16(len(s))), s...) }

// AppendBytes appends p behind a u32 length prefix.
func AppendBytes(b, p []byte) []byte { return append(AppendU32(b, uint32(len(p))), p...) }
