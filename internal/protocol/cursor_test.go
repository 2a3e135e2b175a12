package protocol

import (
	"bytes"
	"strings"
	"testing"
)

func TestCursorRoundTrip(t *testing.T) {
	b := AppendU8(nil, 7)
	b = AppendU16(b, 0xBEEF)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, 1<<63|5)
	b = AppendStr(b, "node0")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBytes(b, nil)
	b = append(b, 9, 9)

	c := NewCursor(b, "test: payload")
	if v := c.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := c.U16(); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := c.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := c.U64(); v != 1<<63|5 {
		t.Errorf("U64 = %#x", v)
	}
	if v := c.Str(); v != "node0" {
		t.Errorf("Str = %q", v)
	}
	p := c.Bytes()
	if !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", p)
	}
	p[0] = 0xFF
	if b[bytes.Index(b, []byte{2, 3})-1] != 1 {
		t.Error("Bytes aliases the input")
	}
	if v := c.Bytes(); v != nil {
		t.Errorf("empty Bytes = %v, want nil", v)
	}
	if c.Remaining() != 2 || !bytes.Equal(c.Take(2), []byte{9, 9}) || c.Remaining() != 0 {
		t.Error("Take/Remaining disagree on the tail")
	}
	if c.Err() != nil {
		t.Fatalf("valid payload: %v", c.Err())
	}
}

func TestCursorRefusesBadLengthsAndSticks(t *testing.T) {
	for _, tc := range []struct {
		name string
		read func(c *Cursor)
		in   []byte
	}{
		{"negative take", func(c *Cursor) { c.Take(-1) }, []byte{1, 2, 3}},
		{"overrunning take", func(c *Cursor) { c.Take(4) }, []byte{1, 2, 3}},
		{"short u64", func(c *Cursor) { c.U64() }, make([]byte, 7)},
		{"str length past end", func(c *Cursor) { c.Str() }, []byte{0xFF, 0xFF, 'a'}},
		{"bytes length 0xFFFFFFFF", func(c *Cursor) { c.Bytes() }, []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2}},
		{"empty input", func(c *Cursor) { c.U8() }, nil},
	} {
		c := NewCursor(tc.in, "test: payload")
		tc.read(&c)
		err := c.Err()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "test: payload truncated") {
			t.Errorf("%s: error %q lacks the payload prefix", tc.name, err)
		}
		// Sticky: later reads return zero values and keep the first error,
		// even ones that would have fit.
		if c.U8() != 0 || c.Take(0) != nil || c.Str() != "" || c.Bytes() != nil || c.Err() != err {
			t.Errorf("%s: cursor kept reading after the error", tc.name)
		}
	}
}
