package protocol

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// countingReader counts the bytes ReadMessageInto has consumed.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// frameSeeds are whole streams of the frame shapes the server splits:
// a read request, a write, a traced read, a checksummed traced write and
// a registration, back to back.
func frameSeeds() [][]byte {
	data := bytes.Repeat([]byte{0xA7}, 600)
	var out [][]byte
	add := func(hdr Header, payload []byte) {
		b, err := AppendMessage(nil, &hdr, payload)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	add(Header{Opcode: OpRead, Handle: 1, Cookie: 7, LBA: 8, Count: 4096}, nil)
	add(Header{Opcode: OpWrite, Handle: 1, Cookie: 8, LBA: 8, Count: 600}, data)
	add(Header{Opcode: OpRead, Flags: FlagTraced, Handle: 2, Cookie: 9, Count: 512}, AppendTrace(nil, 0xABCD, 0x1234))
	add(Header{Opcode: OpWrite, Flags: FlagChecksum | FlagTraced, Cookie: 10, Count: 600},
		AppendTrace(AppendChecksum(append([]byte(nil), data...)), 0xABCD, 0x5678))
	reg := Registration{BestEffort: true, Writable: true}
	add(Header{Opcode: OpRegister, Cookie: 11}, reg.Marshal())
	out = append(out, bytes.Join(out, nil))
	return out
}

// FuzzFrameStream checks the incremental splitter against
// ReadMessageInto: any byte stream, delivered in any chunking through a
// receive buffer smaller than most frames, must yield the same messages
// (header, payload, checksum verdict, trace context) in the same order,
// consume exactly the bytes of each frame it returns, and fail exactly
// where ReadMessageInto reports a bad header — which includes refusing an
// oversize Len before allocating for it.
func FuzzFrameStream(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(s, []byte{1, 31, 7, 200})
	}
	bad, _ := AppendMessage(nil, &Header{Opcode: OpWrite}, nil)
	bad[28] = 0x7F // Len far past MaxPayload
	f.Add(bad, []byte{3})
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		type frame struct {
			m   Message
			end int // stream offset just past the frame
		}
		var want []frame
		cr := &countingReader{r: bytes.NewReader(stream)}
		var refErr error
		for {
			var m Message
			if refErr = ReadMessageInto(cr, &m, nil); refErr != nil {
				break
			}
			want = append(want, frame{m, cr.n})
		}
		headerErr := !errors.Is(refErr, io.EOF) && !errors.Is(refErr, io.ErrUnexpectedEOF)

		var s Splitter
		bufLen := HeaderSize
		if len(cuts) > 0 {
			bufLen += int(cuts[0] % 64)
		}
		s.Reset(make([]byte, bufLen))
		var m Message
		got, fed := 0, 0
		var splitErr error
		for i := 0; fed < len(stream) && splitErr == nil; i++ {
			sp := s.Space()
			n := min(len(sp), len(stream)-fed)
			if len(cuts) > 0 {
				n = min(n, 1+int(cuts[i%len(cuts)]))
			}
			copy(sp, stream[fed:fed+n])
			s.Fill(n)
			fed += n
			for {
				ok, err := s.Next(&m, nil)
				if err != nil {
					splitErr = err
					break
				}
				if !ok {
					break
				}
				if got >= len(want) {
					t.Fatalf("splitter produced message %d, ReadMessageInto stopped at %d (%v)", got+1, len(want), refErr)
				}
				w := &want[got]
				if m.Header != w.m.Header || !bytes.Equal(m.Payload, w.m.Payload) ||
					m.ChecksumErr != w.m.ChecksumErr || m.TraceID != w.m.TraceID || m.ParentSpan != w.m.ParentSpan {
					t.Fatalf("message %d: splitter %+v, ReadMessageInto %+v", got, m.Header, w.m.Header)
				}
				if consumed := fed - (s.w - s.r); consumed != w.end {
					t.Fatalf("message %d: splitter consumed %d bytes, the frame ends at %d", got, consumed, w.end)
				}
				got++
			}
		}
		if got != len(want) {
			t.Fatalf("splitter produced %d messages, ReadMessageInto %d", got, len(want))
		}
		switch {
		case splitErr != nil && (!headerErr || splitErr.Error() != refErr.Error()):
			t.Fatalf("splitter failed with %v, ReadMessageInto with %v", splitErr, refErr)
		case splitErr == nil && headerErr:
			t.Fatalf("ReadMessageInto refused a header (%v) the splitter accepted", refErr)
		}
	})
}
