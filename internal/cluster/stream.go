// Diff streams: OpVolStream ships a snapshot diff (DESIGN.md §18) to a
// backup/restore receiver with the package's one shipper (shipper.go). The
// source is a volume generation image instead of the raw device, the ranges
// are the diff's extents, and no live traffic shares the connection, so the
// shipper runs with no send lock and a cookie counter of its own.
package cluster

import (
	"sync/atomic"

	"github.com/reflex-go/reflex/internal/protocol"
)

// StreamConfig configures a diff stream.
type StreamConfig struct {
	// Op stamps every chunk and the final marker (OpVolStream).
	Op protocol.Opcode
	// Handle is echoed in every chunk's Header.Handle (the receiver's
	// request tag, so one connection can multiplex streams).
	Handle uint16
	// Epoch stamps chunks so a deposed server's stream is fenced like any
	// other replication traffic.
	Epoch func() uint16
	// ReadAt reads the source image (e.g. Volume.ReadAtGen at the diff's
	// upper generation).
	ReadAt func(p []byte, off int64) error
	// Sender delivers frames to the receiver's connection.
	Sender ReplicaSender
	// ChunkBytes bounds chunk payloads (default 256 KiB, clamped to
	// protocol.MaxPayload).
	ChunkBytes int
	// OnChunk observes shipped bytes (may be nil).
	OnChunk func(bytes int)
	// OnDone is called exactly once when the stream finishes or dies;
	// complete is true only if every range was acked and the end marker
	// sent (may be nil).
	OnDone func(complete bool)
}

// Stream ships a fixed list of ranges, self-paced by receiver acks.
type Stream struct {
	sh     shipper
	onDone func(complete bool)

	done atomic.Bool
	sent atomic.Uint64 // bytes acked so far
}

// NewStream builds a stream; Run starts shipping.
func NewStream(cfg StreamConfig) *Stream {
	s := &Stream{onDone: cfg.OnDone}
	s.sh = shipper{
		sender:     cfg.Sender,
		acks:       newPendingAcks(),
		cookie:     new(atomic.Uint64),
		epoch:      cfg.Epoch,
		readAt:     cfg.ReadAt,
		lock:       noLock{},
		chunkOp:    cfg.Op,
		marker:     protocol.Header{Opcode: cfg.Op, Handle: cfg.Handle},
		okMarker:   true,
		chunkBytes: chunkBytes(cfg.ChunkBytes),
		onChunk: func(n int) {
			s.sent.Add(uint64(n))
			if cfg.OnChunk != nil {
				cfg.OnChunk(n)
			}
		},
	}
	return s
}

// SentBytes reports acked stream progress.
func (s *Stream) SentBytes() uint64 { return s.sent.Load() }

// Done reports whether the stream has finished (completely or not).
func (s *Stream) Done() bool { return s.done.Load() }

// Close tears the stream down (receiver connection died). Idempotent.
func (s *Stream) Close() { s.sh.acks.close() }

// HandleAck routes a receiver ack (a FlagResponse frame read off the
// stream's connection) to the chunk waiting on it.
func (s *Stream) HandleAck(hdr *protocol.Header) {
	if done := s.sh.acks.take(hdr.Cookie); done != nil {
		done(hdr.Status)
	}
}

// Run ships every range in order, then the end marker (a non-response
// frame with Len == 0 and Count == 0), StatusOK if every chunk was acked
// and non-OK if the stream died while the receiver is still connected.
// Done is published before the marker hits the wire, so by the time the
// receiver reads it the sender side already counts as finished (a
// back-to-back stream request on the same connection must not see a busy
// slot). Blocks until complete or Closed; call from a dedicated goroutine.
func (s *Stream) Run(ranges []StreamRange) {
	shipped := s.sh.ship(ranges)
	s.done.Store(true)
	complete := s.sh.finish(shipped)
	if s.onDone != nil {
		s.onDone(complete)
	}
}
