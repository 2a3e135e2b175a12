package cluster

import (
	"sync"
	"sync/atomic"

	"github.com/reflex-go/reflex/internal/protocol"
)

// The one way this package moves existing bytes off a node (DESIGN.md
// §11): pair catch-up, shard migration and volume diff streams all run
// shipper. Ranges go out in chunks, one in flight at a time, each acked by
// the receiver before the next is read — so a transfer can never build a
// queue in front of latency-critical traffic — and a terminal marker frame
// closes them out.

// StreamRange is one contiguous byte range to ship.
type StreamRange struct {
	Off int64 // byte offset in the source's logical space (block-aligned)
	Len int64
}

// chunkBytes applies the default and the wire's payload bound to a
// configured chunk size.
func chunkBytes(n int) int {
	if n <= 0 {
		return 256 << 10
	}
	return min(n, protocol.MaxPayload)
}

// pendingAcks is the table of frames awaiting the receiver's ack, keyed by
// cookie. A session's live forwards and shipped chunks share one, so an
// ack read off the connection needs no routing beyond its cookie.
type pendingAcks struct {
	mu   sync.Mutex
	m    map[uint64]func(protocol.Status) // nil once closed
	stop chan struct{}                    // closed with the table
}

func newPendingAcks() *pendingAcks {
	return &pendingAcks{m: make(map[uint64]func(protocol.Status)), stop: make(chan struct{})}
}

// add registers done under cookie; false once the table is closed.
func (p *pendingAcks) add(cookie uint64, done func(protocol.Status)) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		return false
	}
	p.m[cookie] = done
	return true
}

// take removes and returns the callback waiting on cookie, nil if none.
func (p *pendingAcks) take(cookie uint64) func(protocol.Status) {
	p.mu.Lock()
	defer p.mu.Unlock()
	done := p.m[cookie]
	delete(p.m, cookie)
	return done
}

// close closes the table and returns the callbacks still waiting (nil on
// every call but the first).
func (p *pendingAcks) close() map[uint64]func(protocol.Status) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.m
	if m != nil {
		p.m = nil
		close(p.stop)
	}
	return m
}

func (p *pendingAcks) len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.m)
}

// noLock is the send lock of a shipper that has its connection to itself.
type noLock struct{}

func (noLock) Lock()   {}
func (noLock) Unlock() {}

// shipper ships byte ranges to one receiver. Every field is fixed by the
// call site that builds it (session or Stream); none is a user option.
type shipper struct {
	sender ReplicaSender
	acks   *pendingAcks
	cookie *atomic.Uint64
	epoch  func() uint16
	readAt func(p []byte, off int64) error
	// lock is held across each chunk's [read + send] pair. A session passes
	// its sendMu: a live forward then lands either before the chunk's read
	// (the chunk carries it) or after its send (the receiver applies it on
	// top), so a stale chunk can never overwrite a newer write.
	lock sync.Locker
	// chunkOp stamps data chunks. marker is the terminal frame's template
	// (opcode, handle, the window echoed in LBA/Count); its Handle tags
	// every chunk too. okMarker is false for unranged sessions: a classic
	// backup join ends its catch-up silently and announces only an abort.
	chunkOp    protocol.Opcode
	marker     protocol.Header
	okMarker   bool
	chunkBytes int
	onChunk    func(bytes int) // may be nil
}

// ship sends every range in order. It reports whether every chunk was
// acked StatusOK; false means a read failed, the receiver refused a chunk,
// or the table closed.
func (sh *shipper) ship(ranges []StreamRange) bool {
	buf := make([]byte, sh.chunkBytes)
	for _, rg := range ranges {
		for off, end := rg.Off, rg.Off+rg.Len; off < end; {
			p := buf[:min(int64(len(buf)), end-off)]
			if !sh.chunk(p, off) {
				return false
			}
			off += int64(len(p))
		}
	}
	return true
}

// chunk reads one chunk, sends it and waits for its ack.
func (sh *shipper) chunk(p []byte, off int64) bool {
	cookie := sh.cookie.Add(1)
	ack := make(chan protocol.Status, 1)
	sh.lock.Lock()
	ok := sh.readAt(p, off) == nil &&
		sh.acks.add(cookie, func(st protocol.Status) { ack <- st })
	if ok {
		sh.sender.SendToReplica(&protocol.Header{
			Opcode: sh.chunkOp,
			Handle: sh.marker.Handle,
			Epoch:  sh.epoch(),
			Cookie: cookie,
			LBA:    uint32(off / protocol.BlockSize),
			Count:  uint32(len(p)),
			Len:    uint32(len(p)),
		}, p, nil)
	}
	sh.lock.Unlock()
	if !ok {
		return false
	}
	select {
	case st := <-ack:
		if st == protocol.StatusOK && sh.onChunk != nil {
			sh.onChunk(len(p))
		}
		return st == protocol.StatusOK
	case <-sh.acks.stop:
		return false
	}
}

// finish sends the terminal marker — StatusOK after a complete ship, a
// non-OK Status otherwise, so a still-connected receiver fails fast instead
// of blocking on chunks that will never come. The marker is not acked, and
// is skipped once the table closed: the connection is gone. It reports
// whether the transfer completed.
func (sh *shipper) finish(shipped bool) bool {
	select {
	case <-sh.acks.stop:
		return false
	default:
	}
	if shipped && !sh.okMarker {
		return true
	}
	hdr := sh.marker
	hdr.Epoch = sh.epoch()
	if !shipped {
		hdr.Status = protocol.StatusError
	}
	sh.lock.Lock()
	sh.sender.SendToReplica(&hdr, nil, nil)
	sh.lock.Unlock()
	return shipped
}
