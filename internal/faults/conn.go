package faults

import (
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Conn wraps a net.Conn and injects wall-clock faults on the byte-stream
// path: jitter, stalls, partial reads/writes, abrupt resets and half-open
// blackholes. It preserves net.Conn semantics (deadlines included) so
// hardened peers can be tested unmodified.
type Conn struct {
	net.Conn
	inj *Injector

	blackholed atomic.Bool
	readDL     atomic.Value // time.Time

	closeOnce sync.Once
	closeCh   chan struct{}
}

// WrapConn wraps c with fault injection. A nil injector returns c
// unchanged.
func WrapConn(c net.Conn, in *Injector) net.Conn {
	if in == nil {
		return c
	}
	return &Conn{Conn: c, inj: in, closeCh: make(chan struct{})}
}

// ConnFault is one draw of the faults WrapConn applies before each Read
// and Write, for a caller that serves many connections on one thread and
// so must not sleep inside an operation: it mutes the one connection for
// Mute instead.
type ConnFault struct {
	Mute  time.Duration // jitter plus any stall
	Reset bool          // close the connection abruptly
	Drop  bool          // blackhole it: reads never arrive, writes vanish
}

// ConnOp draws the faults for one connection operation.
func (in *Injector) ConnOp() ConnFault {
	var f ConnFault
	if in == nil {
		return f
	}
	if in.cfg.JitterMax > 0 {
		// Jitter is background noise applied to every operation; it is
		// deliberately not counted as an injected fault.
		in.mu.Lock()
		f.Mute = time.Duration(in.rng.Int63n(int64(in.cfg.JitterMax)))
		in.mu.Unlock()
	}
	if in.hit(in.cfg.StallProb) {
		in.note(KindStall)
		f.Mute += in.dur(in.cfg.StallDur)
	}
	if in.hit(in.cfg.ResetProb) {
		in.note(KindReset)
		f.Reset = true
		return f
	}
	if in.hit(in.cfg.DropProb) {
		in.note(KindDrop)
		f.Drop = true
	}
	return f
}

// Partial returns how many of n bytes one Read or Write moves: all of
// them, or about half under a partial fault.
func (in *Injector) Partial(n int) int {
	if in == nil || !in.hit(in.cfg.PartialProb) || n <= 1 {
		return n
	}
	in.note(KindPartial)
	return 1 + n/2
}

// CorruptAt picks the byte of an n-byte wire image to flip in flight, at
// or past skip (a frame header there must survive), or returns -1.
func (in *Injector) CorruptAt(n, skip int) int {
	if in == nil || n <= skip || !in.hit(in.cfg.CorruptProb) {
		return -1
	}
	in.mu.Lock()
	i := skip + in.rng.Intn(n-skip)
	in.mu.Unlock()
	in.note(KindCorrupt)
	return i
}

// perOp applies the shared pre-operation faults: jitter, stall, reset,
// drop. It returns a non-nil error when the operation must fail
// immediately.
func (c *Conn) perOp() error {
	f := c.inj.ConnOp()
	time.Sleep(f.Mute)
	if f.Reset {
		c.Close()
		return net.ErrClosed
	}
	if f.Drop {
		c.blackholed.Store(true)
	}
	return nil
}

// Read injects faults, then reads from the wrapped connection. A
// blackholed connection blocks until the read deadline or close — the
// observable behavior of a half-open peer.
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.perOp(); err != nil {
		return 0, err
	}
	if c.blackholed.Load() {
		return 0, c.blockUntilDeadline()
	}
	return c.Conn.Read(p[:c.inj.Partial(len(p))])
}

// wireHeaderSize mirrors protocol.HeaderSize without importing the
// protocol package: corruption must land beyond the fixed message header
// so framing survives and the flip falls inside checksummed payload bytes.
const wireHeaderSize = 32

// Write injects faults, then writes to the wrapped connection. A
// blackholed connection swallows writes (the peer will never see them); a
// partial fault writes a truncated prefix and reports the short count,
// which bufio surfaces as io.ErrShortWrite on the caller's flush path. A
// corrupt fault flips one byte past the fixed header — silent in-flight
// data corruption that only an end-to-end checksum catches.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.perOp(); err != nil {
		return 0, err
	}
	if c.blackholed.Load() {
		return len(p), nil // vanishes into the half-open void
	}
	if i := c.inj.CorruptAt(len(p), wireHeaderSize); i >= 0 {
		// Copy so the caller's buffer (possibly a retained payload slice)
		// is not mutated; corrupt only the bytes on the wire.
		p = append([]byte(nil), p...)
		p[i] ^= 0xA5
	}
	return c.Conn.Write(p[:c.inj.Partial(len(p))])
}

// blockUntilDeadline emulates a read against a half-open peer: nothing
// ever arrives, so the call returns only on deadline expiry or close. The
// wait re-checks the deadline periodically so a deadline set while
// blocked still takes effect.
func (c *Conn) blockUntilDeadline() error {
	for {
		wait := 20 * time.Millisecond
		if dl, ok := c.readDL.Load().(time.Time); ok && !dl.IsZero() {
			d := time.Until(dl)
			if d <= 0 {
				return os.ErrDeadlineExceeded
			}
			if d < wait {
				wait = d
			}
		}
		t := time.NewTimer(wait)
		select {
		case <-c.closeCh:
			t.Stop()
			return net.ErrClosed
		case <-t.C:
		}
	}
}

// SetReadDeadline tracks the deadline for blackhole emulation and
// forwards it.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.readDL.Store(t)
	return c.Conn.SetReadDeadline(t)
}

// SetDeadline tracks the read half and forwards.
func (c *Conn) SetDeadline(t time.Time) error {
	c.readDL.Store(t)
	return c.Conn.SetDeadline(t)
}

// Close unblocks any blackholed readers and closes the wrapped
// connection.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closeCh) })
	return c.Conn.Close()
}

// Listener wraps a net.Listener so every accepted connection carries
// fault injection.
type Listener struct {
	net.Listener
	inj *Injector
}

// WrapListener wraps ln with fault injection on accepted connections. A
// nil injector returns ln unchanged.
func WrapListener(ln net.Listener, in *Injector) net.Listener {
	if in == nil {
		return ln
	}
	return &Listener{Listener: ln, inj: in}
}

// Accept accepts and wraps one connection.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return WrapConn(c, l.inj), nil
}

// Dialer returns a dial function that wraps every dialed connection, for
// clients that take a pluggable dialer.
func Dialer(network, addr string, in *Injector) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return WrapConn(c, in), nil
	}
}
