// Package client is the user-level ReFlex client library (§4.2): it opens
// TCP connections to a ReFlex server and issues register/unregister and
// logical-block read/write requests, bypassing any client-side filesystem
// or block layer. Both synchronous and asynchronous (callback-free,
// net/rpc-style future) interfaces are provided; many requests may be in
// flight on one connection, matched by cookie.
//
// Failure hardening: DialOptions enables per-request timeouts (no call
// ever hangs forever) and transparent reconnection with bounded
// exponential backoff. On reconnect the client re-registers its tenants
// (the server unregisters a dead connection's tenants) and transparently
// remaps handles, replays idempotent in-flight requests (reads, writes,
// barriers, stats) and cancels non-idempotent ones (register/unregister)
// with a typed error.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
)

// Errors mapped from response statuses.
var (
	// ErrBadRequest is a malformed or out-of-range request.
	ErrBadRequest = errors.New("reflex: bad request")
	// ErrNoTenant means the handle is not registered.
	ErrNoTenant = errors.New("reflex: unknown tenant handle")
	// ErrDenied means the tenant's ACL rejects the operation.
	ErrDenied = errors.New("reflex: permission denied")
	// ErrNoCapacity means the SLO was not admissible.
	ErrNoCapacity = errors.New("reflex: tenant SLO not admissible")
	// ErrServer is an internal server failure.
	ErrServer = errors.New("reflex: server error")
	// ErrDevice means the device failed this I/O; the operation is safe
	// to retry on the same connection.
	ErrDevice = errors.New("reflex: device I/O error")
	// ErrOverloaded means the server shed this best-effort request; back
	// off and retry.
	ErrOverloaded = errors.New("reflex: server overloaded, request shed")
	// ErrTruncated means a datagram transport truncated the request.
	ErrTruncated = errors.New("reflex: datagram truncated")
	// ErrClosed means the connection is gone.
	ErrClosed = errors.New("reflex: connection closed")
	// ErrTimeout means the per-request timeout expired before a response
	// arrived (the request may still execute on the server).
	ErrTimeout = errors.New("reflex: request timed out")
	// ErrNoReplicas means every configured replica address is down: the
	// failover sweep dialed them all (with backoff) and none answered.
	ErrNoReplicas = errors.New("reflex: no replicas reachable")
	// ErrStaleEpoch means the server refused a write because the cluster
	// epoch moved on (this client was talking to a deposed primary) and
	// the request could not be transparently replayed.
	ErrStaleEpoch = errors.New("reflex: stale cluster epoch")
	// ErrChecksum means the payload CRC32C did not verify end-to-end: the
	// data was corrupted in flight. The operation is safe to retry.
	ErrChecksum = errors.New("reflex: payload checksum mismatch")
	// ErrWrongShard means the server does not own the requested LBA range
	// under its installed shard map: the client's routing table is stale.
	// Refetch the map (shard.Router does this transparently) and retry at
	// the owner.
	ErrWrongShard = errors.New("reflex: wrong shard (stale routing table)")
)

func statusErr(s protocol.Status) error {
	switch s {
	case protocol.StatusOK:
		return nil
	case protocol.StatusBadRequest:
		return ErrBadRequest
	case protocol.StatusNoTenant:
		return ErrNoTenant
	case protocol.StatusDenied:
		return ErrDenied
	case protocol.StatusNoCapacity:
		return ErrNoCapacity
	case protocol.StatusDeviceError:
		return ErrDevice
	case protocol.StatusOverloaded:
		return ErrOverloaded
	case protocol.StatusTruncated:
		return ErrTruncated
	case protocol.StatusStaleEpoch:
		return ErrStaleEpoch
	case protocol.StatusBadChecksum:
		return ErrChecksum
	case protocol.StatusWrongShard:
		return ErrWrongShard
	default:
		return ErrServer
	}
}

// Call is an in-flight asynchronous request. Wait on Done, then read Err
// and Data.
type Call struct {
	// Done is closed when the response arrives or the connection fails.
	Done chan struct{}
	// Data is the read payload (reads only).
	Data []byte
	// Err is the outcome.
	Err error

	handle uint16
	status protocol.Status
	// respLBA/respCount echo the response header's LBA and Count fields:
	// OpShardMap responses carry the map version in LBA, and
	// StatusWrongShard responses carry the server's map version in Count.
	respLBA   uint32
	respCount uint32

	// hdr is the request as submitted (user-space handles) and payload
	// its body, kept for replay after reconnect.
	hdr     protocol.Header
	payload []byte
	timer   *time.Timer
	// lease is the pooled buffer backing payload (checksum-sealed write
	// frames). It is released exactly once, at the call's completion
	// point; stale-epoch re-pends keep it alive because the payload is
	// replayed at the new primary.
	lease *bufpool.Buf
	// staleLeft bounds transparent re-pends after a StatusStaleEpoch
	// response: the call is put back in flight and replayed at the new
	// primary at most this many times before the error surfaces.
	staleLeft int

	// TraceID is the distributed trace id this call carries (0 =
	// untraced). The client-side root span (ID == TraceID by convention)
	// is pushed into Options.TraceRing when the call completes.
	TraceID uint64
	// startNS anchors the root span's arrival stamp (client clock).
	startNS int64
}

// release returns the call's pooled payload lease. Every completion path
// (deliver, expire, fail, reconnect-cancel, drop) funnels through exactly
// one of the mutually exclusive pending-map removals, so release runs
// once per call.
func (c *Call) release() {
	if c.lease != nil {
		c.lease.Release()
		c.lease = nil
	}
}

// replayable reports whether the call is safe to re-issue on a fresh
// connection: reads, writes (idempotent at fixed LBA), trims (freeing a
// freed extent is a no-op), barriers and stats are; register/unregister
// are not (their effects are not idempotent and a lost response loses
// the handle).
func (c *Call) replayable() bool {
	switch c.hdr.Opcode {
	case protocol.OpRead, protocol.OpWrite, protocol.OpTrim, protocol.OpBarrier, protocol.OpStats:
		return true
	default:
		return false
	}
}

// transport frames protocol messages over some connection type.
type transport interface {
	writeMessage(hdr *protocol.Header, payload []byte) error
	readMessage() (*protocol.Message, error)
	close() error
}

// tcpTransport streams framed messages over TCP.
type tcpTransport struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	// hb is the header marshal scratch; writes are serialized by the
	// client's wmu, so one scratch per transport suffices and the write
	// path stays allocation-free.
	hb [protocol.HeaderSize]byte
	// msg is reused across readMessage calls: the read loop consumes each
	// message fully (only Payload, freshly allocated per message, escapes
	// into user hands via Call.Data) before reading the next.
	msg protocol.Message
}

// writeMessageBuffered frames hdr+payload into the buffered writer
// without flushing; the client's flusher goroutine coalesces one Flush
// across a submission burst (the client-side mirror of the server's
// adaptive response batching). A bufio write error is sticky, so a dead
// socket surfaces on the next call even if the failing flush happened on
// the flusher goroutine.
func (t *tcpTransport) writeMessageBuffered(hdr *protocol.Header, payload []byte) error {
	hdr.Len = uint32(len(payload))
	if hdr.Len > protocol.MaxPayload {
		return fmt.Errorf("protocol: payload %d exceeds max %d", hdr.Len, protocol.MaxPayload)
	}
	hdr.MarshalTo(t.hb[:])
	if _, err := t.bw.Write(t.hb[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := t.bw.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

func (t *tcpTransport) flush() error { return t.bw.Flush() }

func (t *tcpTransport) writeMessage(hdr *protocol.Header, payload []byte) error {
	if err := t.writeMessageBuffered(hdr, payload); err != nil {
		return err
	}
	return t.bw.Flush()
}

func (t *tcpTransport) readMessage() (*protocol.Message, error) {
	if err := protocol.ReadMessageInto(t.br, &t.msg, nil); err != nil {
		return nil, err
	}
	return &t.msg, nil
}

func (t *tcpTransport) close() error { return t.c.Close() }

// udpTransport carries one message per datagram (§4.1: TCP is the
// conservative choice; UDP is the lighter-weight transport the paper
// anticipates). Datagram transports are lossy in general: a dropped
// request or response leaves its Call pending until the per-request
// timeout fires, so callers on unreliable networks should set
// Options.Timeout. Only I/Os that fit one datagram are allowed.
type udpTransport struct {
	c *net.UDPConn
	// msg is reused across readMessage calls (see tcpTransport.msg).
	msg protocol.Message
}

// MaxUDPPayload bounds a single UDP I/O.
const MaxUDPPayload = 32 << 10

func (t *udpTransport) writeMessage(hdr *protocol.Header, payload []byte) error {
	if len(payload) > MaxUDPPayload || hdr.Count > MaxUDPPayload {
		return ErrBadRequest
	}
	// Frame into a pooled arena and send one datagram: no per-message
	// buffer allocation.
	frame := bufpool.Get(protocol.HeaderSize + len(payload))
	defer frame.Release()
	b, err := protocol.AppendMessage(frame.Bytes()[:0], hdr, payload)
	if err != nil {
		return err
	}
	_, err = t.c.Write(b)
	return err
}

func (t *udpTransport) readMessage() (*protocol.Message, error) {
	// Pooled receive scratch: the datagram is parsed in place and only the
	// payload — which becomes the user-owned Call.Data — is copied out
	// before the scratch returns to the pool.
	lease := bufpool.Get(64 << 10)
	defer lease.Release()
	buf := lease.Bytes()
	n, err := t.c.Read(buf)
	if err != nil {
		return nil, err
	}
	if err := t.msg.UnmarshalFrame(buf[:n]); err != nil {
		return nil, err
	}
	if len(t.msg.Payload) > 0 {
		t.msg.Payload = append([]byte(nil), t.msg.Payload...)
	}
	return &t.msg, nil
}

func (t *udpTransport) close() error { return t.c.Close() }

// Options harden a client connection against failures.
type Options struct {
	// Timeout bounds every request: a call whose response has not arrived
	// within Timeout completes with ErrTimeout. 0 disables (a lost
	// response then leaves the call pending until the connection dies).
	Timeout time.Duration
	// Reconnect enables transparent reconnection with bounded exponential
	// backoff when the connection dies. Tenants registered through this
	// client are re-registered on the new connection (handles are remapped
	// internally; callers keep using the handle Register returned), and
	// in-flight idempotent requests are replayed.
	Reconnect bool
	// MaxAttempts bounds dial attempts per outage (default 8).
	MaxAttempts int
	// BackoffBase and BackoffMax bound the exponential backoff between
	// dial attempts (defaults 10ms and 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Dialer optionally replaces net.Dial — chaos harnesses wrap the
	// returned conn with fault injection. It always dials the client's
	// original address; cluster clients that fail over between replicas
	// should use DialerFor instead.
	Dialer func() (net.Conn, error)
	// DialerFor optionally replaces net.Dial per target address, so a
	// failover to another replica dials the right place (and chaos
	// harnesses can wrap every replica connection). Takes precedence over
	// Dialer.
	DialerFor func(addr string) (net.Conn, error)

	// Checksum enables end-to-end payload integrity: write payloads are
	// sealed with a CRC32C trailer (verified server-side before touching
	// media) and reads request checksummed responses (verified here;
	// mismatches surface as ErrChecksum).
	Checksum bool

	// HedgeReads enables hedged reads on a DialCluster client: when a
	// synchronous Read has not completed after an adaptive delay (the
	// client's windowed read p95, clamped to [HedgeMinDelay,
	// HedgeMaxDelay]), a duplicate read is issued to a backup replica and
	// the first response wins. Hedges run on the backup's own tenant
	// registration, so they never double-charge the primary-side token
	// bucket.
	HedgeReads    bool
	HedgeMinDelay time.Duration
	HedgeMaxDelay time.Duration

	// Trace enables distributed tracing: every read and write carries a
	// FlagTraced trailer (16 bytes: trace id + parent span id) that
	// downstream hops — serving node, backup replica, migration relay —
	// record child spans against. The client records the root span of
	// each traced request into TraceRing. Off by default: untraced
	// requests are bit-for-bit the pre-tracing wire image.
	Trace bool
	// TraceRing receives the client-side root spans (required for Trace;
	// also used by WriteTraced). Shared rings are fine — spans carry the
	// node name "client".
	TraceRing *obs.Ring
}

func (o *Options) fill() {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 10 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.HedgeMinDelay <= 0 {
		o.HedgeMinDelay = 200 * time.Microsecond
	}
	if o.HedgeMaxDelay <= 0 {
		o.HedgeMaxDelay = 20 * time.Millisecond
	}
}

// Client is a connection to a ReFlex server. It is safe for concurrent use
// by multiple goroutines.
type Client struct {
	opts Options
	dial func() (transport, error) // nil: no reconnect (UDP, plain Dial)

	// targets is the replica address list; tIdx indexes the current dial
	// target. The target lives here — not captured in a dialer closure —
	// precisely so failover can swap it atomically while the reconnect
	// machinery keeps working unchanged.
	targets []string
	tIdx    atomic.Int32

	// Cluster failover state (DialCluster). epochA holds the cluster
	// epoch stamped on every request; failovers counts promote-accepted
	// target switches; the consec* counters feed the forced-failover
	// triggers (a run of timeouts or device errors on one replica).
	cluster        bool
	epochA         atomic.Uint32
	failovers      atomic.Uint64
	consecTimeouts atomic.Int32
	consecDevice   atomic.Int32
	hedge          *hedger

	// wmu serializes writes and is held across an entire reconnect, so
	// senders block (bounded by the backoff budget) instead of writing
	// into a dead transport.
	wmu sync.Mutex
	// dirty (guarded by wmu) marks frames buffered in the TCP transport's
	// writer but not yet flushed; the flusher goroutine clears it with one
	// Flush per kick, so a pipelined submission burst shares one syscall.
	dirty     bool
	flushKick chan struct{} // cap 1: a pending kick covers any later ones
	flushStop chan struct{}
	flushOnce sync.Once

	mu      sync.Mutex
	t       transport
	pending map[uint64]*Call
	// regs and handleMap implement reconnect handle continuity: regs
	// remembers every live registration by the user-visible handle (the
	// one Register returned); handleMap maps it to the server's current
	// handle for that tenant, which changes across reconnects.
	regs      map[uint16]protocol.Registration
	handleMap map[uint16]uint16
	closed    bool

	cookie     atomic.Uint64
	reconnects atomic.Uint64
	replayed   atomic.Uint64

	// shardVer is the routing-table version stamped (low 16 bits) into
	// the Status field of every I/O request — the map-version header echo
	// that lets a sharded server see how stale its caller is. 0 =
	// shard-unaware client (the pre-sharding wire image, bit for bit).
	shardVer atomic.Uint32

	// Tracing state: trace ids are traceBase | traceSeq, where traceBase
	// seeds from wall-clock nanoseconds at construction — unique across
	// clients without coordination. start anchors span stamps (ns since
	// client creation, same convention as the server's registry clock).
	start     time.Time
	traceBase uint64
	traceSeq  atomic.Uint64
}

// now returns nanoseconds since client creation (span stamp clock).
func (cl *Client) now() int64 { return int64(time.Since(cl.start)) }

// nextTrace mints a process-unique non-zero trace id.
func (cl *Client) nextTrace() uint64 {
	id := cl.traceBase | (cl.traceSeq.Add(1) & (1<<20 - 1))
	if id == 0 {
		id = 1
	}
	return id
}

// SetShardVersion records the client's routing-table version; subsequent
// I/O requests carry its low 16 bits in the header Status field. The
// shard router calls this after every map fetch.
func (cl *Client) SetShardVersion(v uint32) { cl.shardVer.Store(v) }

// target returns the current dial target.
func (cl *Client) target() string {
	return cl.targets[int(cl.tIdx.Load())%len(cl.targets)]
}

// rotateTarget atomically advances to the next replica address.
func (cl *Client) rotateTarget() {
	if len(cl.targets) > 1 {
		cl.tIdx.Add(1)
	}
}

// dialTimeout bounds a connect when Options.Timeout is unset: reconnect
// dials under wmu, so an unbounded connect to a blackholed node would
// block every sender for the kernel's connect timeout.
const dialTimeout = 5 * time.Second

// dialConn opens a raw connection to addr through the configured dial
// seam, or the network with a bounded connect.
func (cl *Client) dialConn(addr string) (net.Conn, error) {
	switch {
	case cl.opts.DialerFor != nil:
		return cl.opts.DialerFor(addr)
	case cl.opts.Dialer != nil:
		return cl.opts.Dialer()
	}
	d := cl.opts.Timeout
	if d <= 0 {
		d = dialTimeout
	}
	return net.DialTimeout("tcp", addr, d)
}

// dialTCP opens a TCP transport to addr. The target is read from the
// client at call time (not captured at construction), so a failover that
// swaps cl.tIdx redirects every subsequent reconnect attempt.
func (cl *Client) dialTCP(addr string) (transport, error) {
	c, err := cl.dialConn(addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		// The paper's driver sends each request immediately without
		// coalescing (§4.2); disable Nagle for the same reason.
		tc.SetNoDelay(true)
	}
	return &tcpTransport{
		c:  c,
		br: bufio.NewReaderSize(c, 64<<10),
		bw: bufio.NewWriterSize(c, 64<<10),
	}, nil
}

// dialCurrent dials whatever the current target is.
func (cl *Client) dialCurrent() (transport, error) {
	return cl.dialTCP(cl.target())
}

// Dial connects to a ReFlex server over TCP with default options (no
// timeout, no reconnection).
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to a ReFlex server over TCP with failure-hardening
// options.
func DialOptions(addr string, o Options) (*Client, error) {
	o.fill()
	cl := newClient(nil, o, []string{addr})
	t, err := cl.dialCurrent()
	if err != nil {
		return nil, err
	}
	cl.t = t
	if o.Reconnect {
		cl.dial = cl.dialCurrent
	}
	go cl.readLoop()
	return cl, nil
}

// DialUDP connects to a ReFlex server's UDP endpoint.
func DialUDP(addr string) (*Client, error) {
	return DialUDPOptions(addr, Options{})
}

// DialUDPOptions connects over UDP with options. Reconnect is ignored
// (datagram sockets do not die); Timeout is the defense against loss.
func DialUDPOptions(addr string, o Options) (*Client, error) {
	o.fill()
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	c, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	cl := newClient(&udpTransport{c: c}, o, []string{addr})
	go cl.readLoop()
	return cl, nil
}

// newClient builds the client shell; the caller installs the transport
// and dial hook before starting the read loop.
func newClient(t transport, o Options, targets []string) *Client {
	cl := &Client{
		opts:      o,
		t:         t,
		targets:   targets,
		pending:   make(map[uint64]*Call),
		regs:      make(map[uint16]protocol.Registration),
		handleMap: make(map[uint16]uint16),
		flushKick: make(chan struct{}, 1),
		flushStop: make(chan struct{}),
		start:     time.Now(),
		traceBase: uint64(time.Now().UnixNano()) << 20,
	}
	go cl.flushLoop()
	return cl
}

// kickFlush wakes the flusher; a kick already pending covers this one
// (the flusher re-checks dirty under wmu after every wake).
func (cl *Client) kickFlush() {
	select {
	case cl.flushKick <- struct{}{}:
	default:
	}
}

// flushLoop coalesces submission flushes: send() frames requests into the
// TCP transport's buffered writer, marks it dirty and kicks; one Flush
// here covers every frame buffered up to that point. Under light load the
// kick fires per request (one goroutine wake of added latency); under a
// pipelined burst many submissions share a single flush and syscall —
// the client-side counterpart of the server's §3.2.1 adaptive batching.
func (cl *Client) flushLoop() {
	for {
		select {
		case <-cl.flushStop:
			return
		case <-cl.flushKick:
		}
		cl.wmu.Lock()
		if cl.dirty {
			cl.dirty = false
			if tt, ok := cl.t.(*tcpTransport); ok {
				if err := tt.flush(); err != nil {
					// Dead socket: close it so the read loop notices now
					// rather than at the next response. The sticky bufio
					// error also surfaces on the next send.
					tt.close()
				}
			}
		}
		cl.wmu.Unlock()
	}
}

// stopFlusher halts the flush goroutine (Close and permanent failure).
func (cl *Client) stopFlusher() {
	cl.flushOnce.Do(func() { close(cl.flushStop) })
}

// Reconnects returns how many times the client has reconnected.
func (cl *Client) Reconnects() uint64 { return cl.reconnects.Load() }

// Replayed returns how many in-flight requests were replayed across
// reconnects.
func (cl *Client) Replayed() uint64 { return cl.replayed.Load() }

// Close tears the connection down; in-flight calls fail with ErrClosed.
func (cl *Client) Close() error {
	cl.mu.Lock()
	cl.closed = true
	t := cl.t
	cl.mu.Unlock()
	cl.stopFlusher()
	if h := cl.hedge; h != nil {
		h.close()
	}
	if t != nil {
		return t.close()
	}
	return nil
}

func (cl *Client) isClosed() bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.closed
}

func (cl *Client) readLoop() {
	for {
		cl.mu.Lock()
		t := cl.t
		cl.mu.Unlock()
		if t == nil {
			cl.fail(ErrClosed)
			return
		}
		m, err := t.readMessage()
		if err != nil {
			if cl.reconnect(err) {
				continue
			}
			return
		}
		cl.deliver(m)
	}
}

// deliver completes the pending call matching a response.
func (cl *Client) deliver(m *protocol.Message) {
	cl.mu.Lock()
	call := cl.pending[m.Header.Cookie]
	delete(cl.pending, m.Header.Cookie)
	cl.mu.Unlock()
	if call == nil {
		return // response to an abandoned, timed-out or duplicated call
	}
	// Epoch-fenced failover: a stale-epoch refusal of an idempotent call
	// is re-pended (bounded) and the client fails over — the reconnect
	// handshake promotes a fresh primary and the replay machinery
	// re-issues the call there, stamped with the new epoch.
	if cl.cluster && m.Header.Status == protocol.StatusStaleEpoch &&
		call.replayable() && call.staleLeft > 0 {
		call.staleLeft--
		cl.mu.Lock()
		repend := !cl.closed
		if repend {
			cl.pending[call.hdr.Cookie] = call
		}
		cl.mu.Unlock()
		if repend {
			cl.forceFailover()
			return
		}
	}
	if call.timer != nil {
		call.timer.Stop()
	}
	call.release()
	call.status = m.Header.Status
	call.handle = m.Header.Handle
	call.respLBA = m.Header.LBA
	call.respCount = m.Header.Count
	call.Data = m.Payload
	call.Err = statusErr(m.Header.Status)
	// End-to-end integrity: a response whose CRC32C trailer failed
	// verification must not be trusted, however OK its status.
	if m.ChecksumErr && call.Err == nil {
		call.Err = ErrChecksum
	}
	if cl.cluster {
		cl.consecTimeouts.Store(0)
		if errors.Is(call.Err, ErrDevice) {
			if cl.consecDevice.Add(1) >= deviceFailoverRuns {
				cl.consecDevice.Store(0)
				cl.forceFailover()
			}
		} else {
			cl.consecDevice.Store(0)
		}
	}
	cl.pushRootSpan(call)
	close(call.Done)
}

// pushRootSpan records a traced call's client-side root span (the
// timeline anchor every downstream hop parents to, directly or
// transitively). By convention the root span's ID equals the trace id.
func (cl *Client) pushRootSpan(call *Call) {
	if call.TraceID == 0 || cl.opts.TraceRing == nil {
		return
	}
	sp := obs.Span{
		ID:     call.TraceID,
		Trace:  call.TraceID,
		Node:   "client",
		Hop:    obs.HopClient,
		Write:  call.hdr.Opcode == protocol.OpWrite,
		Size:   int(call.hdr.Count),
		Tenant: int(call.hdr.Handle),
	}
	sp.Mark(obs.StageArrival, call.startNS)
	sp.Mark(obs.StageTx, cl.now())
	cl.opts.TraceRing.Push(sp)
}

// expire completes a call with ErrTimeout when its deadline passes.
func (cl *Client) expire(call *Call) {
	cl.mu.Lock()
	cur, ok := cl.pending[call.hdr.Cookie]
	if !ok || cur != call {
		cl.mu.Unlock()
		return // already completed
	}
	delete(cl.pending, call.hdr.Cookie)
	cl.mu.Unlock()
	call.release()
	call.Err = ErrTimeout
	if cl.cluster {
		// A run of timeouts on one replica (blackholed or GC-wedged) is
		// the failover trigger a half-open peer never gives us via errors.
		if cl.consecTimeouts.Add(1) >= timeoutFailoverRuns {
			cl.consecTimeouts.Store(0)
			cl.forceFailover()
		}
	}
	cl.pushRootSpan(call)
	close(call.Done)
}

// drop removes a never-sent call. The pending-map check keeps the lease
// release exclusive with a concurrently firing expire timer.
func (cl *Client) drop(call *Call) {
	cl.mu.Lock()
	_, mine := cl.pending[call.hdr.Cookie]
	delete(cl.pending, call.hdr.Cookie)
	cl.mu.Unlock()
	if call.timer != nil {
		call.timer.Stop()
	}
	if mine {
		call.release()
	}
}

// fail completes every pending call with err and closes the transport.
func (cl *Client) fail(err error) {
	cl.mu.Lock()
	cl.closed = true
	pending := cl.pending
	cl.pending = make(map[uint64]*Call)
	t := cl.t
	cl.mu.Unlock()
	cl.stopFlusher()
	for _, call := range pending {
		if call.timer != nil {
			call.timer.Stop()
		}
		call.Err = err
		call.release()
		close(call.Done)
	}
	if t != nil {
		t.close()
	}
}

// reconnect re-dials with bounded exponential backoff, re-registers
// tenants and replays idempotent in-flight requests. It returns true when
// the read loop should continue on the fresh transport. Senders block on
// wmu for the duration, bounded by the backoff budget.
func (cl *Client) reconnect(cause error) bool {
	if cl.dial == nil || cl.isClosed() {
		cl.fail(fmt.Errorf("%w: %v", ErrClosed, cause))
		return false
	}
	cl.wmu.Lock()
	defer cl.wmu.Unlock()
	cl.mu.Lock()
	if cl.t != nil {
		cl.t.close()
	}
	cl.mu.Unlock()

	backoff := cl.opts.BackoffBase
	for attempt := 0; attempt < cl.opts.MaxAttempts; attempt++ {
		if cl.isClosed() {
			cl.fail(ErrClosed)
			return false
		}
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > cl.opts.BackoffMax {
				backoff = cl.opts.BackoffMax
			}
		}
		nt, err := cl.dial()
		if err != nil {
			// With several replicas configured, a dead target rotates to
			// the next one — the failover sweep.
			cl.rotateTarget()
			continue
		}
		if cl.resume(nt) {
			cl.reconnects.Add(1)
			return true
		}
		nt.close()
		cl.rotateTarget()
	}
	if len(cl.targets) > 1 {
		// The sweep dialed every replica (with backoff) and none came up.
		cl.fail(fmt.Errorf("%w: %v", ErrNoReplicas, cause))
		return false
	}
	cl.fail(fmt.Errorf("%w: reconnect gave up: %v", ErrClosed, cause))
	return false
}

// resume re-registers tenants on a fresh transport, rebuilds the handle
// map, replays replayable in-flight calls and cancels the rest. Called
// with wmu held by the read loop, which is also the only reader of nt.
func (cl *Client) resume(nt transport) bool {
	// Cluster mode: probe the server's epoch and role first; a backup or
	// fenced replica is promoted at a higher epoch before any traffic,
	// and a replica whose epoch is behind ours is refused outright.
	if cl.cluster && !cl.clusterHandshake(nt) {
		return false
	}
	cl.mu.Lock()
	users := make([]uint16, 0, len(cl.regs))
	for h := range cl.regs {
		users = append(users, h)
	}
	cl.mu.Unlock()
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })

	// Re-register each tenant synchronously: writes and reads on nt are
	// exclusively ours until the read loop resumes.
	for _, uh := range users {
		cl.mu.Lock()
		reg, ok := cl.regs[uh]
		cl.mu.Unlock()
		if !ok {
			continue
		}
		hdr := protocol.Header{Opcode: protocol.OpRegister, Cookie: cl.cookie.Add(1)}
		if err := nt.writeMessage(&hdr, reg.Marshal()); err != nil {
			return false
		}
		m, err := nt.readMessage()
		if err != nil {
			return false
		}
		cl.mu.Lock()
		if m.Header.Status == protocol.StatusOK {
			cl.handleMap[uh] = m.Header.Handle
		} else {
			// The server no longer admits this tenant (capacity was
			// re-allocated). Later calls on the handle get NoTenant.
			delete(cl.regs, uh)
			delete(cl.handleMap, uh)
		}
		cl.mu.Unlock()
	}

	// Partition in-flight calls: replay the idempotent ones, cancel the
	// rest with a typed error.
	cl.mu.Lock()
	calls := make([]*Call, 0, len(cl.pending))
	for _, c := range cl.pending {
		calls = append(calls, c)
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].hdr.Cookie < calls[j].hdr.Cookie })
	var cancel []*Call
	var pins []*bufpool.Buf
	type replayReq struct {
		hdr     protocol.Header
		payload []byte
	}
	var replay []replayReq
	for _, c := range calls {
		if c.replayable() {
			// Snapshot the request and pin its pooled payload for the
			// replay write: an expire timer may complete (and release) the
			// call between this snapshot and the write below. The retain —
			// and the payload capture — happen in the same critical section
			// that saw the call still pending, so neither can race the
			// timer's release (which runs strictly after its own
			// pending-map removal).
			if c.lease != nil {
				c.lease.Retain()
				pins = append(pins, c.lease)
			}
			replay = append(replay, replayReq{hdr: c.hdr, payload: c.payload})
		} else {
			delete(cl.pending, c.hdr.Cookie)
			cancel = append(cancel, c)
		}
	}
	cl.mu.Unlock()
	for _, c := range cancel {
		if c.timer != nil {
			c.timer.Stop()
		}
		c.Err = fmt.Errorf("%w: connection reset during reconnect", ErrClosed)
		c.release()
		close(c.Done)
	}
	replayErr := false
	for _, r := range replay {
		w := r.hdr
		w.Handle = cl.mapHandle(r.hdr.Handle)
		// Re-stamp the epoch: a replay after failover must carry the new
		// primary's epoch or it would bounce off its own fence.
		w.Epoch = cl.Epoch()
		cl.stampShardVersion(&w)
		if err := nt.writeMessage(&w, r.payload); err != nil {
			replayErr = true
			break
		}
		cl.replayed.Add(1)
	}
	for _, p := range pins {
		p.Release() // drop the replay pin
	}
	if replayErr {
		return false
	}

	cl.mu.Lock()
	cl.t = nt
	cl.mu.Unlock()
	return true
}

// mapHandle translates a user-visible handle to the server's current one.
func (cl *Client) mapHandle(h uint16) uint16 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if sh, ok := cl.handleMap[h]; ok {
		return sh
	}
	return h
}

// send registers the call and writes the request.
func (cl *Client) send(hdr *protocol.Header, payload []byte) (*Call, error) {
	return cl.sendCall(hdr, payload, nil, 0)
}

// sendCall is send with a pooled payload lease attached to the call
// (sealed write frames, traced reads) and the request's trace id (0 for
// untraced). Ownership of the lease transfers to the call on success and
// is released here on every early-error path. The trace id is recorded on
// the call BEFORE it enters the pending map, so the read loop's deliver
// can never observe a half-initialized call.
func (cl *Client) sendCall(hdr *protocol.Header, payload []byte, lease *bufpool.Buf, trace uint64) (*Call, error) {
	call := &Call{Done: make(chan struct{}), payload: payload, lease: lease, staleLeft: 2,
		TraceID: trace, startNS: cl.now()}
	hdr.Cookie = cl.cookie.Add(1)
	call.hdr = *hdr

	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		call.release()
		return nil, ErrClosed
	}
	cl.pending[hdr.Cookie] = call
	if cl.opts.Timeout > 0 {
		call.timer = time.AfterFunc(cl.opts.Timeout, func() { cl.expire(call) })
	}
	cl.mu.Unlock()

	w := *hdr
	w.Handle = cl.mapHandle(hdr.Handle)
	w.Epoch = cl.Epoch()
	cl.stampShardVersion(&w)
	cl.wmu.Lock()
	t := cl.t
	var err error
	switch tt := t.(type) {
	case nil:
		err = ErrClosed
	case *tcpTransport:
		// Buffered submission: frame into the transport's writer and let
		// the flusher goroutine coalesce the flush across the burst.
		if err = tt.writeMessageBuffered(&w, payload); err == nil {
			cl.dirty = true
		}
	default:
		err = t.writeMessage(&w, payload)
	}
	cl.wmu.Unlock()
	if err == nil {
		cl.kickFlush()
	}
	if err != nil {
		if errors.Is(err, ErrBadRequest) {
			cl.drop(call)
			return nil, err // transport-level size limit, not a dead link
		}
		if cl.dial != nil && !cl.isClosed() && call.replayable() {
			// The read loop will detect the dead transport and replay
			// this call after reconnecting; the caller just waits.
			return call, nil
		}
		cl.drop(call)
		return nil, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return call, nil
}

func (cl *Client) wait(call *Call) error {
	<-call.Done
	return call.Err
}

// Register registers a tenant and returns its handle. The handle stays
// valid across reconnects: the client re-registers the tenant and remaps
// internally.
func (cl *Client) Register(reg protocol.Registration) (uint16, error) {
	call, err := cl.send(&protocol.Header{Opcode: protocol.OpRegister}, reg.Marshal())
	if err != nil {
		return 0, err
	}
	if err := cl.wait(call); err != nil {
		return 0, err
	}
	h := call.handle
	cl.mu.Lock()
	cl.regs[h] = reg
	cl.handleMap[h] = h
	cl.mu.Unlock()
	return h, nil
}

// Unregister removes a tenant.
func (cl *Client) Unregister(handle uint16) error {
	call, err := cl.send(&protocol.Header{Opcode: protocol.OpUnregister, Handle: handle}, nil)
	if err != nil {
		return err
	}
	err = cl.wait(call)
	if err == nil {
		cl.mu.Lock()
		delete(cl.regs, handle)
		delete(cl.handleMap, handle)
		cl.mu.Unlock()
	}
	return err
}

// GoRead starts an asynchronous read of n bytes at lba (512-byte units).
func (cl *Client) GoRead(handle uint16, lba uint32, n int) (*Call, error) {
	max := protocol.MaxPayload
	if cl.opts.Checksum {
		max -= protocol.ChecksumSize // room for the response trailer
	}
	if n <= 0 || n > max {
		return nil, ErrBadRequest
	}
	hdr := &protocol.Header{
		Opcode: protocol.OpRead,
		Handle: handle,
		LBA:    lba,
		Count:  uint32(n),
	}
	if cl.opts.Checksum {
		// Ask the server to seal the response; ReadMessage verifies and
		// strips the trailer, and deliver maps a mismatch to ErrChecksum.
		hdr.Flags |= protocol.FlagChecksum
	}
	if cl.opts.Trace {
		// Traced read: the request's entire payload is the 16-byte trace
		// trailer (reads otherwise have no body to append it to).
		trace := cl.nextTrace()
		hdr.Flags |= protocol.FlagTraced
		lease := bufpool.Get(protocol.TraceSize)
		payload := protocol.AppendTrace(lease.Bytes()[:0], trace, trace)
		return cl.sendCall(hdr, payload, lease, trace)
	}
	return cl.send(hdr, nil)
}

// GoWrite starts an asynchronous write of data at lba (512-byte units).
func (cl *Client) GoWrite(handle uint16, lba uint32, data []byte) (*Call, error) {
	return cl.goWrite(handle, lba, data, 0, 0, 0)
}

// GoWriteHinted starts an asynchronous write carrying an FDP-style data
// lifetime hint (protocol.HintShort or protocol.HintLong). The hint is
// advisory: placement-aware servers segregate hinted writes into
// separate streams/erase units to cut write amplification; others count
// and ignore it.
func (cl *Client) GoWriteHinted(handle uint16, lba uint32, data []byte, hint int) (*Call, error) {
	var flags uint16
	switch hint {
	case protocol.HintShort:
		flags = protocol.FlagHintShort
	case protocol.HintLong:
		flags = protocol.FlagHintLong
	}
	return cl.goWrite(handle, lba, data, flags, 0, 0)
}

// WriteHinted is the synchronous form of GoWriteHinted.
func (cl *Client) WriteHinted(handle uint16, lba uint32, data []byte, hint int) error {
	call, err := cl.GoWriteHinted(handle, lba, data, hint)
	if err != nil {
		return err
	}
	return cl.wait(call)
}

// GoWriteTraced starts an asynchronous write carrying an explicit trace
// context (trace id + parent span id), regardless of Options.Trace. The
// migration sink uses it to relay forwarded writes without breaking the
// originating request's timeline.
func (cl *Client) GoWriteTraced(handle uint16, lba uint32, data []byte, trace, parent uint64) (*Call, error) {
	return cl.goWrite(handle, lba, data, 0, trace, parent)
}

// goWrite builds the one write frame — data [+ CRC] [+ trace trailer] —
// and sends it. flags are the caller's header flags (lifetime hints);
// trace 0 means no explicit context, in which case Options.Trace mints a
// root one (parent == trace: the client root span).
func (cl *Client) goWrite(handle uint16, lba uint32, data []byte, flags uint16, trace, parent uint64) (*Call, error) {
	if trace == 0 && cl.opts.Trace {
		trace = cl.nextTrace()
		parent = trace
	}
	trailer := 0
	if cl.opts.Checksum {
		trailer += protocol.ChecksumSize
	}
	if trace != 0 {
		trailer += protocol.TraceSize
	}
	if len(data) == 0 || len(data) > protocol.MaxPayload-trailer {
		return nil, ErrBadRequest
	}
	hdr := &protocol.Header{
		Opcode: protocol.OpWrite,
		Handle: handle,
		LBA:    lba,
		Count:  uint32(len(data)),
		Flags:  flags,
	}
	if trailer == 0 {
		// Nothing to seal: the caller's slice goes to the wire as is.
		return cl.sendCall(hdr, data, nil, 0)
	}
	// Seal into one pooled frame: one copy into a lease with trailer
	// slack, trailers appended in place. Layering matters: the server
	// strips the trace trailer before verifying the checksum, so the CRC
	// goes on first (over data only). The lease lives until the call
	// completes — the sealed payload may be replayed across reconnects
	// and failovers.
	lease := bufpool.Get(len(data) + trailer)
	payload := lease.Bytes()[:len(data)]
	copy(payload, data)
	if cl.opts.Checksum {
		hdr.Flags |= protocol.FlagChecksum
		payload = protocol.AppendChecksum(payload)
	}
	if trace != 0 {
		hdr.Flags |= protocol.FlagTraced
		payload = protocol.AppendTrace(payload, trace, parent)
	}
	return cl.sendCall(hdr, payload, lease, trace)
}

// WriteTraced is the synchronous form of GoWriteTraced.
func (cl *Client) WriteTraced(handle uint16, lba uint32, data []byte, trace, parent uint64) error {
	call, err := cl.GoWriteTraced(handle, lba, data, trace, parent)
	if err != nil {
		return err
	}
	return cl.wait(call)
}

// GoBarrier starts an asynchronous ordering barrier on the tenant: it
// completes after every I/O submitted before it has completed, and I/O
// submitted after it waits for it.
func (cl *Client) GoBarrier(handle uint16) (*Call, error) {
	return cl.send(&protocol.Header{Opcode: protocol.OpBarrier, Handle: handle}, nil)
}

// Barrier issues a synchronous ordering barrier.
func (cl *Client) Barrier(handle uint16) error {
	call, err := cl.GoBarrier(handle)
	if err != nil {
		return err
	}
	return cl.wait(call)
}

// Stats fetches the tenant's scheduler counters.
func (cl *Client) Stats(handle uint16) (protocol.TenantStats, error) {
	var out protocol.TenantStats
	call, err := cl.send(&protocol.Header{Opcode: protocol.OpStats, Handle: handle}, nil)
	if err != nil {
		return out, err
	}
	if err := cl.wait(call); err != nil {
		return out, err
	}
	if err := out.Unmarshal(call.Data); err != nil {
		return out, err
	}
	return out, nil
}

// stampShardVersion writes the routing-table version echo into an I/O
// request header (the Status field is unused on requests). Non-I/O
// opcodes are left untouched so control traffic stays byte-identical to
// the pre-sharding protocol.
func (cl *Client) stampShardVersion(w *protocol.Header) {
	if w.Opcode != protocol.OpRead && w.Opcode != protocol.OpWrite {
		return
	}
	if v := cl.shardVer.Load(); v != 0 {
		w.Status = protocol.Status(uint16(v))
	}
}

// FetchShardMap retrieves the server's installed shard map: its version
// (0 = none installed) and marshaled form (shard.Unmarshal decodes it).
func (cl *Client) FetchShardMap() (uint32, []byte, error) {
	call, err := cl.send(&protocol.Header{Opcode: protocol.OpShardMap}, nil)
	if err != nil {
		return 0, nil, err
	}
	if err := cl.wait(call); err != nil {
		return 0, nil, err
	}
	return call.respLBA, call.Data, nil
}

// InstallShardMap offers a marshaled shard map to the server, which
// adopts it iff newer. Returns the server's resulting map version; a
// server already holding a newer map returns it with ErrStaleEpoch.
func (cl *Client) InstallShardMap(raw []byte) (uint32, error) {
	call, err := cl.send(&protocol.Header{Opcode: protocol.OpShardMap}, raw)
	if err != nil {
		return 0, err
	}
	err = cl.wait(call)
	return call.respLBA, err
}

// Read reads n bytes at lba synchronously. On a hedging cluster client,
// a read that outlives the adaptive hedge delay is duplicated to a backup
// replica and the first successful response wins.
func (cl *Client) Read(handle uint16, lba uint32, n int) ([]byte, error) {
	call, err := cl.GoRead(handle, lba, n)
	if err != nil {
		return nil, err
	}
	if h := cl.hedge; h != nil {
		return h.await(call, handle, lba, n)
	}
	if err := cl.wait(call); err != nil {
		return nil, err
	}
	return call.Data, nil
}

// Write writes data at lba synchronously.
func (cl *Client) Write(handle uint16, lba uint32, data []byte) error {
	call, err := cl.GoWrite(handle, lba, data)
	if err != nil {
		return err
	}
	return cl.wait(call)
}
