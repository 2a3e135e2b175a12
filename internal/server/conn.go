package server

import (
	"bufio"
	"errors"
	"net"
	"os"
	"sync"
	"time"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
)

// responder delivers response messages back to a client over whatever
// transport the request arrived on. send takes ownership of one lease
// reference when lease is non-nil: the reference is released once the
// bytes are on the wire (or the message is dropped on teardown) — never
// earlier, so a pooled payload cannot be recycled under an in-flight
// flush.
type responder interface {
	send(hdr *protocol.Header, payload []byte, lease *bufpool.Buf)
}

// Adaptive wire-batching bounds, mirroring the paper's §3.2.1 adaptive
// batching: responses are coalesced into one vectored flush until the
// batch reaches wireBatchMsgs messages or wireBatchBytes bytes, or the
// response queue drains — whichever comes first. Under light load every
// response flushes alone (no added latency); under load the syscall cost
// amortizes across up to 64 completions exactly like the paper's NVMe
// submission batching cap.
const (
	wireBatchMsgs  = 64
	wireBatchBytes = 256 << 10
	// outQueueDepth is the per-connection response queue; senders block
	// when it fills (backpressure toward the scheduler callback).
	outQueueDepth = 256
)

// outMsg is one queued response.
type outMsg struct {
	hdr     protocol.Header
	payload []byte
	lease   *bufpool.Buf
}

// srvConn is one client TCP connection, pinned to one core (pc) at accept
// time. Responses are appended to a cond-guarded out-queue; the owning
// core's flusher goroutine swaps the queue out and writes it with
// vectored flushes (see flush). A connection has exactly one goroutine of
// its own (the reader) — the old per-connection writer goroutine is
// absorbed into the core flusher, so N connections cost N+2 goroutines
// per core instead of 2N.
type srvConn struct {
	srv  *Server
	c    netConn
	core *pcore
	// vectored is computed once: real TCP conns take the writev path,
	// test seams and fault-wrapped conns the flat-buffer path.
	vectored bool

	// outMu guards the response queue. Senders (core goroutines, timer
	// goroutines, readers replying inline) append and block on outCond
	// when the queue is full; the flusher swaps outQ with flushQ and
	// broadcasts. downB marks teardown: senders drop instead of queueing.
	outMu   sync.Mutex
	outCond *sync.Cond
	outQ    []outMsg
	flushQ  []outMsg
	// queued is true while the connection sits on its core's dirty list;
	// the empty→non-empty sender arms it so the conn is listed at most
	// once per flush cycle.
	queued bool
	downB  bool

	// Flusher-confined batch scratch (touched only by the core flusher):
	// header arena (never exceeds cap, so subslices stay valid), the
	// iovec list, and the leases to release after each wire batch.
	hdrs   []byte
	iov    net.Buffers
	leases []*bufpool.Buf

	// owned tracks tenant handles registered over this connection; they
	// are unregistered when the connection tears down, so a dead peer no
	// longer leaks its registrations (and their token reservations).
	omu   sync.Mutex
	owned map[uint16]struct{}

	// att is the one thing riding this connection besides request/response
	// traffic: a backup's replication session (s.repl), a migration sink's
	// ranged session (s.migr) or a snapshot-diff stream (OpVolStream). Every
	// response-flagged frame read off the connection goes to it and
	// teardown closes it; attDown marks teardown so a late attach is closed
	// instead of leaking.
	amu     sync.Mutex
	att     attachment
	attDown bool

	downOnce sync.Once
}

// attachment is what a connection can carry (see srvConn.att); both
// cluster.Replicator session tokens and *cluster.Stream satisfy it.
type attachment interface {
	HandleAck(hdr *protocol.Header)
	Close()
}

// attach installs a in the connection's slot, closing whatever held it —
// and a itself when the connection already tore down (teardown seals the
// slot with attach(nil)).
func (sc *srvConn) attach(a attachment) {
	sc.amu.Lock()
	old := sc.att
	sc.att = a
	sc.attDown = sc.attDown || a == nil
	down := sc.attDown
	sc.amu.Unlock()
	if old != nil {
		old.Close()
	}
	if down && a != nil {
		a.Close()
	}
}

// netConn is the subset of net.Conn the server uses (test seam).
type netConn interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Close() error
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// newSrvConn builds a connection, pins it to the least-loaded core,
// registers it in the server's set and starts its reader goroutine.
func newSrvConn(s *Server, c netConn) *srvConn {
	// Accept-time pinning: the connection lands on the core with the
	// fewest connections, and every tenant registered over it lands on
	// the same core (see registerTenant), keeping the tenant's whole
	// request path core-local.
	pc := s.cores[0]
	for _, cand := range s.cores[1:] {
		if cand.nconns.Load() < pc.nconns.Load() {
			pc = cand
		}
	}
	_, vectored := c.(*net.TCPConn)
	sc := &srvConn{
		srv:      s,
		c:        c,
		core:     pc,
		vectored: vectored,
		outQ:     make([]outMsg, 0, outQueueDepth),
		flushQ:   make([]outMsg, 0, outQueueDepth),
		hdrs:     make([]byte, 0, wireBatchMsgs*protocol.HeaderSize),
		iov:      make(net.Buffers, 0, 2*wireBatchMsgs),
		leases:   make([]*bufpool.Buf, 0, wireBatchMsgs),
		owned:    make(map[uint16]struct{}),
	}
	sc.outCond = sync.NewCond(&sc.outMu)
	s.connMu.Lock()
	select {
	case <-s.done:
		// The accept raced Close past its conn sweep: refuse instead of
		// leaking a socket no one will ever close.
		s.connMu.Unlock()
		c.Close()
		return sc
	default:
	}
	s.conns[sc] = struct{}{}
	s.connMu.Unlock()
	s.connCount.Add(1)
	pc.nconns.Add(1)
	s.wg.Add(1)
	go sc.readLoop()
	return sc
}

// send enqueues one response message. Responses may originate from core
// goroutines and timer goroutines concurrently; ordering is the queue's
// FIFO order per connection. A non-nil lease transfers one reference to
// the flusher, released after the flush that carries the message. Once
// the connection is down the message is dropped and the lease released
// immediately. The empty→non-empty transition lists the connection on
// its core's dirty set — one flusher wakeup covers every response queued
// since the last flush, across all of the core's connections.
func (sc *srvConn) send(hdr *protocol.Header, payload []byte, lease *bufpool.Buf) {
	if hdr.Epoch == 0 {
		hdr.Epoch = sc.srv.ClusterEpoch()
	}
	m := outMsg{hdr: *hdr, payload: payload, lease: lease}
	m.hdr.Len = uint32(len(payload))
	sc.outMu.Lock()
	for !sc.downB && len(sc.outQ) >= outQueueDepth {
		sc.outCond.Wait()
	}
	if sc.downB {
		sc.outMu.Unlock()
		bufpool.ReleaseIf(lease)
		return
	}
	sc.outQ = append(sc.outQ, m)
	kick := !sc.queued
	sc.queued = true
	sc.outMu.Unlock()
	if kick {
		sc.core.noteDirty(sc)
	}
}

// flush drains the response queue into adaptive vectored flushes. Runs
// only on the owning core's flusher goroutine: it swaps the queue out
// under the lock, releases any blocked senders, then assembles batches of
// up to wireBatchMsgs/wireBatchBytes and writes each with one writev
// (net.Buffers on a *net.TCPConn) or one flat Write (test seams and
// fault-wrapped conns) — one syscall and zero allocations per batch at
// steady state. A write or deadline error tears the connection down
// fully — closed, deregistered, its tenants unregistered and their
// unspent tokens returned to the scheduler — instead of lingering
// half-dead.
func (sc *srvConn) flush() {
	sc.outMu.Lock()
	sc.outQ, sc.flushQ = sc.flushQ[:0], sc.outQ
	sc.queued = false
	down := sc.downB
	sc.outMu.Unlock()
	sc.outCond.Broadcast()
	msgs := sc.flushQ
	if len(msgs) == 0 {
		return
	}
	if down {
		for i := range msgs {
			bufpool.ReleaseIf(msgs[i].lease)
			msgs[i] = outMsg{}
		}
		return
	}
	m := sc.srv.m
	i := 0
	for i < len(msgs) {
		hdrs := sc.hdrs[:0]
		iov := sc.iov[:0]
		leases := sc.leases[:0]
		batch, bytes := 0, 0
		for i < len(msgs) && batch < wireBatchMsgs && bytes < wireBatchBytes {
			msg := &msgs[i]
			off := len(hdrs)
			hdrs = append(hdrs, hdrSpace[:]...)
			msg.hdr.MarshalTo(hdrs[off:])
			iov = append(iov, hdrs[off:off+protocol.HeaderSize])
			if len(msg.payload) > 0 {
				iov = append(iov, msg.payload)
			}
			if msg.lease != nil {
				leases = append(leases, msg.lease)
			}
			bytes += protocol.HeaderSize + len(msg.payload)
			batch++
			i++
		}
		err := sc.flushBatch(iov, bytes)
		for _, l := range leases {
			l.Release()
		}
		m.flushes.Inc()
		m.flushBatch.Record(int64(batch))
		sc.core.flushes.Add(1)
		sc.core.flushMsgs.Add(int64(batch))
		if err != nil {
			for ; i < len(msgs); i++ {
				bufpool.ReleaseIf(msgs[i].lease)
			}
			for j := range msgs {
				msgs[j] = outMsg{}
			}
			sc.teardown(false)
			return
		}
	}
	for j := range msgs {
		msgs[j] = outMsg{} // drop payload/lease refs; the buffer is reused
	}
}

// hdrSpace reserves header space in the batch arena without a make call.
var hdrSpace [protocol.HeaderSize]byte

// flushBatch writes one assembled batch: writev on a real TCP conn, a
// single flat Write otherwise. The write deadline is armed first; a
// SetWriteDeadline failure is surfaced like a write failure (it means the
// socket is already dead) instead of being ignored.
func (sc *srvConn) flushBatch(iov net.Buffers, size int) error {
	if wt := sc.srv.cfg.WriteTimeout; wt > 0 {
		if err := sc.c.SetWriteDeadline(time.Now().Add(wt)); err != nil {
			return err
		}
	}
	if sc.vectored {
		v := iov
		_, err := v.WriteTo(sc.c.(*net.TCPConn))
		return err
	}
	// Flat path: coalesce into one pooled buffer and a single Write. The
	// pooled buffer grows past its class only for oversize single
	// messages (> wireBatchBytes), which are off the steady-state path.
	flat := bufpool.Get(wireBatchBytes)
	buf := flat.Bytes()[:0]
	for _, b := range iov {
		buf = append(buf, b...)
	}
	_, err := sc.c.Write(buf)
	flat.Release()
	return err
}

// teardown closes the connection, removes it from the server's conn set
// and unregisters every tenant registered over it (dropping held
// sequencer work and returning unspent token reservations to the
// scheduler). Queued responses are dropped with their leases released,
// and blocked senders are woken to observe the down flag. Idempotent:
// flusher-side write failures and the read loop's exit may both arrive
// here.
func (sc *srvConn) teardown(reaped bool) {
	sc.downOnce.Do(func() {
		sc.outMu.Lock()
		sc.downB = true
		drop := sc.outQ
		sc.outQ = nil
		sc.outMu.Unlock()
		sc.outCond.Broadcast()
		for i := range drop {
			bufpool.ReleaseIf(drop[i].lease)
			drop[i] = outMsg{}
		}
		sc.c.Close()
		sc.attach(nil)
		s := sc.srv
		s.connMu.Lock()
		delete(s.conns, sc)
		s.connMu.Unlock()
		s.connCount.Add(-1)
		sc.core.nconns.Add(-1)
		// Wake the core flusher: its shutdown drain parks until every
		// connection on the core is gone, and this may be the last one.
		select {
		case sc.core.flushKick <- struct{}{}:
		default:
		}
		if reaped {
			s.m.reaped.Inc()
			s.m.journal.Record(obs.EvReap, s.cfg.NodeName, -1,
				"idle connection reaped")
		}
		sc.omu.Lock()
		owned := make([]uint16, 0, len(sc.owned))
		for h := range sc.owned {
			owned = append(owned, h)
		}
		sc.owned = nil
		sc.omu.Unlock()
		// Unregister off this goroutine: teardown can run on a core's
		// flusher (flush failure), and unregistration round-trips through
		// that core's command channel. The work funnels through the
		// server's single reaper goroutine instead of spawning one
		// goroutine per torn-down connection.
		sc.srv.queueUnregister(owned)
	})
}

// addOwned records a tenant registered over this connection. If the
// connection already tore down (the registration raced teardown), the
// tenant is unregistered immediately instead of leaking.
func (sc *srvConn) addOwned(h uint16) {
	sc.omu.Lock()
	if sc.owned != nil {
		sc.owned[h] = struct{}{}
		sc.omu.Unlock()
		return
	}
	sc.omu.Unlock()
	sc.srv.unregisterTenant(h)
}

// dropOwned forgets a tenant explicitly unregistered by the client.
func (sc *srvConn) dropOwned(h uint16) {
	sc.omu.Lock()
	delete(sc.owned, h)
	sc.omu.Unlock()
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// readLoop decodes requests until the connection dies. The read deadline
// is re-armed before every message, so a half-open peer (one that will
// never send again) is reaped after IdleTimeout instead of pinning a
// goroutine and its tenant registrations forever.
//
// The loop is allocation-free at steady state: one Message is reused for
// every request and payloads land in pooled leases. dispatch borrows the
// lease; paths that need the payload beyond dispatch (the write path's
// trip through the scheduler) retain their own reference.
func (sc *srvConn) readLoop() {
	reaped := false
	defer func() {
		sc.teardown(reaped)
		sc.srv.wg.Done()
	}()
	idle := sc.srv.cfg.IdleTimeout
	br := bufio.NewReaderSize(sc.c, 64<<10)
	var (
		msg   protocol.Message
		lease *bufpool.Buf
	)
	alloc := func(n int) []byte {
		lease = bufpool.Get(n)
		return lease.Bytes()
	}
	for {
		if idle > 0 {
			sc.c.SetReadDeadline(time.Now().Add(idle))
		}
		lease = nil
		if err := protocol.ReadMessageInto(br, &msg, alloc); err != nil {
			bufpool.ReleaseIf(lease) // payload leased before a truncation error
			reaped = isTimeout(err)
			return
		}
		sc.srv.dispatch(sc, &msg, lease)
		bufpool.ReleaseIf(lease)
	}
}

// dispatch routes one decoded request from any transport. lease, when
// non-nil, backs m.Payload; dispatch borrows it for the duration of the
// call and the write path retains its own reference before handing the
// payload to the scheduler.
func (s *Server) dispatch(rsp responder, m *protocol.Message, lease *bufpool.Buf) {
	hdr := m.Header
	// A response arriving on a server connection is an ack from whatever
	// is attached to that connection (the join channel and the diff stream
	// carry requests out and acks back in). Connections with no attachment,
	// and datagrams, have nobody to ack: the frame is dropped.
	if hdr.IsResponse() {
		if sc, ok := rsp.(*srvConn); ok {
			sc.amu.Lock()
			a := sc.att
			sc.amu.Unlock()
			if a != nil {
				// A copy: a pointer handed to an interface method escapes,
				// and hdr itself must stay on the stack for the request path.
				ack := hdr
				a.HandleAck(&ack)
			}
		}
		return
	}
	// Transports with bounded response sizes (UDP) cap the I/O length.
	if lim, ok := rsp.(interface{ maxIO() uint32 }); ok && hdr.Count > lim.maxIO() {
		reject(rsp, &hdr, protocol.StatusBadRequest)
		return
	}
	switch hdr.Opcode {
	case protocol.OpRegister:
		var reg protocol.Registration
		resp := protocol.Header{
			Opcode: protocol.OpRegister,
			Flags:  protocol.FlagResponse,
			Cookie: hdr.Cookie,
		}
		if err := reg.Unmarshal(m.Payload); err != nil {
			resp.Status = protocol.StatusBadRequest
		} else {
			// Core-affine registration: a tenant registered over a TCP
			// connection is pinned to that connection's core, so its
			// requests never cross a core boundary. Coreless transports
			// (UDP) fall back to least-loaded placement.
			pin := -1
			if sc, ok := rsp.(*srvConn); ok {
				pin = sc.core.id
			}
			resp.Handle, resp.Status = s.registerTenant(reg, pin)
			if resp.Status == protocol.StatusOK {
				s.m.registered.Inc()
				if sc, ok := rsp.(*srvConn); ok {
					sc.addOwned(resp.Handle)
				}
			}
		}
		rsp.send(&resp, nil, nil)

	case protocol.OpUnregister:
		resp := protocol.Header{
			Opcode: protocol.OpUnregister,
			Flags:  protocol.FlagResponse,
			Handle: hdr.Handle,
			Cookie: hdr.Cookie,
			Status: s.unregisterTenant(hdr.Handle),
		}
		if resp.Status == protocol.StatusOK {
			s.m.removed.Inc()
			if sc, ok := rsp.(*srvConn); ok {
				sc.dropOwned(hdr.Handle)
			}
		}
		rsp.send(&resp, nil, nil)

	case protocol.OpRead, protocol.OpWrite:
		arrival := s.now()
		// Shard-map enforcement first: a request for a range this node
		// does not own is a routing error, not an I/O — redirect before
		// fences, tenants or QoS get a say. Volume-bound tenants are
		// exempt: their LBAs are volume-logical, and a volume lives
		// wholly on the node that created it (volume DR is the
		// snapshot-diff stream, not shard routing). The tenant lookup is
		// hoisted for that test only — unknown handles still take the
		// shard check first so a stale client is redirected, not told
		// NoTenant.
		vten, vok := s.lookup(hdr.Handle)
		if !(vok && vten.vol != nil) && !s.checkShard(&hdr) {
			s.rejectWrongShard(rsp, m)
			return
		}
		s.m.noteShardOp(s.shardIndex(&hdr), hdr.Opcode == protocol.OpWrite)
		if hdr.Opcode == protocol.OpWrite {
			s.m.writes.Inc()
			// Split-brain fence: a deposed or backup-role server refuses
			// writes, as does one receiving a stale epoch stamp.
			if st := s.writeAllowed(hdr.Epoch); st != protocol.StatusOK {
				s.m.staleRejects.Inc()
				reject(rsp, &hdr, st)
				return
			}
			// End-to-end integrity: a write whose CRC32C trailer failed
			// verification is refused before it can touch media.
			if m.ChecksumErr {
				s.m.checksumErrs.Inc()
				s.m.journal.Record(obs.EvChecksum, s.cfg.NodeName, -1,
					"write lba=%d len=%d failed CRC32C verification", hdr.LBA, hdr.Count)
				reject(rsp, &hdr, protocol.StatusBadChecksum)
				return
			}
		} else {
			s.m.reads.Inc()
		}
		ten, ok := vten, vok
		if !ok {
			s.m.rejected.Inc()
			reject(rsp, &hdr, protocol.StatusNoTenant)
			return
		}
		// Graceful shed: refuse best-effort work under overload instead
		// of letting readers block on a saturated scheduler queue. LC
		// tenants are never shed.
		if s.shedNow(ten) {
			s.m.shed.Inc()
			s.m.journal.Record(obs.EvShed, s.cfg.NodeName, -1,
				"best-effort tenant %d shed under overload", ten.t.ID)
			reject(rsp, &hdr, protocol.StatusOverloaded)
			return
		}
		// Volume-bound tenants are bounded by the volume's logical size;
		// raw tenants by the device.
		aclSize := s.devices[ten.device].backend.Size()
		if ten.vol != nil {
			aclSize = ten.vol.LogicalBytes()
		}
		if st := checkACL(&ten.reg, &hdr, aclSize); st != protocol.StatusOK {
			s.m.rejected.Inc()
			reject(rsp, &hdr, st)
			return
		}
		op := core.OpRead
		if hdr.Opcode == protocol.OpWrite {
			op = core.OpWrite
		}
		ctx := &reqCtx{conn: rsp, ten: ten, hdr: hdr, payload: m.Payload}
		if op == core.OpWrite && lease != nil {
			// The payload outlives dispatch (device write + replication
			// forward run on the core goroutine later): take a
			// reference the completion path releases.
			lease.Retain()
			ctx.lease = lease
		}
		var costOverride core.Tokens
		if s.cache != nil {
			if op == core.OpRead {
				costOverride = s.probeCache(ctx, ten)
			}
		}
		if op == core.OpWrite {
			// FDP-style lifetime hints: real backends have no placement
			// streams, so the hint is counted (capacity planning signal),
			// not acted on — the simulator carries the placement model.
			s.m.hintWrites[hdr.LifetimeHint()].Inc()
		}
		ctx.span.ID = s.m.spanID()
		ctx.span.Tenant = ten.t.ID
		ctx.span.Write = op == core.OpWrite
		ctx.span.Size = int(hdr.Count)
		// This is a serve span whether or not the caller traced it —
		// HopClient is the zero value, so leaving Hop unset would make
		// untraced spans masquerade as client roots in /traces.
		ctx.span.Node = s.cfg.NodeName
		ctx.span.Hop = obs.HopServe
		if m.TraceID != 0 {
			// The request carried a trace trailer: adopt the caller's
			// trace context so this serve span stitches under the
			// client's (or a relay's) span in the cross-node timeline.
			ctx.span.Trace = m.TraceID
			ctx.span.Parent = m.ParentSpan
		}
		ctx.span.Mark(obs.StageArrival, arrival)
		ctx.span.Mark(obs.StageParse, s.now())
		req := &core.Request{
			Op:           op,
			Block:        uint64(hdr.LBA) * protocol.BlockSize / 4096,
			Size:         int(hdr.Count),
			Cookie:       hdr.Cookie,
			Arrival:      arrival,
			Context:      ctx,
			CostOverride: costOverride,
		}
		if !ten.submitIO(s, enqueued{ten: ten, req: req}) {
			ctx.releaseLease()
			s.m.rejected.Inc()
			reject(rsp, &hdr, protocol.StatusNoTenant)
		}

	case protocol.OpBarrier:
		s.m.barriers.Inc()
		ten, ok := s.lookup(hdr.Handle)
		if !ok {
			reject(rsp, &hdr, protocol.StatusNoTenant)
			return
		}
		if !ten.submitBarrier(rsp, hdr) {
			reject(rsp, &hdr, protocol.StatusNoTenant)
		}

	case protocol.OpStats:
		ten, ok := s.lookup(hdr.Handle)
		if !ok {
			reject(rsp, &hdr, protocol.StatusNoTenant)
			return
		}
		// Tenant scheduler state is owned by its core; read it there.
		pc := s.cores[ten.coreID]
		done := make(chan protocol.TenantStats, 1)
		pc.do(func() {
			st := ten.t.Stats()
			done <- protocol.TenantStats{
				Enqueued:        st.Enqueued,
				Submitted:       st.Submitted,
				SubmittedTokens: uint64(st.SubmittedTokens),
				NegLimitHits:    st.NegLimitHits,
				Donated:         uint64(st.Donated),
				Claimed:         uint64(st.Claimed),
				QueueLen:        uint64(ten.t.QueueLen()),
				Tokens:          ten.t.Tokens(),
			}
		})
		select {
		case stats := <-done:
			rsp.send(&protocol.Header{
				Opcode: protocol.OpStats,
				Flags:  protocol.FlagResponse,
				Handle: hdr.Handle,
				Cookie: hdr.Cookie,
			}, stats.Marshal(), nil)
		case <-s.done:
		}

	case protocol.OpJoin:
		// A backup (Count == 0) or a migration sink (Count != 0, window
		// [LBA, LBA+Count) blocks) attaches over this connection. TCP
		// only: the join channel carries the ordered replication stream.
		resp := protocol.Header{
			Opcode: protocol.OpJoin,
			Flags:  protocol.FlagResponse,
			Cookie: hdr.Cookie,
			LBA:    hdr.LBA,
			Count:  hdr.Count,
		}
		sc, isTCP := rsp.(*srvConn)
		if !isTCP || s.backupRole.Load() {
			resp.Status = protocol.StatusBadRequest
			rsp.send(&resp, nil, nil)
			return
		}
		s.AdoptEpoch(hdr.Epoch)
		resp.Epoch = s.ClusterEpoch()
		// The OK must be queued ahead of the catch-up stream — the
		// per-connection FIFO guarantees the backup reads it as its
		// handshake response before the first chunk.
		rsp.send(&resp, nil, nil)
		if hdr.Count != 0 {
			s.joinMigration(sc, hdr.LBA, hdr.Count)
		} else {
			s.joinReplica(sc)
		}

	case protocol.OpPromote:
		e, st := s.Promote(hdr.Epoch)
		rsp.send(&protocol.Header{
			Opcode: protocol.OpPromote,
			Flags:  protocol.FlagResponse,
			Cookie: hdr.Cookie,
			Epoch:  e,
			Status: st,
		}, nil, nil)

	case protocol.OpFence:
		e := s.Fence(hdr.Epoch)
		rsp.send(&protocol.Header{
			Opcode: protocol.OpFence,
			Flags:  protocol.FlagResponse,
			Cookie: hdr.Cookie,
			Epoch:  e,
		}, nil, nil)

	case protocol.OpPing:
		var role uint32
		if s.backupRole.Load() {
			role |= protocol.RoleBackupBit
		}
		if s.fenced.Load() {
			role |= protocol.RoleFencedBit
		}
		rsp.send(&protocol.Header{
			Opcode: protocol.OpPing,
			Flags:  protocol.FlagResponse,
			Cookie: hdr.Cookie,
			Epoch:  s.ClusterEpoch(),
			Count:  role,
			// Migration drain signal: forwards still awaiting a sink ack.
			LBA: uint32(s.migr.Pending()),
		}, nil, nil)

	case protocol.OpShardMap:
		s.handleShardMap(rsp, &hdr, m.Payload)

	case protocol.OpVolCreate, protocol.OpVolDelete, protocol.OpVolSnapshot,
		protocol.OpVolClone, protocol.OpVolDiff, protocol.OpVolList:
		s.handleVolOp(rsp, &hdr, m.Payload)

	case protocol.OpVolStream:
		s.handleVolStream(rsp, &hdr, m.Payload)

	case protocol.OpTrim:
		s.handleTrim(rsp, &hdr)

	default:
		reject(rsp, &hdr, protocol.StatusBadRequest)
	}
}

// reject replies with an error status without scheduling.
func reject(rsp responder, hdr *protocol.Header, st protocol.Status) {
	rsp.send(&protocol.Header{
		Opcode: hdr.Opcode,
		Flags:  protocol.FlagResponse,
		Handle: hdr.Handle,
		Cookie: hdr.Cookie,
		LBA:    hdr.LBA,
		Status: st,
	}, nil, nil)
}
