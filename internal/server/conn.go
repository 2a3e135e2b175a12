package server

import (
	"bytes"
	"sync"
	"syscall"
	"unsafe"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
)

// responder delivers responses over the transport a request arrived on;
// pc is the calling core's loop, or nil. send owns one reference of lease
// and releases it once the bytes are on the wire or dropped, never earlier.
type responder interface {
	send(pc *pcore, hdr protocol.Header, payload []byte, lease *bufpool.Buf)
}

// Adaptive wire batching (§3.2.1): a connection's queued responses go out
// in writev batches of up to wireBatchMsgs messages or wireBatchBytes, so
// a lone response flushes alone and a burst amortizes the syscall.
const (
	wireBatchMsgs  = 64
	wireBatchBytes = 256 << 10
	recvBufSize    = 64 << 10 // per-connection receive buffer (a bufpool class)
)

// outMsg is one response frame waiting for the wire.
type outMsg struct {
	h       [protocol.HeaderSize]byte
	payload []byte
	lease   *bufpool.Buf
}

// srvConn is one client TCP connection, pinned at accept time to one core,
// whose loop alone reads, writes and closes its socket.
type srvConn struct {
	srv  *Server
	core *pcore
	fd   int
	slot int32 // epoll slot on core, -1 until adopted

	// Loop-confined state.
	split    protocol.Splitter
	rbuf     *bufpool.Buf       // the receive buffer
	rlease   *bufpool.Buf       // payload storage of the frame being split
	alloc    protocol.Allocator // allocPayload, bound once
	wq       []outMsg           // responses not yet on the wire
	wh, woff int                // wq[wh] is the next to send, woff bytes of it sent
	events   uint32             // registered epoll interest
	// dirty: on the core's dirty list; parked: a control op owns the next
	// reply; waitOut: the socket was full; drawn: a fault was drawn for
	// the op a mute deferred; blackholed: an injected drop.
	dirty, parked, waitOut, drawn, blackholed bool
	// The last read; when writing last made progress; an injected mute.
	lastRead, stallSince, muteUntil int64
	// owned are the tenant handles registered over this connection; they
	// are unregistered when it tears down, returning their reservations.
	owned map[uint16]struct{}

	// The outbox: frames sent from other goroutines (cores, the control
	// goroutine, shippers), taken by the loop in order. down marks
	// teardown, after which sends drop.
	omu    sync.Mutex
	obox   []outMsg
	listed bool // posted to the core and not yet taken
	down   bool // written under omu, and only by the loop

	// att rides the connection besides requests: a replication session, a
	// migration sink's ranged session or a diff stream. Response frames go
	// to it; teardown closes it and sets attDown, so a late attach closes.
	amu     sync.Mutex
	att     attachment
	attDown bool
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

// newConn pins an accepted socket to the core with the fewest connections
// and hands it to that core's loop. Every tenant registered over it lands
// on the same core, keeping a tenant's request path core-local.
func (s *Server) newConn(fd int) {
	pc := s.cores[0]
	for _, cand := range s.cores[1:] {
		if cand.nconns.Load() < pc.nconns.Load() {
			pc = cand
		}
	}
	sc := &srvConn{srv: s, core: pc, fd: fd, slot: -1, owned: make(map[uint16]struct{})}
	sc.alloc = sc.allocPayload
	s.connMu.Lock()
	defer s.connMu.Unlock()
	select {
	case <-s.done:
		syscall.Close(fd) // the accept raced Close
		return
	default:
	}
	s.conns[sc] = struct{}{}
	s.connCount.Add(1)
	pc.nconns.Add(1)
	// Posted under connMu: Close closes done under it too, so the core's
	// final drain sees every connection accepted before.
	pc.post(inItem{sc: sc})
}

// adopt adds a new connection to the core's epoll set.
func (pc *pcore) adopt(sc *srvConn) {
	if n := len(pc.slots); n > 0 {
		sc.slot = pc.slots[n-1]
		pc.slots = pc.slots[:n-1]
		pc.conns[sc.slot] = sc
	} else {
		sc.slot = int32(len(pc.conns))
		pc.conns = append(pc.conns, sc)
	}
	sc.rbuf = bufpool.Get(recvBufSize)
	sc.split.Reset(sc.rbuf.Bytes())
	sc.lastRead = pc.srv.now()
	sc.events = syscall.EPOLLIN
	if pc.ctl(syscall.EPOLL_CTL_ADD, sc.fd, sc.slot, sc.events) != nil {
		pc.teardown(sc, false)
	}
}

func (sc *srvConn) allocPayload(n int) []byte {
	sc.rlease = bufpool.Get(n)
	return sc.rlease.Bytes()
}

// newOut frames a response, applying an injected in-flight corruption to
// a copy of its payload so a retained buffer is never touched.
func (s *Server) newOut(hdr *protocol.Header, payload []byte, lease *bufpool.Buf) outMsg {
	if hdr.Epoch == 0 {
		hdr.Epoch = s.ClusterEpoch()
	}
	hdr.Len = uint32(len(payload))
	if i := s.cfg.Faults.CorruptAt(len(payload), 0); i >= 0 {
		payload = bytes.Clone(payload)
		payload[i] ^= 0xA5
	}
	m := outMsg{payload: payload, lease: lease}
	hdr.MarshalTo(m.h[:])
	return m
}

// send queues a response: straight onto the write queue from the
// connection's own loop, else through the outbox. A down connection drops
// it. It never waits.
func (sc *srvConn) send(pc *pcore, hdr protocol.Header, payload []byte, lease *bufpool.Buf) {
	if pc == sc.core {
		if sc.down || sc.blackholed {
			bufpool.ReleaseIf(lease)
			return
		}
		sc.wq = append(sc.wq, sc.srv.newOut(&hdr, payload, lease))
		pc.markDirty(sc)
		return
	}
	m := sc.srv.newOut(&hdr, payload, lease)
	sc.omu.Lock()
	if sc.down {
		sc.omu.Unlock()
		bufpool.ReleaseIf(lease)
		return
	}
	sc.obox = append(sc.obox, m)
	post := !sc.listed
	sc.listed = true
	sc.omu.Unlock()
	if post {
		sc.core.post(inItem{sc: sc})
	}
}

// takeOutbox moves a connection's outbox onto its write queue, adopting
// the connection first if it is new.
func (pc *pcore) takeOutbox(sc *srvConn) {
	if sc.slot < 0 {
		pc.adopt(sc)
	}
	sc.omu.Lock()
	box := sc.obox
	sc.obox, sc.listed = nil, false
	sc.omu.Unlock()
	for i := range box {
		if sc.down || sc.blackholed {
			bufpool.ReleaseIf(box[i].lease)
		} else {
			sc.wq = append(sc.wq, box[i])
		}
	}
	pc.markDirty(sc)
}

func (pc *pcore) markDirty(sc *srvConn) {
	if !sc.dirty {
		sc.dirty = true
		pc.dirty = append(pc.dirty, sc)
	}
}

// event handles one epoll event on a connection.
func (pc *pcore) event(sc *srvConn, ev uint32, now int64) {
	if ev&(syscall.EPOLLHUP|syscall.EPOLLERR) != 0 && sc.events&syscall.EPOLLIN == 0 {
		pc.teardown(sc, false) // a parked or muted peer hung up; nothing would read the error
		return
	}
	if ev&syscall.EPOLLOUT != 0 {
		sc.waitOut = false
		pc.markDirty(sc)
	}
	if ev&(syscall.EPOLLIN|syscall.EPOLLHUP|syscall.EPOLLERR) != 0 {
		pc.read(sc, now)
	}
}

// read does one nonblocking read and dispatches every complete frame;
// level-triggered epoll comes back for what a full buffer left behind.
func (pc *pcore) read(sc *srvConn, now int64) {
	if sc.down || sc.parked || sc.muteUntil != 0 || sc.blackholed {
		return
	}
	buf := sc.split.Space()
	if inj := pc.srv.cfg.Faults; inj != nil {
		if !pc.fault(sc, now) {
			return
		}
		buf = buf[:inj.Partial(len(buf))]
	}
	n, _, e := syscall.RawSyscall(syscall.SYS_READ, uintptr(sc.fd), uintptr(unsafe.Pointer(&buf[0])), uintptr(len(buf)))
	if e == syscall.EAGAIN {
		return
	}
	if e != 0 || n == 0 {
		pc.teardown(sc, false)
		return
	}
	sc.split.Fill(int(n))
	sc.lastRead = now
	pc.parse(sc)
}

// parse dispatches the buffered frames until one parks the connection.
func (pc *pcore) parse(sc *srvConn) {
	for !sc.parked && !sc.down {
		ok, err := sc.split.Next(&pc.msg, sc.alloc)
		if err != nil {
			pc.teardown(sc, false)
			return
		}
		if !ok {
			return
		}
		lease := sc.rlease
		sc.rlease = nil
		pc.dispatch(sc, &pc.msg, lease)
		bufpool.ReleaseIf(lease)
	}
}

// fault draws the injected faults for one operation on sc and reports
// whether it may proceed. A stall or jitter mutes only this connection
// until a deadline instead of sleeping, so it never stalls the core; the
// deferred operation then runs without a second draw.
func (pc *pcore) fault(sc *srvConn, now int64) bool {
	if sc.drawn {
		sc.drawn = false
		return true
	}
	f := pc.srv.cfg.Faults.ConnOp()
	switch {
	case f.Reset:
		pc.teardown(sc, false)
	case f.Drop:
		// A half-open peer: reads never arrive (the idle sweep reaps it)
		// and writes vanish.
		sc.blackholed = true
		pc.dropQueued(sc)
		pc.interest(sc)
	case f.Mute > 0:
		sc.muteUntil, sc.drawn = now+int64(f.Mute), true
		pc.muted = append(pc.muted, sc)
		pc.interest(sc)
	default:
		return true
	}
	return false
}

// interest registers the epoll events sc needs now.
func (pc *pcore) interest(sc *srvConn) {
	var ev uint32
	if !sc.parked && sc.muteUntil == 0 && !sc.blackholed {
		ev |= syscall.EPOLLIN
	}
	if sc.waitOut && sc.muteUntil == 0 {
		ev |= syscall.EPOLLOUT
	}
	if ev != sc.events && !sc.down {
		sc.events = ev
		pc.ctl(syscall.EPOLL_CTL_MOD, sc.fd, sc.slot, ev)
	}
}

func (pc *pcore) flushAll(now int64) {
	for i, sc := range pc.dirty {
		sc.dirty = false
		pc.flush(sc, now)
		pc.dirty[i] = nil
	}
	pc.dirty = pc.dirty[:0]
}

// flush writes sc's queued responses, one writev per batch, until the
// queue is empty or the socket is full. A full socket keeps the unsent
// tail and its leases until EPOLLOUT (or the WriteTimeout sweep); a failed
// writev tears the connection down.
func (pc *pcore) flush(sc *srvConn, now int64) {
	s := pc.srv
	for sc.wh < len(sc.wq) && !sc.down && !sc.waitOut && sc.muteUntil == 0 {
		if s.cfg.Faults != nil && !pc.fault(sc, now) {
			return
		}
		niov, size, msgs := 0, 0, 0
		for i := sc.wh; i < len(sc.wq) && msgs < wireBatchMsgs && size < wireBatchBytes; i++ {
			m, off := &sc.wq[i], 0
			if i == sc.wh {
				off = sc.woff
			}
			if off < protocol.HeaderSize {
				niov, size = pc.addIOV(niov, size, m.h[off:])
				off = protocol.HeaderSize
			}
			if off-protocol.HeaderSize < len(m.payload) {
				niov, size = pc.addIOV(niov, size, m.payload[off-protocol.HeaderSize:])
			}
			msgs++
		}
		if s.cfg.Faults != nil {
			if n := s.cfg.Faults.Partial(int(pc.iov[0].Len)); n < int(pc.iov[0].Len) {
				niov, size = 1, n
				pc.iov[0].SetLen(n)
			}
		}
		n, _, e := syscall.RawSyscall(syscall.SYS_WRITEV, uintptr(sc.fd), uintptr(unsafe.Pointer(&pc.iov[0])), uintptr(niov))
		if e == syscall.EAGAIN {
			n = 0
		} else if e != 0 {
			pc.teardown(sc, false)
			return
		}
		if n > 0 {
			done := pc.advance(sc, int(n))
			s.m.flushes.Inc()
			s.m.flushBatch.Record(int64(done))
			pc.flushes.Add(1)
			pc.flushMsgs.Add(int64(done))
		}
		if int(n) < size {
			if n > 0 || sc.stallSince == 0 {
				sc.stallSince = now
			}
			sc.waitOut = true
			pc.interest(sc)
			return
		}
		sc.stallSince = 0
	}
	if sc.wh > 0 && (sc.wh == len(sc.wq) || sc.wh >= 1024 && 2*sc.wh >= len(sc.wq)) {
		// Reuse the queue once it drains, or compact a lagging one.
		n := copy(sc.wq, sc.wq[sc.wh:])
		clear(sc.wq[n:])
		sc.wq, sc.wh = sc.wq[:n], 0
	}
	pc.interest(sc)
}

func (pc *pcore) addIOV(niov, size int, b []byte) (int, int) {
	pc.iov[niov] = syscall.Iovec{Base: &b[0]}
	pc.iov[niov].SetLen(len(b))
	return niov + 1, size + len(b)
}

// advance retires n written bytes off the front of the write queue,
// releasing the leases of whole messages, and returns how many completed.
func (pc *pcore) advance(sc *srvConn, n int) int {
	done := 0
	for n > 0 {
		m := &sc.wq[sc.wh]
		rest := protocol.HeaderSize + len(m.payload) - sc.woff
		if n < rest {
			sc.woff += n
			break
		}
		n -= rest
		bufpool.ReleaseIf(m.lease)
		*m = outMsg{}
		sc.wh++
		sc.woff = 0
		done++
	}
	return done
}

// dropQueued releases every unsent response.
func (pc *pcore) dropQueued(sc *srvConn) {
	for i := sc.wh; i < len(sc.wq); i++ {
		bufpool.ReleaseIf(sc.wq[i].lease)
	}
	sc.wq, sc.wh, sc.woff = nil, 0, 0
}

// teardown closes a connection on its loop: queued responses are dropped
// with their leases, the attachment closes, and every tenant registered
// over the connection is unregistered (dropping held sequencer work and
// returning unspent reservations). Idempotent.
func (pc *pcore) teardown(sc *srvConn, reaped bool) {
	if sc.down {
		return
	}
	sc.omu.Lock()
	sc.down = true
	box := sc.obox
	sc.obox = nil
	sc.omu.Unlock()
	for i := range box {
		bufpool.ReleaseIf(box[i].lease)
	}
	pc.dropQueued(sc)
	bufpool.ReleaseIf(sc.rlease)
	bufpool.ReleaseIf(sc.rbuf)
	sc.rlease, sc.rbuf = nil, nil
	syscall.Close(sc.fd) // leaves the epoll set with it
	if sc.slot >= 0 {
		pc.conns[sc.slot] = nil
		pc.slots = append(pc.slots, sc.slot)
	}
	sc.attach(nil)
	s := pc.srv
	s.connMu.Lock()
	delete(s.conns, sc)
	s.connMu.Unlock()
	s.connCount.Add(-1)
	pc.nconns.Add(-1)
	if reaped {
		s.m.reaped.Inc()
		s.m.journal.Record(obs.EvReap, s.cfg.NodeName, -1, "idle connection reaped")
	}
	if owned := sc.owned; len(owned) > 0 {
		s.control(func() {
			for h := range owned {
				if s.unregisterTenant(nil, h) == protocol.StatusOK {
					s.m.removed.Inc()
				}
			}
		})
	}
	sc.owned = nil
}

// park hands a control opcode to the control goroutine. A TCP connection
// is not read until op's reply is queued, which keeps its order; the
// payload is copied because the receive buffer moves on.
func (pc *pcore) park(rsp responder, hdr protocol.Header, payload []byte, op func(responder, *protocol.Header, []byte)) {
	payload = bytes.Clone(payload)
	sc, _ := rsp.(*srvConn)
	if sc != nil {
		sc.parked = true
		pc.interest(sc)
	}
	pc.srv.control(func() {
		op(rsp, &hdr, payload)
		if sc != nil {
			sc.core.post(inItem{fn: func() { sc.core.unpark(sc) }})
		}
	})
}

// unpark resumes reading a connection whose control op replied; the reply
// goes ahead of anything the resumed parse queues.
func (pc *pcore) unpark(sc *srvConn) {
	if sc.down {
		return
	}
	sc.parked = false
	sc.lastRead = pc.srv.now()
	pc.takeOutbox(sc)
	pc.parse(sc)
	pc.interest(sc)
}

// dispatch routes one decoded request from either transport, on the loop
// of the core that read it. lease, when non-nil, backs m.Payload; dispatch
// borrows it and the write path retains its own reference.
func (pc *pcore) dispatch(rsp responder, m *protocol.Message, lease *bufpool.Buf) {
	s := pc.srv
	hdr := m.Header
	sc, isTCP := rsp.(*srvConn)
	// A response is an ack for the connection's attachment; with none (or
	// on a datagram) it is dropped.
	if hdr.IsResponse() {
		if isTCP {
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
	// Datagram responses are bounded: UDP caps the I/O length.
	if !isTCP && hdr.Count > MaxUDPIO {
		reject(pc, rsp, &hdr, protocol.StatusBadRequest)
		return
	}
	switch hdr.Opcode {
	case protocol.OpRead, protocol.OpWrite:
		pc.dispatchIO(rsp, m, lease)

	case protocol.OpRegister:
		resp := protocol.Header{Opcode: protocol.OpRegister, Flags: protocol.FlagResponse, Cookie: hdr.Cookie}
		var reg protocol.Registration
		if err := reg.Unmarshal(m.Payload); err != nil {
			resp.Status = protocol.StatusBadRequest
		} else {
			// A tenant registered over a TCP connection is pinned to its
			// core; datagram registrations go to the least-loaded core.
			pin := -1
			if isTCP {
				pin = pc.id
			}
			resp.Handle, resp.Status = s.registerTenant(pc, reg, pin)
			if resp.Status == protocol.StatusOK {
				s.m.registered.Inc()
				if isTCP {
					sc.owned[resp.Handle] = struct{}{}
				}
			}
		}
		rsp.send(pc, resp, nil, nil)

	case protocol.OpUnregister:
		st := s.unregisterTenant(pc, hdr.Handle)
		if st == protocol.StatusOK {
			s.m.removed.Inc()
			if isTCP {
				delete(sc.owned, hdr.Handle)
			}
		}
		reject(pc, rsp, &hdr, st)

	case protocol.OpBarrier:
		s.m.barriers.Inc()
		ten, ok := s.lookup(hdr.Handle)
		if !ok || !ten.submitBarrier(pc, rsp, hdr) {
			reject(pc, rsp, &hdr, protocol.StatusNoTenant)
		}

	case protocol.OpStats:
		pc.stats(rsp, hdr)

	case protocol.OpFence:
		rsp.send(pc, protocol.Header{Opcode: protocol.OpFence, Flags: protocol.FlagResponse,
			Cookie: hdr.Cookie, Epoch: s.Fence(hdr.Epoch)}, nil, nil)

	case protocol.OpPing:
		var role uint32
		if s.backupRole.Load() {
			role |= protocol.RoleBackupBit
		}
		if s.fenced.Load() {
			role |= protocol.RoleFencedBit
		}
		rsp.send(pc, protocol.Header{
			Opcode: protocol.OpPing,
			Flags:  protocol.FlagResponse,
			Cookie: hdr.Cookie,
			Epoch:  s.ClusterEpoch(),
			Count:  role,
			// Migration drain signal: forwards still awaiting a sink ack.
			LBA: uint32(s.migr.Pending()),
		}, nil, nil)

	case protocol.OpTrim:
		s.handleTrim(pc, rsp, &hdr)

	case protocol.OpJoin:
		pc.park(rsp, hdr, nil, s.handleJoin)
	case protocol.OpPromote:
		pc.park(rsp, hdr, nil, s.handlePromote)
	case protocol.OpShardMap:
		pc.park(rsp, hdr, m.Payload, s.handleShardMap)
	case protocol.OpVolCreate, protocol.OpVolDelete, protocol.OpVolSnapshot,
		protocol.OpVolClone, protocol.OpVolDiff, protocol.OpVolList:
		pc.park(rsp, hdr, m.Payload, s.handleVolOp)
	case protocol.OpVolStream:
		pc.park(rsp, hdr, m.Payload, s.handleVolStream)

	default:
		reject(pc, rsp, &hdr, protocol.StatusBadRequest)
	}
}

// stats answers OpStats on the tenant's core, which owns its scheduler
// state; a connection on another core waits for the reply, parked.
func (pc *pcore) stats(rsp responder, hdr protocol.Header) {
	ten, ok := pc.srv.lookup(hdr.Handle)
	if !ok {
		reject(pc, rsp, &hdr, protocol.StatusNoTenant)
		return
	}
	tpc := pc.srv.cores[ten.coreID]
	sc, isTCP := rsp.(*srvConn)
	park := isTCP && tpc != pc
	if park {
		sc.parked = true
		pc.interest(sc)
	}
	onCore(pc, tpc, func() {
		st := ten.t.Stats()
		stats := protocol.TenantStats{
			Enqueued:        st.Enqueued,
			Submitted:       st.Submitted,
			SubmittedTokens: uint64(st.SubmittedTokens),
			NegLimitHits:    st.NegLimitHits,
			Donated:         uint64(st.Donated),
			Claimed:         uint64(st.Claimed),
			QueueLen:        uint64(ten.t.QueueLen()),
			Tokens:          ten.t.Tokens(),
		}
		rsp.send(tpc, protocol.Header{Opcode: protocol.OpStats, Flags: protocol.FlagResponse,
			Handle: hdr.Handle, Cookie: hdr.Cookie}, stats.Marshal(), nil)
		if park {
			pc.post(inItem{fn: func() { pc.unpark(sc) }})
		}
	})
}

// dispatchIO admits one read or write into a request record and submits
// it to its tenant's core.
func (pc *pcore) dispatchIO(rsp responder, m *protocol.Message, lease *bufpool.Buf) {
	s := pc.srv
	hdr := m.Header
	arrival := s.now()
	// Shard-map enforcement first: a range this node does not own is a
	// routing error. Volume-bound tenants are exempt (a volume lives wholly
	// on its node); an unknown handle is still redirected, not NoTenant.
	ten, ok := s.lookup(hdr.Handle)
	if !(ok && ten.vol != nil) && !s.checkShard(&hdr) {
		s.rejectWrongShard(pc, rsp, m)
		return
	}
	s.m.noteShardOp(s.shardIndex(&hdr), hdr.Opcode == protocol.OpWrite)
	op := core.OpRead
	if hdr.Opcode == protocol.OpWrite {
		op = core.OpWrite
		s.m.writes.Inc()
		// Split-brain fence: a deposed or backup-role server refuses
		// writes, as does one receiving a stale epoch stamp.
		if st := s.writeAllowed(hdr.Epoch); st != protocol.StatusOK {
			s.m.staleRejects.Inc()
			reject(pc, rsp, &hdr, st)
			return
		}
		// A write whose CRC32C trailer failed is refused before media.
		if m.ChecksumErr {
			s.m.checksumErrs.Inc()
			s.m.journal.Record(obs.EvChecksum, s.cfg.NodeName, -1,
				"write lba=%d len=%d failed CRC32C verification", hdr.LBA, hdr.Count)
			reject(pc, rsp, &hdr, protocol.StatusBadChecksum)
			return
		}
	} else {
		s.m.reads.Inc()
	}
	if !ok {
		s.m.rejected.Inc()
		reject(pc, rsp, &hdr, protocol.StatusNoTenant)
		return
	}
	// Graceful shed: refuse best-effort work under overload; LC tenants
	// are never shed.
	if s.shedNow(ten) {
		s.m.shed.Inc()
		s.m.journal.Record(obs.EvShed, s.cfg.NodeName, -1,
			"best-effort tenant %d shed under overload", ten.t.ID)
		reject(pc, rsp, &hdr, protocol.StatusOverloaded)
		return
	}
	if st := checkACL(&ten.reg, &hdr, s.aclSize(ten)); st != protocol.StatusOK {
		s.m.rejected.Inc()
		reject(pc, rsp, &hdr, st)
		return
	}
	c := pc.record()
	c.conn, c.ten, c.hdr, c.payload = rsp, ten, hdr, m.Payload
	if op == core.OpWrite && lease != nil {
		// The payload outlives dispatch (device write, replication
		// forward): take a reference the record releases.
		lease.Retain()
		c.lease = lease
	}
	var costOverride core.Tokens
	if s.cache != nil && op == core.OpRead {
		costOverride = s.probeCache(c, ten)
	}
	if op == core.OpWrite {
		// Lifetime hints are counted: real backends have no placement streams.
		s.m.hintWrites[hdr.LifetimeHint()].Inc()
	}
	c.span.ID = s.m.spanID()
	c.span.Tenant = ten.t.ID
	c.span.Write = op == core.OpWrite
	c.span.Size = int(hdr.Count)
	// A serve span whether or not the caller traced it (the zero Hop would
	// pass for a client root); a traced one stitches under the caller's.
	c.span.Node = s.cfg.NodeName
	c.span.Hop = obs.HopServe
	if m.TraceID != 0 {
		c.span.Trace = m.TraceID
		c.span.Parent = m.ParentSpan
	}
	c.span.Mark(obs.StageArrival, arrival)
	c.span.Mark(obs.StageParse, s.now())
	c.Request = core.Request{
		Op:           op,
		Block:        uint64(hdr.LBA) * protocol.BlockSize / 4096,
		Size:         int(hdr.Count),
		Cookie:       hdr.Cookie,
		Arrival:      arrival,
		Context:      c,
		CostOverride: costOverride,
	}
	if !ten.submitIO(pc, c) {
		s.m.rejected.Inc()
		reject(pc, rsp, &hdr, protocol.StatusNoTenant)
		pc.release(c)
	}
}

// reject replies with an error status (or a bare OK) without scheduling.
func reject(pc *pcore, rsp responder, hdr *protocol.Header, st protocol.Status) {
	rsp.send(pc, protocol.Header{
		Opcode: hdr.Opcode,
		Flags:  protocol.FlagResponse,
		Handle: hdr.Handle,
		Cookie: hdr.Cookie,
		LBA:    hdr.LBA,
		Status: st,
	}, nil, nil)
}
