package server

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/readcache"
	"github.com/reflex-go/reflex/internal/volume"
)

// Epoll slots of a core's own descriptors; connections take slots 0 and up.
const (
	slotWake  = -1 // the inbox eventfd
	slotTimer = -2 // the scheduler-tick timerfd
	slotUDP   = -3 // the UDP socket (core 0)
)

const clockMonotonic = 1 // CLOCK_MONOTONIC, for timerfd_create

var eventOne = uint64(1) // the eventfd increment a wakeup writes

// pcore is one shared-nothing core of the server's dataplane (§3.1-3.2,
// DESIGN.md §15): one goroutine, locked to its OS thread, blocked in
// epoll_wait on its connections' sockets, an eventfd for its inbox, a
// timerfd for the scheduler tick and, on core 0, the UDP socket. It owns
// a disjoint set of tenants and their schedulers (one per device,
// §3.2.2). Each pass runs what arrived to completion: read every ready
// connection and dispatch its frames, run a scheduling round that submits
// and completes inline, then one writev per connection with responses.
type pcore struct {
	id       int
	srv      *Server
	scheds   []*core.Scheduler
	submitFn core.SubmitFunc // pc.submit, bound once
	epfd     int
	wakefd   int
	timerfd  int

	// Loop-confined state.
	events   [128]syscall.EpollEvent
	ev       syscall.EpollEvent  // epoll_ctl argument, kept off the stack
	its      [2]syscall.Timespec // timerfd_settime argument: interval, first expiry
	scratch  uint64              // eventfd/timerfd read target
	iov      [2 * wireBatchMsgs]syscall.Iovec
	msg      protocol.Message
	conns    []*srvConn // by epoll slot
	slots    []int32    // free slots
	dirty    []*srvConn // connections with responses to write this pass
	muted    []*srvConn // connections muted by an injected fault
	free     []*reqCtx  // request-record free list
	spare    []inItem   // the inbox's swap buffer
	ingested int        // requests enqueued this pass
	ticking  bool       // timerfd armed
	sweepAt  int64      // next idle/write-timeout sweep

	// The inbox: what other goroutines hand this core, kept in order.
	imu    sync.Mutex
	inbox  []inItem
	closed bool
	awake  atomic.Bool // a pass is running: posts need no wakeup

	// debt (the sum of negative tenant balances, mt) and backlog (requests
	// queued in the schedulers) are published every pass for the shed
	// signal and the gauges. Padded so cores do not share cache lines.
	debt, backlog      obs.PaddedInt64
	nconns, ntenants   obs.PaddedInt64
	flushes, flushMsgs obs.PaddedInt64
}

// inItem is one inbox entry: a record to resume at its phase, a connection
// to adopt or whose outbox has frames, or anything else to run on the loop.
type inItem struct {
	ctx *reqCtx
	sc  *srvConn
	fn  func()
}

func newCore(s *Server, id int) (*pcore, error) {
	pc := &pcore{id: id, srv: s, epfd: -1, wakefd: -1, timerfd: -1}
	pc.submitFn = pc.submit
	var err error
	pc.epfd, err = syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err == nil {
		pc.wakefd, err = rawFD(syscall.SYS_EVENTFD2, 0)
	}
	if err == nil {
		pc.timerfd, err = rawFD(syscall.SYS_TIMERFD_CREATE, clockMonotonic)
	}
	if err == nil {
		err = pc.ctl(syscall.EPOLL_CTL_ADD, pc.wakefd, slotWake, syscall.EPOLLIN)
	}
	if err == nil {
		err = pc.ctl(syscall.EPOLL_CTL_ADD, pc.timerfd, slotTimer, syscall.EPOLLIN)
	}
	for _, d := range s.devices {
		d := d
		sched := core.NewScheduler(d.cfg.Model, id, d.shared)
		sched.ReadOnlyProbe = func() bool { return s.readOnlyProbe(d) }
		pc.scheds = append(pc.scheds, sched)
	}
	return pc, err
}

// rawFD creates a nonblocking, close-on-exec eventfd or timerfd.
func rawFD(trap, arg uintptr) (int, error) {
	fd, _, e := syscall.RawSyscall(trap, arg, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return -1, e
	}
	return int(fd), nil
}

func (pc *pcore) closeFDs() {
	for _, fd := range [...]int{pc.epfd, pc.wakefd, pc.timerfd} {
		if fd >= 0 {
			syscall.Close(fd)
		}
	}
}

func (pc *pcore) ctl(op, fd int, slot int32, events uint32) error {
	pc.ev = syscall.EpollEvent{Events: events, Fd: slot}
	return syscall.EpollCtl(pc.epfd, op, fd, &pc.ev)
}

// run is the core's one request-path goroutine.
func (pc *pcore) run() {
	defer pc.srv.wg.Done()
	runtime.LockOSThread() // never unlocked: the thread ends with the loop
	s, wait := pc.srv, -1
	for {
		n, _ := syscall.EpollWait(pc.epfd, pc.events[:], wait)
		pc.awake.Store(true)
		now := s.now()
		for _, ev := range pc.events[:max(n, 0)] {
			switch ev.Fd {
			case slotWake, slotTimer:
				fd := pc.wakefd
				if ev.Fd == slotTimer {
					fd = pc.timerfd
				}
				syscall.RawSyscall(syscall.SYS_READ, uintptr(fd), uintptr(unsafe.Pointer(&pc.scratch)), 8)
			case slotUDP:
				pc.readUDP()
			default:
				if sc := pc.conns[ev.Fd]; sc != nil {
					pc.event(sc, ev.Events, now)
				}
			}
		}
		pc.drain()
		pc.schedule()
		// What the round posted to this core (forwards, completions) and
		// what other cores posted meanwhile; requests it enqueued get a
		// round now, so the backlog the timer follows is current.
		if pc.drain(); pc.ingested > 0 {
			pc.schedule()
		}
		pc.tick(now)
		pc.flushAll(now)
		wait = pc.wait(now)
		pc.awake.Store(false)
		pc.imu.Lock()
		if len(pc.inbox) > 0 {
			wait = 0
		}
		pc.imu.Unlock()
		// Checked after awake drops: Close closes done before it posts, so
		// either this sees done or its post finds the loop asleep and wakes it.
		select {
		case <-s.done:
			pc.shutdown()
			return
		default:
		}
	}
}

// post hands an item to the core's loop from any goroutine, waking it if
// it sleeps; it never blocks on the loop. A record posted after the loop
// exited is retired on the caller's goroutine instead.
func (pc *pcore) post(it inItem) {
	pc.imu.Lock()
	if !pc.closed {
		pc.inbox = append(pc.inbox, it)
		if pc.awake.CompareAndSwap(false, true) {
			// Under imu, so the loop cannot close the eventfd underneath.
			syscall.RawSyscall(syscall.SYS_WRITE, uintptr(pc.wakefd), uintptr(unsafe.Pointer(&eventOne)), 8)
		}
		pc.imu.Unlock()
		return
	}
	pc.imu.Unlock()
	if it.ctx != nil {
		pc.srv.retire(nil, it.ctx)
	}
}

// drain runs the inbox in order until it is empty.
func (pc *pcore) drain() {
	for {
		pc.imu.Lock()
		batch := pc.inbox
		pc.inbox = pc.spare[:0]
		pc.imu.Unlock()
		if len(batch) == 0 {
			pc.spare = batch
			return
		}
		for i, it := range batch {
			switch c := it.ctx; {
			case c == nil && it.sc != nil:
				pc.takeOutbox(it.sc)
			case c == nil:
				it.fn()
			case c.phase == phaseQueue:
				pc.enqueue(c, false)
			case c.phase == phaseWork:
				pc.work(c)
			default:
				pc.finish(c)
			}
			batch[i] = inItem{}
		}
		pc.spare = batch
	}
}

// onCore runs fn on pc's loop: now when the caller is that loop, else
// through its inbox.
func onCore(on, pc *pcore, fn func()) {
	if on == pc {
		fn()
		return
	}
	pc.post(inItem{fn: fn})
}

// schedule runs one scheduling round per device; submit completes inline.
func (pc *pcore) schedule() {
	s := pc.srv
	if pc.ingested > 0 {
		s.m.schedBatch.Record(int64(pc.ingested))
		pc.ingested = 0
	}
	now := s.now()
	var debt core.Tokens
	backlog := 0
	for _, sched := range pc.scheds {
		sched.Schedule(now, pc.submitFn)
		lc, be := sched.Tenants()
		for _, list := range [2][]*core.Tenant{lc, be} {
			for _, t := range list {
				if b := t.Tokens(); b < 0 {
					debt -= b
				}
				backlog += t.QueueLen()
			}
		}
	}
	pc.debt.Store(int64(debt))
	pc.backlog.Store(int64(backlog))
}

// tick ends a muted connection's fault, sweeps idle and stalled
// connections, and arms the timerfd while the schedulers hold queued work
// (token accrual needs rounds) or a connection is muted — epoll_wait's own
// timeout is whole milliseconds, too coarse for the 200 µs tick.
func (pc *pcore) tick(now int64) {
	kept := pc.muted[:0]
	for _, sc := range pc.muted {
		switch {
		case sc.down:
		case now < sc.muteUntil:
			kept = append(kept, sc)
		default:
			sc.muteUntil = 0
			pc.interest(sc)
			pc.markDirty(sc)
		}
	}
	clear(pc.muted[len(kept):])
	pc.muted = kept
	s := pc.srv
	if s.sweepEvery > 0 && now >= pc.sweepAt {
		pc.sweepAt = now + int64(s.sweepEvery)
		idle, wt := int64(s.cfg.IdleTimeout), int64(s.cfg.WriteTimeout)
		for _, sc := range pc.conns {
			switch {
			case sc == nil:
			case idle > 0 && !sc.parked && now-sc.lastRead > idle:
				pc.teardown(sc, true)
			case wt > 0 && sc.waitOut && now-sc.stallSince > wt:
				pc.teardown(sc, false) // the peer stopped reading
			}
		}
	}
	if on := pc.backlog.Load() > 0 || len(pc.muted) > 0; on != pc.ticking {
		pc.ticking = on
		pc.its = [2]syscall.Timespec{}
		if on {
			pc.its[0] = syscall.NsecToTimespec(int64(s.cfg.SchedInterval))
			pc.its[1] = pc.its[0]
		}
		syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(pc.timerfd), 0,
			uintptr(unsafe.Pointer(&pc.its)), 0, 0, 0)
	}
}

// wait is the next epoll_wait timeout: until the next sweep while the
// core has connections, else forever.
func (pc *pcore) wait(now int64) int {
	if pc.srv.sweepEvery == 0 || pc.nconns.Load() == 0 {
		return -1
	}
	return int(max(pc.sweepAt-now+int64(time.Millisecond)-1, 0) / int64(time.Millisecond))
}

// shutdown retires the inbox's records and the requests queued in the
// schedulers (leases, spans, in-flight charges) and closes every
// connection, so a client sees a connection error, never a shed.
func (pc *pcore) shutdown() {
	pc.imu.Lock()
	pc.closed = true
	rest := pc.inbox
	pc.inbox = nil
	pc.imu.Unlock()
	s := pc.srv
	for _, it := range rest {
		switch {
		case it.ctx != nil:
			s.retire(pc, it.ctx)
		case it.sc != nil && it.sc.slot < 0:
			pc.adopt(it.sc) // closed with the rest below
		}
	}
	for _, sched := range pc.scheds {
		lc, be := sched.Tenants()
		for _, list := range [2][]*core.Tenant{lc, be} {
			for _, t := range list {
				t.Drop(func(r *core.Request) { s.retire(pc, r.Context.(*reqCtx)) })
			}
		}
	}
	for _, sc := range pc.conns {
		if sc != nil {
			pc.teardown(sc, false)
		}
	}
	pc.closeFDs()
}

// Request records.

// Phases at which a posted record resumes on its tenant's core.
const (
	phaseQueue  = iota // enter the scheduler
	phaseWork          // the simulated device latency elapsed
	phaseFinish        // every replication forward acked
)

// reqCtx is a request's one record from parse to response: the
// core.Request the scheduler queues (Context points back here), the
// response header and payload, the span and the forward holds. Records
// come from a per-core free list and return to the finishing core's.
type reqCtx struct {
	core.Request
	srv  *Server
	conn responder
	ten  *stenant
	hdr  protocol.Header // the request
	resp protocol.Header
	// payload and lease are the request payload (writes); out and outLease
	// the response payload (reads, cache hits). releaseLease drops both.
	payload  []byte
	lease    *bufpool.Buf
	out      []byte
	outLease *bufpool.Buf
	// span is the request's lifecycle record, pushed into the trace ring
	// when the response is queued.
	span obs.Span
	// fill marks an admitted read miss: on a successful aligned-4KB read
	// the block is committed under fillKey unless the fence epoch moved.
	fill      bool
	fillKey   uint64
	fillEpoch uint64
	phase     int
	// Forward state: holds counts outstanding forwards plus the caller;
	// the acks record a deposition (stale) or the first failure.
	holds    atomic.Int32
	stale    atomic.Bool
	failed   atomic.Uint32
	fwdStart int64
	onAck    func(protocol.Status) // forwardAck, bound once per record
	repost   func()                // post, bound once per record
}

// record takes a record off the free list.
func (pc *pcore) record() *reqCtx {
	if n := len(pc.free); n > 0 {
		c := pc.free[n-1]
		pc.free = pc.free[:n-1]
		return c
	}
	c := &reqCtx{srv: pc.srv}
	c.onAck, c.repost = c.forwardAck, c.post
	return c
}

// release returns a finished record to this core's free list, which is
// capped: records made on a connection's core and finished on another
// tenant's core would otherwise pile up there.
func (pc *pcore) release(c *reqCtx) {
	c.releaseLease()
	*c = reqCtx{srv: c.srv, onAck: c.onAck, repost: c.repost}
	if len(pc.free) < 4096 {
		pc.free = append(pc.free, c)
	}
}

// releaseLease drops the payload leases the record still holds.
func (c *reqCtx) releaseLease() {
	bufpool.ReleaseIf(c.lease)
	bufpool.ReleaseIf(c.outLease)
	c.lease, c.outLease = nil, nil
}

// post resumes the record on its tenant's core, from any goroutine.
func (c *reqCtx) post() { c.srv.cores[c.ten.coreID].post(inItem{ctx: c}) }

// enqueue puts a record in its tenant's scheduler queue on this core. A
// tenant not live here yet may have its registration waiting in the
// inbox, so the local path retries once from there before refusing.
func (pc *pcore) enqueue(c *reqCtx, local bool) {
	if !c.ten.live {
		if local {
			c.phase = phaseQueue
			pc.post(inItem{ctx: c})
			return
		}
		reject(pc, c.conn, &c.hdr, protocol.StatusNoTenant)
		pc.srv.retire(pc, c)
		return
	}
	pc.scheds[c.ten.device].Enqueue(c.ten.t, &c.Request)
	pc.ingested++
}

// retire drops a request that will not reach the device: its leases are
// released, its span retired and its tenant's in-flight charge repaid. pc
// is nil off the loop, where the record is left to the collector.
func (s *Server) retire(pc *pcore, c *reqCtx) {
	c.releaseLease()
	c.span.Mark(obs.StageTx, s.now())
	s.m.ring.Push(c.span)
	s.m.rejected.Inc()
	c.ten.ioDone(pc)
	if pc != nil {
		pc.release(c)
	}
}

// submit is the scheduler's hand-off: the admitted I/O runs now, or after
// the configured device latency, in which case a later request really can
// overtake it (which is what barriers exist to prevent).
func (pc *pcore) submit(req *core.Request) {
	c := req.Context.(*reqCtx)
	s := pc.srv
	c.span.Mark(obs.StageAdmit, s.now())
	delay := s.cfg.ReadLatency
	if c.hdr.Opcode == protocol.OpWrite {
		delay = s.cfg.WriteLatency
	}
	if c.outLease != nil {
		delay = 0 // a read-cache hit is served from DRAM
	}
	// An injected device timeout pulse (GC stall, controller reset) delays
	// the request; the Submit→DevDone span delta carries the service time.
	delay += s.cfg.Faults.DeviceStall()
	c.span.Mark(obs.StageSubmit, s.now())
	if delay > 0 {
		c.phase = phaseWork
		time.AfterFunc(delay, c.repost)
		return
	}
	pc.work(c)
}

// work performs the device operation and completes the request, unless
// the write waits for its replication forwards.
func (pc *pcore) work(c *reqCtx) {
	s, m, inj := pc.srv, pc.srv.m, pc.srv.cfg.Faults
	dev := s.devices[c.ten.device]
	c.resp = protocol.Header{
		Opcode: c.hdr.Opcode,
		Flags:  protocol.FlagResponse,
		Handle: c.hdr.Handle,
		Cookie: c.hdr.Cookie,
		LBA:    c.hdr.LBA,
		Count:  c.hdr.Count,
	}
	off := int64(c.hdr.LBA) * protocol.BlockSize
	switch {
	case c.outLease != nil:
		// Read-cache hit, copied out at dispatch: the backend and device
		// faults are never touched; the tenant was charged CacheServeCost.
		c.out = c.outLease.Bytes()[:c.hdr.Count]
		m.bytesRead.Add(uint64(len(c.out)))
		if c.hdr.Flags&protocol.FlagChecksum != 0 {
			c.out = protocol.AppendChecksum(c.out)
			c.resp.Flags |= protocol.FlagChecksum
		}
	case inj.DeviceError(): // typed and retryable; tenant and conn live on
		c.resp.Status = protocol.StatusDeviceError
		m.errored.Inc()
	case c.hdr.Opcode == protocol.OpRead:
		// Pooled, with slack for the checksum trailer appended in place.
		c.outLease = bufpool.Get(int(c.hdr.Count) + protocol.ChecksumSize)
		buf := c.outLease.Bytes()[:c.hdr.Count]
		var err error
		if c.ten.vol != nil {
			err = c.ten.vol.ReadAt(buf, off) // holes read as zeros
		} else {
			_, err = dev.backend.ReadAt(buf, off)
		}
		if err != nil {
			c.releaseLease()
			c.resp.Status = protocol.StatusDeviceError
			m.errored.Inc()
			break
		}
		m.bytesRead.Add(uint64(len(buf)))
		if c.fill {
			commit := true
			if c.ten.vol != nil {
				// A CoW break since dispatch moves the logical block to a
				// fresh extent without writing the old physical block, which
				// the epoch fence cannot see: re-verify the translation.
				poff, ok := c.ten.vol.Translate(off, len(buf))
				commit = ok && readcache.Key(c.ten.device, uint64(poff)/readcache.BlockSize) == c.fillKey
			}
			// buf is the whole block image: commit it before the checksum
			// trailer or injected corruption touch the wire copy.
			if commit {
				s.cache.CommitFill(c.fillKey, c.fillEpoch, buf)
			}
		}
		if c.hdr.Flags&protocol.FlagChecksum != 0 {
			// Seal first, then let the injector corrupt the wire image:
			// the flip is exactly what the client-side verifier must catch.
			buf = protocol.AppendChecksum(buf)
			c.resp.Flags |= protocol.FlagChecksum
		}
		inj.CorruptPayload(buf)
		c.out = buf
	case c.hdr.Opcode == protocol.OpWrite:
		dev.lastWrite.Store(s.now())
		var err error
		if c.ten.vol != nil {
			err = c.ten.vol.WriteAt(c.payload, off) // may allocate or break CoW
		} else {
			_, err = dev.backend.WriteAt(c.payload, off)
		}
		switch {
		case err == volume.ErrNoSpace: // retryable after a trim or delete
			c.resp.Status = protocol.StatusNoCapacity
			m.errored.Inc()
		case err != nil:
			c.resp.Status = protocol.StatusDeviceError
			m.errored.Inc()
		default:
			m.bytesWrite.Add(uint64(c.hdr.Count))
			// "Acked" means on the backup too, and on the migration sink
			// during a live shard move. Device 0 only; volume writes are
			// not raw-LBA replicated (volume DR is the diff stream, §18).
			if dev.idx == 0 && c.ten.vol == nil && pc.forward(c) {
				return // finishes when the last forward acks
			}
		}
	}
	pc.finish(c)
}

// forward replicates an applied write to the backup and to the migration
// sink, which filters by its shard window. It reports false when nothing
// forwarded; otherwise the record finishes on its core once every forward
// acked. holds starts at one per possible forward plus one for this call,
// so an ack racing the second Forward cannot finish the record early.
func (pc *pcore) forward(c *reqCtx) bool {
	s := pc.srv
	c.holds.Store(3)
	c.fwdStart = s.now()
	n := 0
	if s.repl.Forward(c.hdr.LBA, c.payload, c.lease, c.span.Trace, c.span.ID, c.onAck) {
		n++
	} else {
		c.holds.Add(-1)
	}
	if s.migr.Forward(c.hdr.LBA, c.payload, c.lease, c.span.Trace, c.span.ID, c.onAck) {
		n++
		// Counted here: the destination cannot tell relayed writes apart.
		s.m.migrPathReqs.Inc()
		s.m.migrPathBytes.Add(uint64(c.hdr.Count))
	} else {
		c.holds.Add(-1)
	}
	// Each forward holds its own reference to the payload: drop ours
	// before the last hold can finish the record on another goroutine.
	c.releaseLease()
	if n == 0 {
		return false
	}
	c.phase = phaseFinish
	c.dropHold()
	return true
}

// forwardAck is the record's replication-ack callback, run on whatever
// goroutine reads the ack.
func (c *reqCtx) forwardAck(st protocol.Status) {
	c.srv.m.replAckLag.Record(c.srv.now() - c.fwdStart)
	switch st {
	case protocol.StatusOK:
	case protocol.StatusStaleEpoch:
		c.stale.Store(true)
	default:
		c.failed.CompareAndSwap(0, uint32(st))
	}
	c.dropHold()
}

func (c *reqCtx) dropHold() {
	if c.holds.Add(-1) == 0 {
		c.post()
	}
}

// finish queues the response and retires the request.
func (pc *pcore) finish(c *reqCtx) {
	s, m := pc.srv, pc.srv.m
	c.span.Mark(obs.StageDevDone, s.now())
	switch {
	case c.stale.Load(): // deposed mid-write: the client fails over and replays
		c.resp.Status = protocol.StatusStaleEpoch
	case c.failed.Load() != 0: // not on every owner: the client must retry
		c.resp.Status = protocol.Status(c.failed.Load())
	}
	c.conn.send(pc, c.resp, c.out, c.outLease)
	c.outLease = nil // the send owns it now
	now := s.now()
	c.span.Mark(obs.StageTx, now)
	if c.hdr.Opcode == protocol.OpWrite {
		m.writeLat.Record(now - c.Arrival)
	} else {
		m.readLat.Record(now - c.Arrival)
	}
	m.responses.Inc()
	m.spans.Inc()
	m.ring.Push(c.span)
	c.ten.ioDone(pc)
	pc.release(c)
}
