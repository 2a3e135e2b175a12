package server

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/readcache"
	"github.com/reflex-go/reflex/internal/volume"
)

// schedBatchMax caps how many enqueued requests one select round absorbs
// before scheduling — the same 64-request adaptive batching bound the
// paper applies to NVMe submissions (§3.2.1). Draining in batches cuts
// channel operations per request while the cap keeps one round from
// starving the timer tick.
const schedBatchMax = 64

// pcore is one shared-nothing core of the server's dataplane (§3.2): it
// owns a disjoint set of tenants and their QoS schedulers (one
// core.Scheduler per device, "we run an independent instance of the
// scheduling algorithm for each device", §3.2.2), a bounded request ring,
// and the batched response flusher for every connection pinned to it.
// Connections are pinned to a core at accept time and tenants registered
// over a connection land on its core, so a request's whole path — decode,
// schedule, submit, respond, flush — touches only this core's state.
//
// Cross-core interaction is reduced to the atomic global token bucket
// (core.SharedState), the atomics-only tenant registry, and the shed
// signal's atomic indicators; no mutex is shared between cores on the
// request path.
type pcore struct {
	id     int
	srv    *Server
	scheds []*core.Scheduler // one per device

	// ring is the core's request ring: connection readers push, the core
	// loop drains in batches. Capacity is Config.RingSize.
	ring  chan enqueued
	cmdCh chan func()

	// debt is the aggregate token debt (sum of negative tenant balances,
	// in millitokens) across this core's schedulers, published after each
	// round for the load-shed signal. Written only by the core goroutine;
	// read by connection readers. Padded: every core publishes every
	// round, and a shared cache line here would put all cores back on one
	// line.
	debt obs.PaddedInt64

	// nconns / ntenants drive the accept-time and registration-time
	// placement policy (fewest-loaded core wins) and the per-core gauges.
	nconns   obs.PaddedInt64
	ntenants obs.PaddedInt64

	// Batched response flusher state: connections with queued responses
	// enqueue themselves on dirty exactly once and kick the flusher; one
	// wakeup drains every dirty connection with one writev each (batched
	// wakeups — N responses across M conns cost one park/unpark).
	fmu       sync.Mutex
	dirty     []*srvConn
	dirtySwap []*srvConn
	flushKick chan struct{}

	// Flusher telemetry (per-core batch gauges).
	flushes   obs.PaddedInt64
	flushMsgs obs.PaddedInt64
}

// do runs fn on the core goroutine (tenant register/unregister).
func (pc *pcore) do(fn func()) {
	select {
	case pc.cmdCh <- fn:
	case <-pc.srv.done:
	}
}

// enqueue hands an I/O to the core's request ring. It blocks if the core
// is severely backlogged, providing natural backpressure to the
// connection reader. A request dropped because the server is shutting
// down is failed properly — lease released, span retired, tenant
// in-flight count retired, error response attempted — instead of silently
// vanishing with its resources held (the shutdown-leak fix).
func (pc *pcore) enqueue(e enqueued) {
	select {
	case pc.ring <- e:
	case <-pc.srv.done:
		pc.srv.failDropped(e)
	}
}

// failDropped fails a request that was dropped before reaching a
// scheduler (server shutdown raced the enqueue). The payload lease is
// released (a leaked lease would pin a poisoned pool buffer forever and
// fail the zero-steady-state-alloc accounting), the span is retired into
// the trace ring, the tenant's in-flight count is decremented so barrier
// waiters and the sequencer do not hang on a request that will never
// complete, and the client gets a best-effort StatusOverloaded (its
// connection is usually mid-teardown anyway; the send path drops the
// response on a down connection).
func (s *Server) failDropped(e enqueued) {
	ctx := e.req.Context.(*reqCtx)
	ctx.releaseLease()
	reject(ctx.conn, &ctx.hdr, protocol.StatusOverloaded)
	ctx.span.Mark(obs.StageTx, s.now())
	s.m.ring.Push(ctx.span)
	s.m.rejected.Inc()
	ctx.ten.ioDone(s)
}

// loop is the core's scheduler goroutine: it drains the request ring in
// adaptive batches, runs one scheduling round per wakeup, and publishes
// the core's token debt.
func (pc *pcore) loop() {
	defer pc.srv.wg.Done()
	ticker := time.NewTicker(pc.srv.cfg.SchedInterval)
	defer ticker.Stop()
	for {
		select {
		case <-pc.srv.done:
			pc.failRing()
			return
		case fn := <-pc.cmdCh:
			fn()
		case e := <-pc.ring:
			pc.scheds[e.ten.device].Enqueue(e.ten.t, e.req)
			// Drain whatever else arrived, up to the adaptive batching
			// cap; one scheduling round covers the batch.
			n := 1
		drain:
			for n < schedBatchMax {
				select {
				case e := <-pc.ring:
					pc.scheds[e.ten.device].Enqueue(e.ten.t, e.req)
					n++
				default:
					break drain
				}
			}
			pc.srv.m.schedBatch.Record(int64(n))
		case <-ticker.C:
			// Periodic round: token accrual for queued requests.
		}
		now := pc.srv.now()
		for _, sched := range pc.scheds {
			sched.Schedule(now, pc.submit)
		}
		pc.publishDebt()
	}
}

// failRing fails every request still parked in the ring when the core
// loop exits at shutdown — same resource discipline as the enqueue drop
// path. A reader racing the drain can still slip one request into the
// ring afterwards; its pooled buffer is then garbage-collected (one pool
// miss, never a correctness leak), matching the response-queue
// teardown policy.
func (pc *pcore) failRing() {
	for {
		select {
		case e := <-pc.ring:
			pc.srv.failDropped(e)
		default:
			return
		}
	}
}

// publishDebt sums this core's tenants' negative token balances into the
// atomically readable debt gauge that feeds the shed signal. Tenant
// state is core-confined, so the walk happens here.
func (pc *pcore) publishDebt() {
	var debt core.Tokens
	for _, sched := range pc.scheds {
		lc, be := sched.Tenants()
		for _, t := range lc {
			if b := t.Tokens(); b < 0 {
				debt -= b
			}
		}
		for _, t := range be {
			if b := t.Tokens(); b < 0 {
				debt -= b
			}
		}
	}
	pc.debt.Store(int64(debt))
}

// noteDirty enqueues sc on the core's dirty list (the caller observed the
// empty→non-empty transition of sc's response queue, so sc appears at
// most once) and kicks the flusher. The cap-1 kick channel coalesces
// wakeups: a burst of responses across many connections costs one
// park/unpark of the flusher, which then drains every dirty connection.
func (pc *pcore) noteDirty(sc *srvConn) {
	pc.fmu.Lock()
	pc.dirty = append(pc.dirty, sc)
	pc.fmu.Unlock()
	select {
	case pc.flushKick <- struct{}{}:
	default:
	}
}

// flushLoop is the core's single response flusher: it absorbs the old
// per-connection writer goroutines into one goroutine per core. Each
// wakeup swaps out the dirty list and flushes every connection on it with
// batched writev calls. On shutdown it keeps draining until every
// connection pinned to this core has torn down, so a sender blocked on a
// full response queue is always released (either by a flush or by its
// connection's teardown) before the flusher exits.
func (pc *pcore) flushLoop() {
	defer pc.srv.wg.Done()
	closing := false
	for {
		if !closing {
			select {
			case <-pc.srv.done:
				closing = true
			case <-pc.flushKick:
			}
		} else {
			if pc.nconns.Load() == 0 {
				pc.drainDirty() // final sweep: all conns down, discard
				return
			}
			select {
			case <-pc.flushKick:
			case <-time.After(time.Millisecond):
				// Teardown kicks the flusher, but poll anyway so a lost
				// race on the final kick cannot wedge shutdown.
			}
		}
		pc.drainDirty()
	}
}

// drainDirty flushes every dirty connection until the list is empty.
func (pc *pcore) drainDirty() {
	for {
		pc.fmu.Lock()
		batch := pc.dirty
		pc.dirty = pc.dirtySwap[:0]
		pc.dirtySwap = batch
		pc.fmu.Unlock()
		if len(batch) == 0 {
			return
		}
		for i, sc := range batch {
			sc.flush()
			batch[i] = nil // drop the reference; the swap buffer is reused
		}
	}
}

// forwardWrite replicates one locally applied write to the backup
// replicator and the migration replicator (the latter filters by its
// shard window). It reports whether any forward happened — if so, finish
// is deferred until the last outstanding forward acks; if not, the
// caller acks the client immediately (standalone path, unchanged).
//
// The counter is pre-charged with one hold per potential forward plus
// one for the caller, so an ack racing the second Forward call cannot
// fire finish early: holds for forwards that never happened are released
// synchronously, and finish runs exactly once when the count hits zero
// (possibly on this goroutine when nothing forwarded).
func (pc *pcore) forwardWrite(ctx *reqCtx, resp *protocol.Header, finish func()) bool {
	var (
		remaining atomic.Int32
		stale     atomic.Bool
		failed    atomic.Uint32 // first non-OK, non-stale forward ack status
	)
	remaining.Store(3) // repl hold + migr hold + caller hold
	release := func() bool {
		if remaining.Add(-1) != 0 {
			return false
		}
		switch {
		case stale.Load():
			// Deposed mid-write: the local apply stands but the ack must
			// tell the client to fail over (it will replay at the new
			// primary).
			resp.Status = protocol.StatusStaleEpoch
		case failed.Load() != 0:
			// A replica or migration sink failed to apply the forwarded
			// copy (e.g. the destination refused the relayed write). The
			// write is NOT on every owner, so the client must not see
			// StatusOK — "acked" means "on both nodes", and a cutover that
			// makes the destination authoritative must never strand a
			// write the client believes durable. The client retries.
			resp.Status = protocol.Status(failed.Load())
		}
		finish()
		return true
	}
	fwdStart := pc.srv.now()
	onAck := func(st protocol.Status) {
		pc.srv.m.replAckLag.Record(pc.srv.now() - fwdStart)
		switch st {
		case protocol.StatusOK:
		case protocol.StatusStaleEpoch:
			stale.Store(true)
		default:
			failed.CompareAndSwap(0, uint32(st))
		}
		release()
	}
	n := 0
	if pc.srv.repl.Forward(ctx.hdr.LBA, ctx.payload, ctx.lease, ctx.span.Trace, ctx.span.ID, onAck) {
		n++
	} else {
		release()
	}
	if pc.srv.migr.Forward(ctx.hdr.LBA, ctx.payload, ctx.lease, ctx.span.Trace, ctx.span.ID, onAck) {
		n++
		// path="migrate" internal-traffic accounting happens at the
		// source: the destination sees relayed writes as ordinary client
		// writes and cannot tell them apart.
		pc.srv.m.migrPathReqs.Inc()
		pc.srv.m.migrPathBytes.Add(uint64(ctx.hdr.Count))
	} else {
		release()
	}
	if n == 0 {
		// Both holds already released; drop the caller hold without
		// firing finish — the caller's synchronous path sends the ack.
		remaining.Add(-1)
		return false
	}
	release() // caller hold: finish now runs on the last ack
	return true
}

// submit performs the admitted I/O against the backend and sends the
// response. With a configured simulated device latency, the backend
// operation itself happens after the delay — a later request really can
// overtake it, which is exactly what barriers exist to prevent.
func (pc *pcore) submit(req *core.Request) {
	ctx := req.Context.(*reqCtx)
	ctx.span.Mark(obs.StageAdmit, pc.srv.now())
	delay := pc.srv.cfg.ReadLatency
	if ctx.hdr.Opcode == protocol.OpWrite {
		delay = pc.srv.cfg.WriteLatency
	}
	if ctx.cbuf != nil {
		// Read-cache hit: served from DRAM, so the simulated device
		// latency does not apply (that gap is the point of the cache).
		delay = 0
	}
	// Injected device timeout pulse: the device goes away for a while
	// (GC stall, controller reset) but the request still completes.
	inj := pc.srv.cfg.Faults
	if stall := inj.DeviceStall(); stall > 0 {
		delay += stall
	}
	dev := pc.srv.devices[ctx.ten.device]
	m := pc.srv.m
	work := func() {
		// The request-payload lease (write path) is done once the local
		// apply and the replication forward hand-off complete below; the
		// forward retains its own reference for the backup-bound flush.
		defer ctx.releaseLease()
		resp := protocol.Header{
			Opcode: ctx.hdr.Opcode,
			Flags:  protocol.FlagResponse,
			Handle: ctx.hdr.Handle,
			Cookie: ctx.hdr.Cookie,
			LBA:    ctx.hdr.LBA,
			Count:  ctx.hdr.Count,
		}
		off := int64(ctx.hdr.LBA) * protocol.BlockSize
		var payload []byte
		var please *bufpool.Buf // response-payload lease (read path)
		// finish sends the response and retires the request; the write
		// path may defer it until the backup acks the replicated copy.
		// Ownership of please transfers to send, which releases it after
		// the flush that carries the response.
		finish := func() {
			ctx.span.Mark(obs.StageDevDone, pc.srv.now())
			ctx.conn.send(&resp, payload, please)
			now := pc.srv.now()
			ctx.span.Mark(obs.StageTx, now)
			if ctx.hdr.Opcode == protocol.OpWrite {
				m.writeLat.Record(now - req.Arrival)
			} else {
				m.readLat.Record(now - req.Arrival)
			}
			m.responses.Inc()
			m.spans.Inc()
			m.ring.Push(ctx.span)
			ctx.ten.ioDone(pc.srv)
		}
		switch {
		case ctx.cbuf != nil && ctx.hdr.Opcode == protocol.OpRead:
			// Read-cache hit: the payload was copied out of the cache at
			// dispatch (under the segment lock, after any invalidating
			// write acked). The backend — and injected device faults —
			// are never touched; the tenant was charged CacheServeCost.
			buf := ctx.cbuf.Bytes()[:ctx.hdr.Count]
			m.bytesRead.Add(uint64(len(buf)))
			if ctx.hdr.Flags&protocol.FlagChecksum != 0 {
				buf = protocol.AppendChecksum(buf)
				resp.Flags |= protocol.FlagChecksum
			}
			payload = buf
			// Ownership of the lease moves to send via please;
			// releaseLease must not see it again.
			please = ctx.cbuf
			ctx.cbuf = nil
		case inj.DeviceError():
			// Injected per-request device error: the op fails with a
			// typed, retryable status; the tenant and connection live on.
			resp.Status = protocol.StatusDeviceError
			m.errored.Inc()
		case ctx.hdr.Opcode == protocol.OpRead:
			// Pooled response frame with trailer slack: the checksum (when
			// requested) is appended in place into the same backing array —
			// no second allocation, no second copy.
			lease := bufpool.Get(int(ctx.hdr.Count) + protocol.ChecksumSize)
			buf := lease.Bytes()[:ctx.hdr.Count]
			var err error
			if ctx.ten.vol != nil {
				// Volume-addressed read: the LBA is logical; the extent map
				// walk resolves each piece against the chain (holes read as
				// zeros). No allocation — the chain walk reuses buf.
				err = ctx.ten.vol.ReadAt(buf, off)
			} else {
				_, err = dev.backend.ReadAt(buf, off)
			}
			if err != nil {
				lease.Release()
				resp.Status = protocol.StatusDeviceError
				m.errored.Inc()
			} else {
				m.bytesRead.Add(uint64(len(buf)))
				if ctx.fill {
					commit := true
					if ctx.ten.vol != nil {
						// A CoW break between dispatch and here moves the
						// logical block to a fresh extent without ever
						// writing the old physical block, so the epoch
						// fence alone cannot catch the remap. Re-verify
						// the translation; if the mapping moved, drop the
						// fill. (Reuse of the old extent always rewrites
						// its full image first, which the epoch fence DOES
						// catch.)
						poff, ok := ctx.ten.vol.Translate(off, len(buf))
						commit = ok && readcache.Key(ctx.ten.device,
							uint64(poff)/readcache.BlockSize) == ctx.fillKey
					}
					// Admitted miss on an aligned 4KB read: buf is the
					// whole block image — commit it before anything
					// (checksum trailer, injected corruption) touches the
					// wire copy. The fence epoch drops the fill if a write
					// invalidated the block since dispatch.
					if commit {
						pc.srv.cache.CommitFill(ctx.fillKey, ctx.fillEpoch, buf)
					}
				}
				if ctx.hdr.Flags&protocol.FlagChecksum != 0 {
					// Seal first, then let the injector corrupt the wire
					// image: the flip is exactly what the client-side
					// verifier must catch.
					buf = protocol.AppendChecksum(buf)
					resp.Flags |= protocol.FlagChecksum
				}
				inj.CorruptPayload(buf)
				payload = buf
				please = lease
			}
		case ctx.hdr.Opcode == protocol.OpWrite:
			dev.lastWrite.Store(pc.srv.now())
			var err error
			if ctx.ten.vol != nil {
				// Volume-addressed write: first touch of an extent allocates
				// it (thin provisioning); a write below a snapshot breaks
				// CoW. Steady-state overwrites hit the in-place fast path.
				err = ctx.ten.vol.WriteAt(ctx.payload, off)
			} else {
				_, err = dev.backend.WriteAt(ctx.payload, off)
			}
			if err != nil {
				if err == volume.ErrNoSpace {
					// Thin pool exhausted: typed, retryable after a trim or
					// delete — not a device fault.
					resp.Status = protocol.StatusNoCapacity
				} else {
					resp.Status = protocol.StatusDeviceError
				}
				m.errored.Inc()
			} else {
				m.bytesWrite.Add(uint64(ctx.hdr.Count))
				// Replication: forward the acked write to the backup (and,
				// during a live shard move, to the migration sink) and
				// defer the client ack until every forward acks — this is
				// what makes "acked" mean "survives a primary kill" and
				// "survives the cutover". Covers device 0 (the clustered
				// device).
				// Volume writes are not raw-LBA replicated: the logical LBA
				// is meaningless on the backup's device, and volume DR is
				// the snapshot-diff stream (DESIGN.md §18).
				if dev.idx == 0 && ctx.ten.vol == nil && pc.forwardWrite(ctx, &resp, finish) {
					return // finish runs on the last forward's ack
				}
			}
		}
		finish()
	}
	// Submission happens now; a configured latency models device service
	// time, so the Submit→DevDone span delta carries it.
	ctx.span.Mark(obs.StageSubmit, pc.srv.now())
	if delay > 0 {
		time.AfterFunc(delay, work)
		return
	}
	work()
}
