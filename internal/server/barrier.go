package server

import (
	"github.com/reflex-go/reflex/internal/protocol"
)

// Per-tenant ordering barriers (the §4.1 future-work extension): a barrier
// completes only after every I/O submitted before it on the tenant has
// completed, and I/O submitted after it is held until it completes.
//
// The sequencer keeps a FIFO that is only populated while a barrier is
// pending, so the unordered fast path costs one mutex acquisition. When a
// tenant dies mid-barrier (disconnect, idle reap, unregister), kill drains
// the FIFO and refuses later submissions, so no waiter is ever stuck.

// seqItem is either a held I/O (io != nil) or a pending barrier.
type seqItem struct {
	io   *reqCtx
	conn responder
	hdr  protocol.Header
}

// barrierDone answers a barrier.
func barrierDone(pc *pcore, b seqItem, st protocol.Status) {
	b.conn.send(pc, protocol.Header{
		Opcode: protocol.OpBarrier,
		Flags:  protocol.FlagResponse,
		Handle: b.hdr.Handle,
		Cookie: b.hdr.Cookie,
		Status: st,
	}, nil, nil)
}

// submitIO routes a record through the tenant's ordering sequencer:
// straight to its core's scheduler when no barrier is pending, held
// otherwise. It reports false when the tenant is already torn down.
func (st *stenant) submitIO(pc *pcore, c *reqCtx) bool {
	st.mu.Lock()
	if st.dead {
		st.mu.Unlock()
		return false
	}
	if len(st.seq) > 0 {
		st.seq = append(st.seq, seqItem{io: c})
		st.mu.Unlock()
		return true
	}
	st.outstanding++
	st.mu.Unlock()
	if st.coreID == pc.id {
		pc.enqueue(c, true)
	} else {
		c.phase = phaseQueue
		c.post()
	}
	return true
}

// submitBarrier registers a barrier; it completes immediately when the
// tenant has nothing in flight. It reports false when the tenant is
// already torn down.
func (st *stenant) submitBarrier(pc *pcore, conn responder, hdr protocol.Header) bool {
	st.mu.Lock()
	if st.dead {
		st.mu.Unlock()
		return false
	}
	if st.outstanding == 0 && len(st.seq) == 0 {
		st.mu.Unlock()
		barrierDone(pc, seqItem{conn: conn, hdr: hdr}, protocol.StatusOK)
		return true
	}
	st.seq = append(st.seq, seqItem{conn: conn, hdr: hdr})
	st.mu.Unlock()
	return true
}

// kill tears the sequencer down: pending barriers are answered with
// StatusNoTenant (their submitter may be a different live connection) and
// held I/Os are dropped with their leases. Subsequent submissions are
// refused. Idempotent; runs on any goroutine.
func (st *stenant) kill() {
	st.mu.Lock()
	if st.dead {
		st.mu.Unlock()
		return
	}
	st.dead = true
	seq := st.seq
	st.seq = nil
	st.mu.Unlock()
	for _, it := range seq {
		if it.io != nil {
			it.io.releaseLease()
		} else {
			barrierDone(nil, it, protocol.StatusNoTenant)
		}
	}
}

// ioDone retires one in-flight I/O on the tenant's core (pc, or nil off
// the loop) and pumps the sequencer: barriers at the front complete once
// the tenant drains, and held I/Os behind a completed barrier go back to
// the core through its inbox, entering the scheduler on the next round.
func (st *stenant) ioDone(pc *pcore) {
	var release []*reqCtx
	var replies []seqItem
	st.mu.Lock()
	st.outstanding--
	for len(st.seq) > 0 {
		head := st.seq[0]
		if head.io == nil {
			if st.outstanding != 0 || len(release) > 0 {
				break
			}
			replies = append(replies, head)
			st.seq = st.seq[1:]
			continue
		}
		st.outstanding++
		release = append(release, head.io)
		st.seq = st.seq[1:]
	}
	st.mu.Unlock()
	for _, b := range replies {
		barrierDone(pc, b, protocol.StatusOK)
	}
	for _, c := range release {
		c.phase = phaseQueue
		c.post()
	}
}
