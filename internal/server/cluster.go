package server

import (
	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
)

// Cluster role and epoch machinery (internal/cluster's server surface).
//
// Epoch rules (DESIGN.md §11):
//
//   - The epoch is a monotonically increasing uint16 carried in every
//     message header. 0 means standalone/epoch-unaware: such writes skip
//     the stamp comparison (pre-cluster clients interoperate) but are
//     still refused on a fenced or backup-role server.
//   - A server adopts any higher epoch it observes (join handshake,
//     OpFence, replication acks) — max-merge convergence.
//   - Promotion (OpPromote e) succeeds iff e > current, or e == current
//     on a server already serving as unfenced primary at e (idempotent
//     convergence when two failing-over clients race to the same target).
//   - Fencing (OpFence e with e > current) deposes a primary: it adopts
//     e, marks itself fenced, and rejects all writes with
//     StatusStaleEpoch until promoted at a yet-higher epoch.
//   - A backup-role server refuses client writes (they must go through
//     the primary and the replication stream) but serves client reads —
//     that is what hedged reads lean on.

// ClusterEpoch returns the server's current cluster epoch.
func (s *Server) ClusterEpoch() uint16 { return uint16(s.epoch.Load()) }

// IsBackupRole reports whether the server runs as a (non-promoted)
// backup.
func (s *Server) IsBackupRole() bool { return s.backupRole.Load() }

// IsFenced reports whether the server has been deposed and refuses
// writes.
func (s *Server) IsFenced() bool { return s.fenced.Load() }

// AdoptEpoch raises the epoch to e if higher (never lowers it).
func (s *Server) AdoptEpoch(e uint16) {
	for {
		cur := s.epoch.Load()
		if uint32(e) <= cur {
			return
		}
		if s.epoch.CompareAndSwap(cur, uint32(e)) {
			s.m.journal.Record(obs.EvEpoch, s.cfg.NodeName, -1,
				"epoch adopted %d -> %d", cur, e)
			return
		}
	}
}

// SetOnPromote registers a hook fired once per successful promotion with
// the new epoch (e.g. to stop a backup join loop).
func (s *Server) SetOnPromote(fn func(epoch uint16)) { s.onPromote.Store(fn) }

// Promote asks the server to serve as primary at epoch e. It returns the
// server's resulting epoch and a status: StatusOK on success (including
// the idempotent already-primary-at-e case), StatusStaleEpoch when e is
// not newer than what the server has seen.
func (s *Server) Promote(e uint16) (uint16, protocol.Status) {
	s.cmu.Lock()
	cur := s.ClusterEpoch()
	switch {
	case e > cur:
		s.epoch.Store(uint32(e))
	case e == cur && !s.fenced.Load() && !s.backupRole.Load():
		// Already primary at e: a racing client's duplicate promote.
		s.cmu.Unlock()
		return cur, protocol.StatusOK
	default:
		s.cmu.Unlock()
		return cur, protocol.StatusStaleEpoch
	}
	s.fenced.Store(false)
	s.backupRole.Store(false)
	s.cmu.Unlock()
	s.m.promotions.Inc()
	s.m.journal.Record(obs.EvPromote, s.cfg.NodeName, -1, "promoted to primary at epoch %d", e)
	if fn, ok := s.onPromote.Load().(func(uint16)); ok && fn != nil {
		fn(e)
	}
	return e, protocol.StatusOK
}

// Fence informs the server that epoch e exists elsewhere. With e greater
// than the current epoch the server deposes itself: adopts e, marks
// itself fenced, and fails any pending replication forwards with
// StatusStaleEpoch. Returns the resulting epoch.
func (s *Server) Fence(e uint16) uint16 {
	s.cmu.Lock()
	cur := s.ClusterEpoch()
	if e <= cur {
		s.cmu.Unlock()
		return cur
	}
	s.epoch.Store(uint32(e))
	s.fenced.Store(true)
	s.cmu.Unlock()
	s.m.fencings.Inc()
	s.m.journal.Record(obs.EvFence, s.cfg.NodeName, -1, "fenced at epoch %d (was %d)", e, cur)
	return e
}

// writeAllowed gates a client write by cluster role and epoch stamp.
func (s *Server) writeAllowed(epoch uint16) protocol.Status {
	if s.backupRole.Load() || s.fenced.Load() {
		return protocol.StatusStaleEpoch
	}
	if epoch != 0 && epoch != s.ClusterEpoch() {
		return protocol.StatusStaleEpoch
	}
	return protocol.StatusOK
}

// ApplyReplicate applies one replicated write (live forward or catch-up
// chunk) to device 0, bypassing the QoS scheduler: replication is
// infrastructure traffic and must neither charge nor be shed against any
// tenant's token bucket. Only a backup-role server at an epoch no newer
// than the stamp applies; anything else acks StatusStaleEpoch, fencing
// the sender.
func (s *Server) ApplyReplicate(lba uint32, payload []byte, epoch uint16) protocol.Status {
	if !s.backupRole.Load() {
		return protocol.StatusStaleEpoch
	}
	if epoch < s.ClusterEpoch() {
		return protocol.StatusStaleEpoch
	}
	s.AdoptEpoch(epoch)
	if len(payload) == 0 {
		return protocol.StatusBadRequest
	}
	dev := s.devices[0]
	off := int64(lba) * protocol.BlockSize
	if off+int64(len(payload)) > dev.backend.Size() {
		return protocol.StatusBadRequest
	}
	dev.lastWrite.Store(s.now())
	if _, err := dev.backend.WriteAt(payload, off); err != nil {
		s.m.errored.Inc()
		return protocol.StatusDeviceError
	}
	s.m.replApplied.Inc()
	// Internal-traffic accounting (path="replicate"): replicated applies
	// never show up in the per-tenant request counters, so without this
	// label a backup looks idle while absorbing the primary's full write
	// load.
	s.m.replPathReqs.Inc()
	s.m.replPathBytes.Add(uint64(len(payload)))
	return protocol.StatusOK
}

// ApplyReplicateTraced is ApplyReplicate for a forward that carried a
// trace trailer: the apply is recorded as a HopReplica child span of the
// primary's serve span, landing the backup's ack-path latency in the
// stitched cross-node timeline. Implements cluster.TracedApplier.
func (s *Server) ApplyReplicateTraced(lba uint32, payload []byte, epoch uint16, trace, parent uint64) protocol.Status {
	arrival := s.now()
	st := s.ApplyReplicate(lba, payload, epoch)
	if trace != 0 {
		sp := obs.Span{
			ID:     s.m.spanID(),
			Trace:  trace,
			Parent: parent,
			Node:   s.cfg.NodeName,
			Hop:    obs.HopReplica,
			Write:  true,
			Size:   len(payload),
		}
		sp.Mark(obs.StageArrival, arrival)
		sp.Mark(obs.StageDevDone, s.now())
		sp.Mark(obs.StageTx, s.now())
		s.m.ring.Push(sp)
	}
	return st
}

// SendToReplica makes a srvConn a cluster.ReplicaSender; the lease (the
// replicator's reference) is released after the writev carrying the frame.
// Catch-up chunks have no lease: their private buffer is reused only after
// an ack, so after it was written.
func (sc *srvConn) SendToReplica(hdr *protocol.Header, payload []byte, lease *bufpool.Buf) {
	sc.send(nil, *hdr, payload, lease)
}

// handleJoin serves OpJoin: a backup (Count == 0) or a migration sink
// (window [LBA, LBA+Count) blocks) attaches over this TCP connection. The
// OK goes into the outbox ahead of the catch-up stream; teardown closes the
// session, degrading pending forwards to standalone acks.
func (s *Server) handleJoin(rsp responder, hdr *protocol.Header, _ []byte) {
	resp := protocol.Header{Opcode: protocol.OpJoin, Flags: protocol.FlagResponse, Cookie: hdr.Cookie, LBA: hdr.LBA, Count: hdr.Count}
	sc, isTCP := rsp.(*srvConn)
	if !isTCP || s.backupRole.Load() {
		resp.Status = protocol.StatusBadRequest
		rsp.send(nil, resp, nil, nil)
		return
	}
	s.AdoptEpoch(hdr.Epoch)
	resp.Epoch = s.ClusterEpoch()
	rsp.send(nil, resp, nil, nil)
	if hdr.Count != 0 {
		sc.attach(s.migr.AttachRange(sc, hdr.LBA, hdr.Count).(attachment))
		s.m.migrJoins.Inc()
	} else {
		sc.attach(s.repl.Attach(sc).(attachment))
		s.m.replJoins.Inc()
	}
}

// handlePromote serves OpPromote (the promotion hook is caller code).
func (s *Server) handlePromote(rsp responder, hdr *protocol.Header, _ []byte) {
	e, st := s.Promote(hdr.Epoch)
	rsp.send(nil, protocol.Header{Opcode: protocol.OpPromote, Flags: protocol.FlagResponse, Cookie: hdr.Cookie, Epoch: e, Status: st}, nil, nil)
}

// ReplicaLive reports whether a backup session is currently attached.
func (s *Server) ReplicaLive() bool { return s.repl.Live() }

// ReplicaCaughtUp reports whether the attached backup has the full
// catch-up stream.
func (s *Server) ReplicaCaughtUp() bool { return s.repl.CaughtUp() }
