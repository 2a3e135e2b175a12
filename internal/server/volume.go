package server

import (
	"github.com/reflex-go/reflex/internal/cluster"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/volume"
)

// Volume control plane (DESIGN.md §18): the OpVol* opcodes are rare
// management operations handled inline on the dispatch goroutine — they
// never touch the QoS scheduler. Snapshot and clone are O(1) map freezes,
// so even "inline" they cost microseconds; the diff stream is the only
// long-running piece and it runs on its own goroutine, self-paced by
// receiver acks so it stays best-effort.

// volStatus maps volume-manager failures onto wire statuses.
func volStatus(err error) protocol.Status {
	switch err {
	case nil:
		return protocol.StatusOK
	case volume.ErrNoSpace:
		return protocol.StatusNoCapacity
	case volume.ErrNotFound:
		return protocol.StatusNoTenant
	case volume.ErrExists, volume.ErrRange:
		return protocol.StatusBadRequest
	case volume.ErrDead:
		return protocol.StatusBadRequest
	default:
		return protocol.StatusBadRequest
	}
}

// handleVolOp serves the inline volume-management opcodes.
func (s *Server) handleVolOp(rsp responder, hdr *protocol.Header, payload []byte) {
	resp := protocol.Header{
		Opcode: hdr.Opcode,
		Flags:  protocol.FlagResponse,
		Cookie: hdr.Cookie,
	}
	if s.vols == nil {
		resp.Status = protocol.StatusBadRequest
		rsp.send(&resp, nil, nil)
		return
	}
	// Volume DDL mutates state shared with the replica set: fence it like
	// a write so a deposed primary or an un-promoted backup refuses.
	if hdr.Opcode != protocol.OpVolList {
		if st := s.writeAllowed(hdr.Epoch); st != protocol.StatusOK {
			s.m.staleRejects.Inc()
			resp.Status = st
			rsp.send(&resp, nil, nil)
			return
		}
	}
	var req protocol.VolumeReq
	if hdr.Opcode != protocol.OpVolList {
		if err := req.Unmarshal(payload); err != nil {
			resp.Status = protocol.StatusBadRequest
			rsp.send(&resp, nil, nil)
			return
		}
	}
	switch hdr.Opcode {
	case protocol.OpVolCreate:
		v, err := s.vols.Create(req.Name, req.Blocks)
		resp.Status = volStatus(err)
		if err == nil {
			resp.Handle = v.Handle()
			s.m.volOps.Inc()
			s.m.journal.Record(obsVolEv, s.cfg.NodeName, -1,
				"volume %s created: %d blocks, handle %d", req.Name, req.Blocks, v.Handle())
		}
		rsp.send(&resp, nil, nil)

	case protocol.OpVolDelete:
		freed, err := s.vols.Delete(req.Name, req.Gen)
		resp.Status = volStatus(err)
		resp.Count = uint32(freed)
		if err == nil {
			s.m.volOps.Inc()
			// Reclaimed thin extents are dead flash: pass the discard down
			// so a trim-capable device drops them from its erase units.
			s.m.journal.Record(obsVolEv, s.cfg.NodeName, -1,
				"volume %s gen %d deleted: %d extents freed", req.Name, req.Gen, freed)
		}
		rsp.send(&resp, nil, nil)

	case protocol.OpVolSnapshot:
		gen, err := s.vols.Snapshot(req.Name)
		resp.Status = volStatus(err)
		// Generations are 64-bit: they ride the payload, not the 32-bit
		// Header.LBA, so they can never silently wrap on the wire.
		var pay []byte
		if err == nil {
			pay = protocol.MarshalGen(gen)
			s.m.volOps.Inc()
			s.m.journal.Record(obsVolEv, s.cfg.NodeName, -1,
				"volume %s snapshotted at gen %d", req.Name, gen)
		}
		rsp.send(&resp, pay, nil)

	case protocol.OpVolClone:
		v, err := s.vols.Clone(req.Source, req.Gen, req.Name)
		resp.Status = volStatus(err)
		if err == nil {
			resp.Handle = v.Handle()
			s.m.volOps.Inc()
			s.m.journal.Record(obsVolEv, s.cfg.NodeName, -1,
				"volume %s cloned from %s@%d, handle %d", req.Name, req.Source, req.Gen, v.Handle())
		}
		rsp.send(&resp, nil, nil)

	case protocol.OpVolDiff:
		v, ok := s.vols.Get(req.Name)
		if !ok {
			resp.Status = protocol.StatusNoTenant
			rsp.send(&resp, nil, nil)
			return
		}
		genB := req.GenB
		if genB == 0 {
			genB = v.Gen()
		}
		exts, err := v.Diff(req.GenA, genB)
		if err != nil {
			resp.Status = volStatus(err)
			rsp.send(&resp, nil, nil)
			return
		}
		d := protocol.VolDiff{Gen: genB, ExtentBlocks: v.ExtentBlocks(), Extents: exts}
		resp.Count = uint32(len(exts))
		rsp.send(&resp, d.Marshal(), nil)

	case protocol.OpVolList:
		infos := s.vols.List()
		var b []byte
		for _, in := range infos {
			vi := protocol.VolumeInfo{
				Name:         in.Name,
				Handle:       in.Handle,
				Blocks:       in.Blocks,
				Gen:          in.Gen,
				Extents:      in.Extents,
				ExtentBlocks: s.vols.ExtentBlocks(),
				Snaps:        in.Snaps,
			}
			b = vi.AppendMarshal(b)
		}
		resp.Count = uint32(len(infos))
		rsp.send(&resp, b, nil)
	}
}

// obsVolEv is the journal event class for volume operations.
const obsVolEv = obs.EvVolume

// handleVolStream starts a snapshot-diff stream on this connection: the
// OK response (Count = extents, LBA = resolved upper generation) goes
// first in the connection FIFO, then the stream goroutine ships each
// diff extent as self-paced OpVolStream chunks, ending with the
// zero-length marker. One stream per connection at a time.
func (s *Server) handleVolStream(rsp responder, hdr *protocol.Header, payload []byte) {
	resp := protocol.Header{
		Opcode: protocol.OpVolStream,
		Flags:  protocol.FlagResponse,
		Handle: hdr.Handle,
		Cookie: hdr.Cookie,
	}
	sc, isTCP := rsp.(*srvConn)
	var req protocol.VolumeReq
	if s.vols == nil || !isTCP || req.Unmarshal(payload) != nil {
		resp.Status = protocol.StatusBadRequest
		rsp.send(&resp, nil, nil)
		return
	}
	v, ok := s.vols.Get(req.Name)
	if !ok {
		resp.Status = protocol.StatusNoTenant
		rsp.send(&resp, nil, nil)
		return
	}
	genB := req.GenB
	if genB == 0 {
		genB = v.Gen()
	}
	exts, err := v.Diff(req.GenA, genB)
	if err != nil {
		resp.Status = volStatus(err)
		rsp.send(&resp, nil, nil)
		return
	}
	extBytes := int64(v.ExtentBlocks()) * protocol.BlockSize
	logical := v.LogicalBytes()
	ranges := make([]cluster.StreamRange, 0, len(exts))
	for _, e := range exts {
		// Coalesce adjacent extents into one range so chunking is not
		// bounded by the extent size. The tail extent of a volume whose
		// size is not an extent multiple is clamped to the logical size:
		// ReadAtGen refuses reads past LogicalBytes, so an unclamped
		// range would abort the stream mid-flight.
		off := int64(e) * extBytes
		l := extBytes
		if off+l > logical {
			l = logical - off
		}
		if l <= 0 {
			continue
		}
		if n := len(ranges); n > 0 && ranges[n-1].Off+ranges[n-1].Len == off {
			ranges[n-1].Len += l
			continue
		}
		ranges = append(ranges, cluster.StreamRange{Off: off, Len: l})
	}
	// One *running* stream per connection, and no stream on a connection
	// that carries a replication session. A finished stream still in the
	// slot (the receiver reads the end marker before the sender goroutine
	// unwinds) counts as free. Only this connection's reader attaches, so
	// check-then-attach cannot lose to another attach.
	sc.amu.Lock()
	prev, isStream := sc.att.(*cluster.Stream)
	busy := sc.att != nil && !(isStream && prev.Done())
	sc.amu.Unlock()
	if busy {
		resp.Status = protocol.StatusBadRequest
		rsp.send(&resp, nil, nil)
		return
	}
	vs := cluster.NewStream(cluster.StreamConfig{
		Op:     protocol.OpVolStream,
		Handle: hdr.Handle,
		Epoch:  s.ClusterEpoch,
		ReadAt: func(p []byte, off int64) error { return v.ReadAtGen(p, off, genB) },
		Sender: sc,
		OnChunk: func(n int) {
			s.m.volStreamBytes.Add(uint64(n))
		},
	})
	sc.attach(vs)
	resp.Count = uint32(len(exts))
	// FIFO: the receiver reads this OK (payload = resolved generation,
	// 64-bit so it rides the payload) before the first chunk.
	rsp.send(&resp, protocol.MarshalGen(genB), nil)
	s.m.volOps.Inc()
	s.m.journal.Record(obsVolEv, s.cfg.NodeName, -1,
		"volume %s diff stream (%d,%d]: %d extents", req.Name, req.GenA, genB, len(exts))
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		vs.Run(ranges)
	}()
}

// handleTrim serves OpTrim (discard): volume-bound tenants free the
// fully covered thin extents (chain-inherited data becomes an explicit
// hole); raw tenants get an advisory no-op OK — the real backends have
// no discard primitive, and the flash simulator's trim accounting rides
// reflex-calibrate, not this path. Inline like the other metadata ops:
// a trim moves no payload and frees extents under short locks.
func (s *Server) handleTrim(rsp responder, hdr *protocol.Header) {
	resp := protocol.Header{
		Opcode: protocol.OpTrim,
		Flags:  protocol.FlagResponse,
		Handle: hdr.Handle,
		Cookie: hdr.Cookie,
		LBA:    hdr.LBA,
	}
	// A trim mutates the extent map: fence it like a write.
	if st := s.writeAllowed(hdr.Epoch); st != protocol.StatusOK {
		s.m.staleRejects.Inc()
		resp.Status = st
		rsp.send(&resp, nil, nil)
		return
	}
	ten, ok := s.lookup(hdr.Handle)
	if !ok {
		resp.Status = protocol.StatusNoTenant
		rsp.send(&resp, nil, nil)
		return
	}
	aclSize := s.devices[ten.device].backend.Size()
	if ten.vol != nil {
		aclSize = ten.vol.LogicalBytes()
	}
	if st := checkACL(&ten.reg, hdr, aclSize); st != protocol.StatusOK {
		resp.Status = st
		rsp.send(&resp, nil, nil)
		return
	}
	if ten.vol != nil {
		freed := ten.vol.Trim(int64(hdr.LBA)*protocol.BlockSize, int64(hdr.Count))
		resp.Count = uint32(freed)
	}
	s.m.trims.Inc()
	rsp.send(&resp, nil, nil)
}
