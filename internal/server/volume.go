package server

import (
	"github.com/reflex-go/reflex/internal/cluster"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/volume"
)

// Volume control plane (DESIGN.md §18): the OpVol* opcodes are rare
// management operations run on the control goroutine while their
// connection waits — they never touch the QoS scheduler and never hold up
// a core. The diff stream is the only long-running piece and it runs on
// its own goroutine, self-paced by receiver acks so it stays best-effort.

// volStatus maps volume-manager failures onto wire statuses.
func volStatus(err error) protocol.Status {
	switch err {
	case nil:
		return protocol.StatusOK
	case volume.ErrNoSpace:
		return protocol.StatusNoCapacity
	case volume.ErrNotFound:
		return protocol.StatusNoTenant
	}
	return protocol.StatusBadRequest
}

// volEvent counts a volume lifecycle operation and journals it.
func (s *Server) volEvent(format string, args ...any) {
	s.m.volOps.Inc()
	s.m.journal.Record(obs.EvVolume, s.cfg.NodeName, -1, format, args...)
}

// handleVolOp serves the volume-management opcodes.
func (s *Server) handleVolOp(rsp responder, hdr *protocol.Header, payload []byte) {
	resp := protocol.Header{Opcode: hdr.Opcode, Flags: protocol.FlagResponse, Cookie: hdr.Cookie}
	var pay []byte
	defer func() { rsp.send(nil, resp, pay, nil) }()
	var req protocol.VolumeReq
	if s.vols == nil {
		resp.Status = protocol.StatusBadRequest
		return
	}
	if hdr.Opcode != protocol.OpVolList {
		// Volume DDL mutates state shared with the replica set: fence it
		// like a write so a deposed primary or an un-promoted backup refuses.
		if resp.Status = s.writeAllowed(hdr.Epoch); resp.Status != protocol.StatusOK {
			s.m.staleRejects.Inc()
			return
		}
		if req.Unmarshal(payload) != nil {
			resp.Status = protocol.StatusBadRequest
			return
		}
	}
	var err error
	switch hdr.Opcode {
	case protocol.OpVolCreate:
		var v *volume.Volume
		if v, err = s.vols.Create(req.Name, req.Blocks); err == nil {
			resp.Handle = v.Handle()
			s.volEvent("volume %s created: %d blocks, handle %d", req.Name, req.Blocks, v.Handle())
		}

	case protocol.OpVolDelete:
		var freed int
		freed, err = s.vols.Delete(req.Name, req.Gen)
		resp.Count = uint32(freed)
		if err == nil {
			s.volEvent("volume %s gen %d deleted: %d extents freed", req.Name, req.Gen, freed)
		}

	case protocol.OpVolSnapshot:
		var gen uint64
		if gen, err = s.vols.Snapshot(req.Name); err == nil {
			// Generations are 64-bit: they ride the payload, not the 32-bit
			// Header.LBA, so they can never silently wrap on the wire.
			pay = protocol.MarshalGen(gen)
			s.volEvent("volume %s snapshotted at gen %d", req.Name, gen)
		}

	case protocol.OpVolClone:
		var v *volume.Volume
		if v, err = s.vols.Clone(req.Source, req.Gen, req.Name); err == nil {
			resp.Handle = v.Handle()
			s.volEvent("volume %s cloned from %s@%d, handle %d", req.Name, req.Source, req.Gen, v.Handle())
		}

	case protocol.OpVolDiff:
		var d protocol.VolDiff
		if _, d, err = s.volDiff(&req); err == nil {
			resp.Count = uint32(len(d.Extents))
			pay = d.Marshal()
		}

	case protocol.OpVolList:
		infos := s.vols.List()
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
			pay = vi.AppendMarshal(pay)
		}
		resp.Count = uint32(len(infos))
	}
	resp.Status = volStatus(err)
}

// volDiff resolves a diff request: the extents written in (GenA, GenB],
// GenB 0 meaning the live generation.
func (s *Server) volDiff(req *protocol.VolumeReq) (*volume.Volume, protocol.VolDiff, error) {
	v, ok := s.vols.Get(req.Name)
	if !ok {
		return nil, protocol.VolDiff{}, volume.ErrNotFound
	}
	d := protocol.VolDiff{Gen: req.GenB, ExtentBlocks: v.ExtentBlocks()}
	if d.Gen == 0 {
		d.Gen = v.Gen()
	}
	var err error
	d.Extents, err = v.Diff(req.GenA, d.Gen)
	return v, d, err
}

// handleVolStream starts a snapshot-diff stream on this connection: the
// OK response (Count = extents, payload = resolved upper generation) goes
// first in the connection's outbox, then the stream goroutine ships each
// diff extent as self-paced OpVolStream chunks, ending with the
// zero-length marker. One stream per connection at a time.
func (s *Server) handleVolStream(rsp responder, hdr *protocol.Header, payload []byte) {
	resp := protocol.Header{Opcode: protocol.OpVolStream, Flags: protocol.FlagResponse, Handle: hdr.Handle, Cookie: hdr.Cookie}
	sc, isTCP := rsp.(*srvConn)
	var req protocol.VolumeReq
	if s.vols == nil || !isTCP || req.Unmarshal(payload) != nil {
		reject(nil, rsp, hdr, protocol.StatusBadRequest)
		return
	}
	v, d, err := s.volDiff(&req)
	if err != nil {
		reject(nil, rsp, hdr, volStatus(err))
		return
	}
	extBytes := int64(v.ExtentBlocks()) * protocol.BlockSize
	logical := v.LogicalBytes()
	ranges := make([]cluster.StreamRange, 0, len(d.Extents))
	for _, e := range d.Extents {
		// Coalesce adjacent extents into one range so chunking is not
		// bounded by the extent size. The tail extent of a volume whose
		// size is not an extent multiple is clamped to the logical size:
		// ReadAtGen refuses reads past LogicalBytes, so an unclamped
		// range would abort the stream mid-flight.
		off := int64(e) * extBytes
		l := min(extBytes, logical-off)
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
	// unwinds) counts as free. Only the control goroutine attaches streams,
	// so check-then-attach cannot lose to another attach.
	sc.amu.Lock()
	prev, isStream := sc.att.(*cluster.Stream)
	busy := sc.att != nil && !(isStream && prev.Done())
	sc.amu.Unlock()
	if busy {
		reject(nil, rsp, hdr, protocol.StatusBadRequest)
		return
	}
	vs := cluster.NewStream(cluster.StreamConfig{
		Op:      protocol.OpVolStream,
		Handle:  hdr.Handle,
		Epoch:   s.ClusterEpoch,
		ReadAt:  func(p []byte, off int64) error { return v.ReadAtGen(p, off, d.Gen) },
		Sender:  sc,
		OnChunk: func(n int) { s.m.volStreamBytes.Add(uint64(n)) },
	})
	sc.attach(vs)
	resp.Count = uint32(len(d.Extents))
	rsp.send(nil, resp, protocol.MarshalGen(d.Gen), nil)
	s.volEvent("volume %s diff stream (%d,%d]: %d extents", req.Name, req.GenA, d.Gen, len(d.Extents))
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
// reflex-calibrate, not this path. Inline on the core: a trim moves no
// payload and frees extents under short locks.
func (s *Server) handleTrim(pc *pcore, rsp responder, hdr *protocol.Header) {
	// A trim mutates the extent map: fence it like a write.
	if st := s.writeAllowed(hdr.Epoch); st != protocol.StatusOK {
		s.m.staleRejects.Inc()
		reject(pc, rsp, hdr, st)
		return
	}
	ten, ok := s.lookup(hdr.Handle)
	if !ok {
		reject(pc, rsp, hdr, protocol.StatusNoTenant)
		return
	}
	if st := checkACL(&ten.reg, hdr, s.aclSize(ten)); st != protocol.StatusOK {
		reject(pc, rsp, hdr, st)
		return
	}
	resp := protocol.Header{Opcode: protocol.OpTrim, Flags: protocol.FlagResponse, Handle: hdr.Handle, Cookie: hdr.Cookie, LBA: hdr.LBA}
	if ten.vol != nil {
		resp.Count = uint32(ten.vol.Trim(int64(hdr.LBA)*protocol.BlockSize, int64(hdr.Count)))
	}
	s.m.trims.Inc()
	rsp.send(pc, resp, nil, nil)
}
