package server

import (
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/shard"
)

// Server-side sharding surface (DESIGN.md §13): the node installs the
// coordinator's versioned shard map over OpShardMap, serves it back to
// anyone who fetches it, and enforces it on the I/O path — a request for
// an LBA range this node does not own (neither authoritatively nor as a
// migration destination) is refused with StatusWrongShard carrying the
// node's map version in Count, which is the client router's refetch
// signal.

// ShardMap returns the installed shard map, or nil before the first
// install (enforcement disabled).
func (s *Server) ShardMap() *shard.Map {
	m, _ := s.shardMap.Load().(*shard.Map)
	return m
}

// ShardMapVersion returns the installed map's version (0 = none).
func (s *Server) ShardMapVersion() uint32 {
	if m := s.ShardMap(); m != nil {
		return m.Version
	}
	return 0
}

// InstallShardMap adopts m iff it is newer than the installed map,
// returning the resulting version. An older or equal offer returns the
// current version with StatusStaleEpoch — the installer learns it raced
// a newer map and must refetch. Serialized on cmu with role/epoch moves
// so a map install cannot interleave a promotion half-way.
func (s *Server) InstallShardMap(m *shard.Map) (uint32, protocol.Status) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	cur := s.ShardMap()
	if cur != nil && m.Version <= cur.Version {
		return cur.Version, protocol.StatusStaleEpoch
	}
	s.shardMap.Store(m)
	s.m.shardInstalls.Inc()
	moves := m.DiffMoves(cur)
	s.m.shardMoves.Add(uint64(moves))
	if moves > 0 && s.cache != nil {
		// Ownership changed: blocks this node cached may now be written
		// by their new owner without passing through our invalidation
		// path. Dropping everything is coarse but the only safe fence —
		// admission will re-fill the genuinely hot residue.
		s.cache.FlushAll()
	}
	s.m.ensureShardSlots(len(m.Assign))
	s.m.journal.Record(obs.EvMapInstall, s.cfg.NodeName, -1,
		"shard map v%d installed (%d shards, %d moved)", m.Version, len(m.Assign), moves)
	return m.Version, protocol.StatusOK
}

// checkShard gates an I/O by the installed shard map. Nodes without a
// NodeName (pre-sharding deployments) and nodes without an installed map
// own everything. Migration destinations own the ranges they are
// migrating into (Map.Migrating), which is what lets the sink relay
// catch-up chunks and live forwards as ordinary writes before the
// authoritative cutover.
func (s *Server) checkShard(hdr *protocol.Header) bool {
	if s.cfg.NodeName == "" {
		return true
	}
	m := s.ShardMap()
	if m == nil {
		return true
	}
	blocks := (hdr.Count + protocol.BlockSize - 1) / protocol.BlockSize
	return m.OwnedBy(s.cfg.NodeName, uint64(hdr.LBA), blocks)
}

// shardIndex maps a request header to its shard index under the
// installed map, or -1 when sharding is off (no NodeName / no map) —
// the per-shard request counters only exist on sharded deployments.
func (s *Server) shardIndex(hdr *protocol.Header) int {
	if s.cfg.NodeName == "" {
		return -1
	}
	m := s.ShardMap()
	if m == nil {
		return -1
	}
	return m.Shard(uint64(hdr.LBA))
}

// rejectWrongShard refuses an I/O for a range this node does not own.
// The response carries the node's map version in Count so the client can
// tell whether refetching the map will actually help (its map is older)
// or whether it raced an in-flight install (versions equal — retry after
// the router's refresh).
func (s *Server) rejectWrongShard(rsp responder, m *protocol.Message) {
	hdr := &m.Header
	s.m.wrongShard.Inc()
	if m.TraceID != 0 {
		// Record the bounce so the stitched timeline shows the extra hop
		// a stale client map cost this request.
		now := s.now()
		sp := obs.Span{
			ID:     s.m.spanID(),
			Trace:  m.TraceID,
			Parent: m.ParentSpan,
			Node:   s.cfg.NodeName,
			Hop:    obs.HopRedirect,
			Write:  hdr.Opcode == protocol.OpWrite,
			Size:   int(hdr.Count),
		}
		sp.Mark(obs.StageArrival, now)
		sp.Mark(obs.StageTx, now)
		s.m.ring.Push(sp)
	}
	rsp.send(&protocol.Header{
		Opcode: hdr.Opcode,
		Flags:  protocol.FlagResponse,
		Handle: hdr.Handle,
		Cookie: hdr.Cookie,
		LBA:    hdr.LBA,
		Count:  s.ShardMapVersion(),
		Status: protocol.StatusWrongShard,
	}, nil, nil)
}

// handleShardMap serves OpShardMap: an empty payload fetches (response
// payload = marshaled map, LBA = version, both zero when no map is
// installed); a non-empty payload installs.
func (s *Server) handleShardMap(rsp responder, hdr *protocol.Header, payload []byte) {
	resp := protocol.Header{
		Opcode: protocol.OpShardMap,
		Flags:  protocol.FlagResponse,
		Cookie: hdr.Cookie,
		Epoch:  s.ClusterEpoch(),
	}
	if len(payload) == 0 {
		var body []byte
		if cur := s.ShardMap(); cur != nil {
			resp.LBA = cur.Version
			body = cur.Marshal()
		}
		rsp.send(&resp, body, nil)
		return
	}
	nm, err := shard.Unmarshal(payload)
	if err != nil {
		resp.Status = protocol.StatusBadRequest
		rsp.send(&resp, nil, nil)
		return
	}
	resp.LBA, resp.Status = s.InstallShardMap(nm)
	rsp.send(&resp, nil, nil)
}

// joinMigration attaches sc as a ranged migration sink on the migration
// replicator: catch-up for [firstLBA, firstLBA+blockCount) followed by
// the live forward stream for writes intersecting the window, closed out
// by the catch-up marker frame.
func (s *Server) joinMigration(sc *srvConn, firstLBA, blockCount uint32) {
	sc.attach(s.migr.AttachRange(sc, firstLBA, blockCount).(attachment))
	s.m.migrJoins.Inc()
}
