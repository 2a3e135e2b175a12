package shard

import (
	"encoding/binary"
	"fmt"

	"github.com/reflex-go/reflex/internal/protocol"
)

// MemberState is the SWIM-lite health state of a node as seen by the
// coordinator (and disseminated to everyone through the shard map).
type MemberState uint8

const (
	// StateAlive: the node answered its most recent probe.
	StateAlive MemberState = iota
	// StateSuspect: the node missed one probe window; traffic still routes
	// to it but the membership layer is watching.
	StateSuspect
	// StateDead: the node missed SuspectLimit consecutive probes; the
	// coordinator has (or is about to have) reassigned its shards.
	StateDead
)

func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Unassigned marks a shard with no owner in Map.Assign / Map.Migrating.
const Unassigned = int32(-1)

// maxNodes bounds the node list in a marshaled map (fits the u16 node
// count; in practice clusters are a handful of pairs).
const maxNodes = 1024

// Node is one replica pair in the cluster: a logical name plus the
// dial addresses of its members (primary first by convention — clients
// hand the whole slice to DialCluster, which sorts out roles itself).
type Node struct {
	Name  string
	Addrs []string
	State MemberState
}

// Map is the versioned, immutable routing table: which node owns which
// contiguous LBA range ("shard"). A Map is never mutated after
// construction/unmarshal — updates produce a new Map with Version+1 and
// are installed over protocol.OpShardMap. Servers enforce it
// (StatusWrongShard for out-of-range I/O), clients cache it and route by
// it.
//
// Assign[s] is the authoritative owner of shard s. Migrating[s], when
// not Unassigned, is a secondary owner that also accepts I/O for the
// shard — this is the dual-ownership window that makes live migration
// lossless: the destination is added to Migrating in version v, traffic
// drains over, and version v+1 flips Assign and clears Migrating.
type Map struct {
	Version     uint32
	ShardBlocks uint32 // LBA blocks per shard (contiguous range size)
	Nodes       []Node
	Assign      []int32 // per-shard authoritative owner (index into Nodes)
	Migrating   []int32 // per-shard secondary owner, Unassigned if none
}

// NumShards returns the shard count.
func (m *Map) NumShards() int { return len(m.Assign) }

// Shard maps an LBA to its shard index, or -1 if the LBA is beyond the
// mapped space.
func (m *Map) Shard(lba uint64) int {
	if m.ShardBlocks == 0 {
		return -1
	}
	s := lba / uint64(m.ShardBlocks)
	if s >= uint64(len(m.Assign)) {
		return -1
	}
	return int(s)
}

// Owner returns the index into Nodes of the authoritative owner of lba,
// or -1 if unmapped.
func (m *Map) Owner(lba uint64) int {
	s := m.Shard(lba)
	if s < 0 {
		return -1
	}
	o := m.Assign[s]
	if o < 0 || int(o) >= len(m.Nodes) {
		return -1
	}
	return int(o)
}

// NodeIndex returns the index of the node with the given name, or -1.
func (m *Map) NodeIndex(name string) int {
	for i := range m.Nodes {
		if m.Nodes[i].Name == name {
			return i
		}
	}
	return -1
}

// OwnedBy reports whether the request window [lba, lba+count) falls
// entirely inside shards owned by the named node — either
// authoritatively (Assign) or as a migration destination (Migrating).
// A request spanning a shard boundary into foreign territory is NOT
// owned; the client must split or refetch. An empty map (no shards)
// owns everything: sharding disabled.
func (m *Map) OwnedBy(name string, lba uint64, count uint32) bool {
	if m == nil || len(m.Assign) == 0 {
		return true
	}
	ni := m.NodeIndex(name)
	if ni < 0 {
		return false
	}
	return m.ownedByIndex(ni, lba, count)
}

func (m *Map) ownedByIndex(ni int, lba uint64, count uint32) bool {
	end := lba
	if count > 0 {
		end = lba + uint64(count) - 1
	}
	first := m.Shard(lba)
	last := m.Shard(end)
	if first < 0 || last < 0 {
		return false
	}
	for s := first; s <= last; s++ {
		if int(m.Assign[s]) != ni && int(m.Migrating[s]) != ni {
			return false
		}
	}
	return true
}

// OwnerAddrs returns the dial addresses of the authoritative owner of
// lba, or nil if unmapped.
func (m *Map) OwnerAddrs(lba uint64) []string {
	o := m.Owner(lba)
	if o < 0 {
		return nil
	}
	return m.Nodes[o].Addrs
}

// Clone returns a deep copy with Version+1 — the starting point for the
// coordinator's next edit. The receiver is never mutated.
func (m *Map) Clone() *Map {
	n := &Map{
		Version:     m.Version + 1,
		ShardBlocks: m.ShardBlocks,
		Nodes:       make([]Node, len(m.Nodes)),
		Assign:      append([]int32(nil), m.Assign...),
		Migrating:   append([]int32(nil), m.Migrating...),
	}
	for i, nd := range m.Nodes {
		n.Nodes[i] = Node{Name: nd.Name, Addrs: append([]string(nil), nd.Addrs...), State: nd.State}
	}
	return n
}

// DiffMoves counts shards whose authoritative owner differs between m
// and prev — the "blast radius" of a map change, fed into the
// shard_moves metric.
func (m *Map) DiffMoves(prev *Map) int {
	if prev == nil {
		return 0
	}
	n := 0
	for s := 0; s < len(m.Assign) && s < len(prev.Assign); s++ {
		if m.Assign[s] != prev.Assign[s] {
			n++
		}
	}
	return n
}

// Wire format (big-endian):
//
//	u32 version
//	u32 shardBlocks
//	u16 nodeCount
//	  per node: u8 state, u8 nameLen, name, u8 addrCount,
//	            per addr: u16 addrLen, addr
//	u32 shardCount
//	  per shard: u16 assign (0xFFFF = unassigned), u16 migrating
const noOwner16 = uint16(0xFFFF)

// Marshal serializes the map for an OpShardMap payload.
func (m *Map) Marshal() []byte {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, m.Version)
	b = binary.BigEndian.AppendUint32(b, m.ShardBlocks)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Nodes)))
	for _, nd := range m.Nodes {
		b = append(b, byte(nd.State), byte(len(nd.Name)))
		b = append(b, nd.Name...)
		b = append(b, byte(len(nd.Addrs)))
		for _, a := range nd.Addrs {
			b = binary.BigEndian.AppendUint16(b, uint16(len(a)))
			b = append(b, a...)
		}
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Assign)))
	own := func(v int32) uint16 {
		if v < 0 || v >= int32(len(m.Nodes)) {
			return noOwner16
		}
		return uint16(v)
	}
	for s := range m.Assign {
		b = binary.BigEndian.AppendUint16(b, own(m.Assign[s]))
		b = binary.BigEndian.AppendUint16(b, own(m.Migrating[s]))
	}
	return b
}

// Unmarshal parses a marshaled map. It validates lengths defensively —
// the payload arrives off the wire.
func Unmarshal(b []byte) (*Map, error) {
	rd := protocol.NewCursor(b, "shard: map")
	m := &Map{}
	m.Version = rd.U32()
	m.ShardBlocks = rd.U32()
	nNodes := int(rd.U16())
	if rd.Err() == nil && nNodes > maxNodes {
		return nil, fmt.Errorf("shard: map has %d nodes (max %d)", nNodes, maxNodes)
	}
	for i := 0; i < nNodes && rd.Err() == nil; i++ {
		var nd Node
		nd.State = MemberState(rd.U8())
		nd.Name = string(rd.Take(int(rd.U8())))
		nAddrs := int(rd.U8())
		for a := 0; a < nAddrs && rd.Err() == nil; a++ {
			nd.Addrs = append(nd.Addrs, rd.Str())
		}
		m.Nodes = append(m.Nodes, nd)
	}
	nShards := int(rd.U32())
	if rd.Err() == nil {
		// Each shard costs 4 bytes; bound by what's actually left.
		if nShards < 0 || nShards > rd.Remaining()/4 {
			return nil, fmt.Errorf("shard: map truncated: %d shards, %d bytes left", nShards, rd.Remaining())
		}
	}
	deref := func(v uint16) int32 {
		if v == noOwner16 {
			return Unassigned
		}
		return int32(v)
	}
	for s := 0; s < nShards && rd.Err() == nil; s++ {
		m.Assign = append(m.Assign, deref(rd.U16()))
		m.Migrating = append(m.Migrating, deref(rd.U16()))
	}
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	if rd.Remaining() != 0 {
		return nil, fmt.Errorf("shard: map has %d trailing bytes", rd.Remaining())
	}
	for s := range m.Assign {
		if m.Assign[s] >= int32(len(m.Nodes)) || m.Migrating[s] >= int32(len(m.Nodes)) {
			return nil, fmt.Errorf("shard: shard %d references node beyond the %d listed", s, len(m.Nodes))
		}
	}
	return m, nil
}

// BuildMap constructs a version-1 map placing numShards shards of
// shardBlocks LBA blocks each over the given nodes using a consistent-
// hash ring. Suspect/dead nodes still receive placements — the
// coordinator's job is to move them off; BuildMap is pure placement.
func BuildMap(nodes []Node, numShards int, shardBlocks uint32, vnodes int) *Map {
	names := make([]string, len(nodes))
	for i := range nodes {
		names[i] = nodes[i].Name
	}
	m := &Map{
		Version:     1,
		ShardBlocks: shardBlocks,
		Nodes:       nodes,
		Migrating:   make([]int32, numShards),
	}
	for s := range m.Migrating {
		m.Migrating[s] = Unassigned
	}
	if len(nodes) == 0 {
		m.Assign = make([]int32, numShards)
		for s := range m.Assign {
			m.Assign[s] = Unassigned
		}
		return m
	}
	m.Assign = NewRing(names, vnodes).Assign(numShards)
	return m
}

// Reassign returns a new map (Version+1) with every shard owned by the
// node at index dead moved to its ring successor among the survivors.
// Shards not owned by dead keep their owner — the consistent-hashing
// minimal-disruption property.
func (m *Map) Reassign(dead int, vnodes int) *Map {
	n := m.Clone()
	var names []string
	idx := make([]int32, 0, len(m.Nodes))
	for i := range m.Nodes {
		if i == dead || m.Nodes[i].State == StateDead {
			continue
		}
		names = append(names, m.Nodes[i].Name)
		idx = append(idx, int32(i))
	}
	if dead >= 0 && dead < len(n.Nodes) {
		n.Nodes[dead].State = StateDead
	}
	if len(names) == 0 {
		for s := range n.Assign {
			n.Assign[s] = Unassigned
		}
		return n
	}
	ring := NewRing(names, vnodes)
	for s := range n.Assign {
		if int(n.Assign[s]) == dead {
			n.Assign[s] = idx[ring.Lookup(ShardKey(s))]
		}
		if n.Migrating[s] != Unassigned && int(n.Migrating[s]) == dead {
			n.Migrating[s] = Unassigned
		}
	}
	return n
}
