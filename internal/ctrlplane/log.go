package ctrlplane

import (
	"fmt"

	"github.com/reflex-go/reflex/internal/protocol"
)

// EntryKind classifies one replicated-log entry. Map-carrying kinds
// mirror shard.EditKind one for one; Noop and Config are control-plane
// internal.
type EntryKind uint8

const (
	// EntryNoop is the term-opening entry a new leader appends to commit
	// its predecessors' tail (the Raft no-op barrier: a leader may only
	// count replicas toward commit for entries of its own term).
	EntryNoop EntryKind = iota
	// EntrySeed is the initial placement map from the first leader.
	EntrySeed
	// EntryState is a membership-state annotation riding on the map.
	EntryState
	// EntryReassign moved a dead node's shards to ring successors.
	EntryReassign
	// EntryMovePrepare opened a MoveShard dual-ownership window.
	EntryMovePrepare
	// EntryMoveCutover made the move destination authoritative.
	EntryMoveCutover
	// EntryMoveRollback cleared a failed move's window.
	EntryMoveRollback
	// EntryMoveDone cleared the in-flight move record (no map change).
	EntryMoveDone
	// EntryConfig removes a dead replica from the peer set (autopilot;
	// Src is the action — only "remove" today — and Dest the peer).
	EntryConfig
)

// String names the entry kind (journal detail lines).
func (k EntryKind) String() string {
	switch k {
	case EntryNoop:
		return "noop"
	case EntrySeed:
		return "seed"
	case EntryState:
		return "state"
	case EntryReassign:
		return "reassign"
	case EntryMovePrepare:
		return "move-prepare"
	case EntryMoveCutover:
		return "move-cutover"
	case EntryMoveRollback:
		return "move-rollback"
	case EntryMoveDone:
		return "move-done"
	case EntryConfig:
		return "config"
	default:
		return fmt.Sprintf("entry(%d)", uint8(k))
	}
}

// Entry is one replicated-log record: a coordinator edit() product plus
// the log position stamped by the leader that appended it.
type Entry struct {
	Index uint64
	Term  uint64
	Kind  EntryKind
	// Shard is the shard the entry concerns (-1 when not shard-scoped).
	Shard int32
	// Src/Dest name the nodes involved (move source/destination, the
	// membership-verdict node, or the removed peer for EntryConfig).
	Src, Dest string
	// Map is the marshaled shard.Map this entry installs (nil for Noop,
	// MoveDone and Config).
	Map []byte
	// Detail is the human-readable specifics (journal passthrough).
	Detail string
}

func (e *Entry) marshal(b []byte) []byte {
	b = protocol.AppendU64(b, e.Index)
	b = protocol.AppendU64(b, e.Term)
	b = protocol.AppendU8(b, uint8(e.Kind))
	b = protocol.AppendU32(b, uint32(e.Shard))
	b = protocol.AppendStr(b, e.Src)
	b = protocol.AppendStr(b, e.Dest)
	b = protocol.AppendBytes(b, e.Map)
	return protocol.AppendStr(b, e.Detail)
}

func parseEntry(r *protocol.Cursor) Entry {
	return Entry{
		Index:  r.U64(),
		Term:   r.U64(),
		Kind:   EntryKind(r.U8()),
		Shard:  int32(r.U32()),
		Src:    r.Str(),
		Dest:   r.Str(),
		Map:    r.Bytes(),
		Detail: r.Str(),
	}
}

// raftLog is the in-memory replicated log with a compaction base:
// entries[i].Index == base+1+i, and everything at or before base is
// covered by the snapshot state held alongside (node.snapState).
type raftLog struct {
	base     uint64 // index the snapshot covers through (0 = none)
	baseTerm uint64
	entries  []Entry
}

func (l *raftLog) lastIndex() uint64 {
	return l.base + uint64(len(l.entries))
}

func (l *raftLog) lastTerm() uint64 {
	if n := len(l.entries); n > 0 {
		return l.entries[n-1].Term
	}
	return l.baseTerm
}

// termAt returns the term of the entry at index i; ok is false when i
// is beyond the log or already compacted away (i < base).
func (l *raftLog) termAt(i uint64) (uint64, bool) {
	if i == l.base {
		return l.baseTerm, true
	}
	if i < l.base || i > l.lastIndex() {
		return 0, false
	}
	return l.entries[i-l.base-1].Term, true
}

// at returns the entry at index i (nil when compacted or out of range).
func (l *raftLog) at(i uint64) *Entry {
	if i <= l.base || i > l.lastIndex() {
		return nil
	}
	return &l.entries[i-l.base-1]
}

// slice returns up to max entries starting at index from (copies — the
// caller serializes them outside the node lock).
func (l *raftLog) slice(from uint64, max int) []Entry {
	if from <= l.base {
		return nil
	}
	if from > l.lastIndex() {
		return nil
	}
	s := l.entries[from-l.base-1:]
	if len(s) > max {
		s = s[:max]
	}
	return append([]Entry(nil), s...)
}

// append adds e at the tail (the caller stamps Index/Term).
func (l *raftLog) append(e Entry) {
	l.entries = append(l.entries, e)
}

// truncateFrom drops every entry at index i and beyond (conflicting
// suffix from a deposed leader).
func (l *raftLog) truncateFrom(i uint64) {
	if i <= l.base {
		l.entries = nil
		return
	}
	if i > l.lastIndex() {
		return
	}
	l.entries = l.entries[:i-l.base-1]
}

// compactTo drops every entry through index i, which becomes the new
// snapshot base with term t.
func (l *raftLog) compactTo(i, t uint64) {
	if i <= l.base {
		return
	}
	if i >= l.lastIndex() {
		l.entries = nil
	} else {
		tail := l.entries[i-l.base:]
		l.entries = append([]Entry(nil), tail...)
	}
	l.base, l.baseTerm = i, t
}

// reset replaces the whole log with an installed snapshot's position.
func (l *raftLog) reset(i, t uint64) {
	l.base, l.baseTerm, l.entries = i, t, nil
}
