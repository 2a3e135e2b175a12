package ctrlplane

import (
	"encoding/binary"

	"github.com/reflex-go/reflex/internal/protocol"
)

// MoveState is the replicated record of an in-flight MoveShard: enough
// for a follower that wins the lease to resume or roll back the move.
type MoveState struct {
	Shard     int32
	Src, Dest string
	// Phase is how far the move's commits got: MovePhasePrepare (window
	// committed) or MovePhaseCutover (destination authoritative).
	Phase uint8
}

// Move phases (mirrors shard.MovePhase values).
const (
	MovePhasePrepare uint8 = 1
	MovePhaseCutover uint8 = 2
)

// State is the replicated state machine: the latest committed shard
// map, the in-flight move (nil when none) and the replica set. It is
// deliberately tiny — snapshots ship it whole in one frame.
type State struct {
	// MapRaw is the latest committed shard map, marshaled (shard.Map
	// wire format; its first 4 bytes are the version). Nil before the
	// first seed commit.
	MapRaw []byte
	// Move is the in-flight MoveShard record (nil when none).
	Move *MoveState
	// Peers is the committed replica set (autopilot edits it).
	Peers []string
}

// NewState builds the genesis state over the configured peer set.
func NewState(peers []string) *State {
	return &State{Peers: append([]string(nil), peers...)}
}

// Clone deep-copies the state (compaction snapshots).
func (s *State) Clone() *State {
	c := &State{
		MapRaw: append([]byte(nil), s.MapRaw...),
		Peers:  append([]string(nil), s.Peers...),
	}
	if s.Move != nil {
		mv := *s.Move
		c.Move = &mv
	}
	return c
}

// MapVersion returns the committed map's version (0 when none). The
// shard map wire format leads with its u32 version, so no full
// unmarshal is needed.
func (s *State) MapVersion() uint32 {
	if len(s.MapRaw) < 4 {
		return 0
	}
	return binary.BigEndian.Uint32(s.MapRaw)
}

// Apply advances the state machine by one committed entry. Map adoption
// is iff-newer — the same fencing rule the data-plane servers enforce —
// so replaying a log with interleaved stale entries (possible across
// leader changes) converges to the newest committed map.
func (s *State) Apply(e *Entry) {
	if len(e.Map) >= 4 {
		if v := binary.BigEndian.Uint32(e.Map); v > s.MapVersion() {
			s.MapRaw = append([]byte(nil), e.Map...)
		}
	}
	switch e.Kind {
	case EntryMovePrepare:
		s.Move = &MoveState{Shard: e.Shard, Src: e.Src, Dest: e.Dest, Phase: MovePhasePrepare}
	case EntryMoveCutover:
		s.Move = &MoveState{Shard: e.Shard, Src: e.Src, Dest: e.Dest, Phase: MovePhaseCutover}
	case EntryMoveDone, EntryMoveRollback:
		s.Move = nil
	case EntryConfig:
		if e.Src == "remove" {
			peers := s.Peers[:0:0]
			for _, p := range s.Peers {
				if p != e.Dest {
					peers = append(peers, p)
				}
			}
			s.Peers = peers
		}
	}
}

// marshalState packs the state for an OpCtrlSnapshot frame.
func marshalState(s *State) []byte {
	b := protocol.AppendBytes(nil, s.MapRaw)
	if s.Move != nil {
		b = protocol.AppendU8(b, 1)
		b = protocol.AppendU32(b, uint32(s.Move.Shard))
		b = protocol.AppendU8(b, s.Move.Phase)
		b = protocol.AppendStr(b, s.Move.Src)
		b = protocol.AppendStr(b, s.Move.Dest)
	} else {
		b = protocol.AppendU8(b, 0)
	}
	b = protocol.AppendU16(b, uint16(len(s.Peers)))
	for _, p := range s.Peers {
		b = protocol.AppendStr(b, p)
	}
	return b
}

// parseState unpacks an OpCtrlSnapshot frame's state.
func parseState(p []byte) (*State, error) {
	r := protocol.NewCursor(p, "ctrlplane: snapshot state")
	s := &State{MapRaw: r.Bytes()}
	if r.U8() != 0 {
		s.Move = &MoveState{Shard: int32(r.U32()), Phase: r.U8(), Src: r.Str(), Dest: r.Str()}
	}
	n := int(r.U16())
	for i := 0; i < n && r.Err() == nil; i++ {
		s.Peers = append(s.Peers, r.Str())
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return s, nil
}
