// Package ctrlplane replicates the shard coordinator's state machine —
// the authoritative shard map, membership verdicts and MoveShard phases
// — across a small set of replicas (3/5) so the control plane survives
// its leader (DESIGN.md §16). The design is Raft-lite, scoped to what
// the coordinator needs:
//
//   - A compact replicated log whose entries are exactly the
//     coordinator's edit() products (shard.EditRecord): map versions,
//     membership verdicts, move phases. The elected leader routes every
//     edit through Propose before swap()/installOn() — a deposed leader's
//     commits fail, so it can never mint a map version (the data-plane
//     servers' adopt-iff-newer install check is the second fence).
//   - A leader lease: the leader may act only while a quorum answered
//     its heartbeat round within LeaseTTL; followers refuse votes while
//     they recently heard a leader. Control-plane unavailability after a
//     leader kill is bounded by LeaseTTL + one election round.
//   - Snapshot install for late joiners: state is tiny (one map + the
//     in-flight move record + the peer set), so compaction snapshots at
//     the commit index and a lagging replica gets the whole state in one
//     OpCtrlSnapshot frame — the single-shot analogue of the data
//     plane's OpJoin catch-up stream.
//   - Autopilot: the leader removes a replica that has not answered for
//     CleanupAfter via a committed config entry, one at a time.
//
// Replicas speak one-shot protocol exchanges (OpCtrlVote, OpCtrlAppend,
// OpCtrlSnapshot) over short-lived TCP connections, the same idiom the
// shard coordinator uses for installs and probes: control traffic is
// rare and the simplicity beats connection pooling. State is in-memory;
// a restarted replica rejoins empty and catches up by snapshot. Because
// term and votedFor are not persisted either, a replica that restarts
// mid-election has forgotten any vote it cast this term — so for its
// first LeaseTTL after boot it refuses ALL votes (the restart
// quarantine, mirroring the lease-stickiness window), which keeps a
// single bounce during a contested election from granting two votes in
// one term and electing two leaders. The deployment assumption, as with
// the data plane's pairs, is that a majority does not restart
// simultaneously — see DESIGN.md §16's failure matrix.
package ctrlplane

import (
	"fmt"

	"github.com/reflex-go/reflex/internal/protocol"
)

// call performs one replica RPC — a protocol.Exchange on a fresh
// connection, bounded by RPCTimeout — and treats a refusal as an error.
func (n *Node) call(peer string, op protocol.Opcode, payload []byte) ([]byte, error) {
	m, err := protocol.Exchange(n.cfg.Dialer, peer, n.cfg.RPCTimeout, &protocol.Header{Opcode: op}, payload)
	if err != nil {
		return nil, err
	}
	if m.Header.Status != protocol.StatusOK {
		return nil, fmt.Errorf("ctrlplane: %s at %s refused: %s", op, peer, m.Header.Status)
	}
	return m.Payload, nil
}

// voteReq/voteResp are the OpCtrlVote payloads.
type voteReq struct {
	Term      uint64
	Candidate string
	LastIndex uint64
	LastTerm  uint64
}

type voteResp struct {
	Term    uint64
	Granted bool
}

func (v *voteReq) marshal() []byte {
	b := protocol.AppendU64(nil, v.Term)
	b = protocol.AppendStr(b, v.Candidate)
	b = protocol.AppendU64(b, v.LastIndex)
	return protocol.AppendU64(b, v.LastTerm)
}

func parseVoteReq(p []byte) (*voteReq, error) {
	r := protocol.NewCursor(p, "ctrlplane: vote request")
	v := &voteReq{Term: r.U64(), Candidate: r.Str(), LastIndex: r.U64(), LastTerm: r.U64()}
	return v, r.Err()
}

func (v *voteResp) marshal() []byte {
	b := protocol.AppendU64(nil, v.Term)
	g := uint8(0)
	if v.Granted {
		g = 1
	}
	return protocol.AppendU8(b, g)
}

func parseVoteResp(p []byte) (*voteResp, error) {
	r := protocol.NewCursor(p, "ctrlplane: vote response")
	v := &voteResp{Term: r.U64(), Granted: r.U8() != 0}
	return v, r.Err()
}

// appendReq/appendResp are the OpCtrlAppend payloads: heartbeat, lease
// renewal and log shipment in one frame.
type appendReq struct {
	Term      uint64
	Leader    string
	PrevIndex uint64
	PrevTerm  uint64
	Commit    uint64
	Entries   []Entry
}

type appendResp struct {
	Term uint64
	OK   bool
	// Match is the highest index known replicated on success; on a log
	// mismatch it is the follower's lastIndex+1 hint for faster backoff.
	Match uint64
}

func (a *appendReq) marshal() []byte {
	b := protocol.AppendU64(nil, a.Term)
	b = protocol.AppendStr(b, a.Leader)
	b = protocol.AppendU64(b, a.PrevIndex)
	b = protocol.AppendU64(b, a.PrevTerm)
	b = protocol.AppendU64(b, a.Commit)
	b = protocol.AppendU16(b, uint16(len(a.Entries)))
	for i := range a.Entries {
		b = a.Entries[i].marshal(b)
	}
	return b
}

func parseAppendReq(p []byte) (*appendReq, error) {
	r := protocol.NewCursor(p, "ctrlplane: append request")
	a := &appendReq{Term: r.U64(), Leader: r.Str(), PrevIndex: r.U64(),
		PrevTerm: r.U64(), Commit: r.U64()}
	n := int(r.U16())
	for i := 0; i < n && r.Err() == nil; i++ {
		a.Entries = append(a.Entries, parseEntry(&r))
	}
	return a, r.Err()
}

func (a *appendResp) marshal() []byte {
	b := protocol.AppendU64(nil, a.Term)
	ok := uint8(0)
	if a.OK {
		ok = 1
	}
	b = protocol.AppendU8(b, ok)
	return protocol.AppendU64(b, a.Match)
}

func parseAppendResp(p []byte) (*appendResp, error) {
	r := protocol.NewCursor(p, "ctrlplane: append response")
	a := &appendResp{Term: r.U64(), OK: r.U8() != 0, Match: r.U64()}
	return a, r.Err()
}

// snapReq/snapResp are the OpCtrlSnapshot payloads: the whole state at
// the leader's compaction base in one frame.
type snapReq struct {
	Term      uint64
	Leader    string
	SnapIndex uint64
	SnapTerm  uint64
	State     []byte // marshaled State
}

type snapResp struct {
	Term uint64
	OK   bool
}

func (s *snapReq) marshal() []byte {
	b := protocol.AppendU64(nil, s.Term)
	b = protocol.AppendStr(b, s.Leader)
	b = protocol.AppendU64(b, s.SnapIndex)
	b = protocol.AppendU64(b, s.SnapTerm)
	return protocol.AppendBytes(b, s.State)
}

func parseSnapReq(p []byte) (*snapReq, error) {
	r := protocol.NewCursor(p, "ctrlplane: snapshot request")
	s := &snapReq{Term: r.U64(), Leader: r.Str(), SnapIndex: r.U64(),
		SnapTerm: r.U64(), State: r.Bytes()}
	return s, r.Err()
}

func (s *snapResp) marshal() []byte {
	b := protocol.AppendU64(nil, s.Term)
	ok := uint8(0)
	if s.OK {
		ok = 1
	}
	return protocol.AppendU8(b, ok)
}

func parseSnapResp(p []byte) (*snapResp, error) {
	r := protocol.NewCursor(p, "ctrlplane: snapshot response")
	s := &snapResp{Term: r.U64(), OK: r.U8() != 0}
	return s, r.Err()
}
