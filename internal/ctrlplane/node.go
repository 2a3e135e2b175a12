package ctrlplane

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
)

// Role is a replica's current consensus role.
type Role uint8

const (
	Follower Role = iota
	Candidate
	Leader
)

// String names the role.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// ErrNotLeader is returned by Propose on a replica that does not hold
// the lease (or lost it while the proposal was in flight).
var ErrNotLeader = errors.New("ctrlplane: not the leaseholder")

// Config tunes one control-plane replica.
type Config struct {
	// Self is this replica's advertised address — its identity in votes
	// and leader announcements. Must appear in Peers.
	Self string
	// Peers is the full replica set, including Self.
	Peers []string
	// LeaseTTL is the leader lease: the leader acts only while a quorum
	// answered its heartbeat round within this window, and followers
	// refuse votes while they heard a leader within it. Default 1s.
	LeaseTTL time.Duration
	// HeartbeatEvery paces leader rounds (default LeaseTTL/4).
	HeartbeatEvery time.Duration
	// RPCTimeout bounds one peer exchange (default LeaseTTL/2).
	RPCTimeout time.Duration
	// CompactKeep is the log length that triggers compaction: once more
	// than this many entries sit in the log, everything committed is
	// folded into the snapshot state (default 128).
	CompactKeep int
	// CleanupAfter enables autopilot: a peer silent for this long is
	// removed from the replica set via a committed config entry, one at
	// a time, never below 2 replicas (0 = off).
	CleanupAfter time.Duration
	// OnLead fires (from a dedicated notifier goroutine, in order with
	// OnDepose) once the replica holds the lease AND its term-opening
	// entry committed — the point at which the committed state is fully
	// known and a coordinator may act on it.
	OnLead func(term uint64)
	// OnDepose fires when an activated leader steps down.
	OnDepose func()
	// Journal receives election/lease/commit transitions (nil-safe).
	Journal *obs.Journal
	// Reg optionally receives the replica's gauges (ctrl_term, ctrl_role,
	// ctrl_commit_index, ctrl_last_index, ctrl_map_version, per-peer
	// ctrl_peer_match and ctrl_leader_is).
	Reg *obs.Registry
	// Logf receives decisions (nil = silent).
	Logf func(format string, args ...any)
	// Dialer is the replica dial seam (nil: net.DialTimeout).
	Dialer protocol.DialFunc
	// Listener, when set, serves in place of listening on Self (tests
	// bind :0 first to learn the address).
	Listener net.Listener
}

func (c *Config) fill() error {
	if c.Self == "" {
		return fmt.Errorf("ctrlplane: Self address required")
	}
	found := false
	for _, p := range c.Peers {
		if p == c.Self {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("ctrlplane: Self %q not in Peers %v", c.Self, c.Peers)
	}
	if c.LeaseTTL < 0 || c.HeartbeatEvery < 0 || c.RPCTimeout < 0 || c.CleanupAfter < 0 {
		return fmt.Errorf("ctrlplane: negative durations in config")
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = time.Second
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = c.LeaseTTL / 4
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = c.LeaseTTL / 2
	}
	if c.CompactKeep <= 0 {
		c.CompactKeep = 128
	}
	return nil
}

// PeerStatus is one peer's replication view from the leader.
type PeerStatus struct {
	Addr  string `json:"addr"`
	Match uint64 `json:"match"`
	Next  uint64 `json:"next"`
}

// NodeStatus is a point-in-time snapshot for CLI/metrics.
type NodeStatus struct {
	Self        string       `json:"self"`
	Role        Role         `json:"-"`
	RoleName    string       `json:"role"`
	Term        uint64       `json:"term"`
	Leader      string       `json:"leader,omitempty"`
	CommitIndex uint64       `json:"commit_index"`
	LastIndex   uint64       `json:"last_index"`
	SnapBase    uint64       `json:"snap_base"`
	LeaseValid  bool         `json:"lease_valid"`
	MapVersion  uint32       `json:"map_version"`
	Peers       []PeerStatus `json:"peers,omitempty"`
}

// Node is one control-plane replica: log, state machine, elections and
// (as leader) the replication/heartbeat pump. All state is in-memory —
// see the package comment for the restart model.
type Node struct {
	cfg Config

	mu       sync.Mutex
	role     Role
	term     uint64
	votedFor string
	leader   string    // last known leader (its Self address)
	heard    time.Time // last valid append/snapshot from that leader

	log       raftLog
	state     *State // applied through lastApplied
	snapState *State // state at log.base (what snapshots ship)

	commitIndex uint64
	lastApplied uint64
	commitCh    chan struct{} // closed+remade on commit/role changes

	// leader-only replication state
	next     map[string]uint64
	match    map[string]uint64
	peerSeen map[string]time.Time
	lease    time.Time
	hasLease bool   // first quorum round of this term done
	leadIdx  uint64 // index of this term's noop entry
	// activated gates OnLead: lease held AND leadIdx committed.
	activated bool
	// pendingConfig is an uncommitted autopilot removal's index (0 none).
	pendingConfig uint64

	electionAt time.Time // follower/candidate: when to start an election
	// voteOKAt is the end of the restart vote quarantine: state is
	// in-memory, so a replica that restarts mid-election has forgotten any
	// vote it cast this term; refusing all votes for the first LeaseTTL
	// after boot keeps it from granting a second vote in the same term
	// (which could elect two leaders in one term and silently break the
	// log-matching invariant). The first self-campaign is already gated by
	// electionAt >= boot + LeaseTTL, so quarantine covers self-votes too.
	voteOKAt time.Time

	notifyCond *sync.Cond
	notifyDirt bool
	stopping   bool

	ln       net.Listener
	stop     chan struct{}
	stopOnce sync.Once
	kick     chan struct{}
	wg       sync.WaitGroup
	rnd      *rand.Rand
}

// seedSeq decorrelates election jitter between replicas created within
// the same clock tick (tests start all three in one instant). The
// counter is spread across all 64 bits with a splitmix-style odd
// multiplier before mixing: math/rand reduces the seed mod 2^31-1, so a
// plain "counter<<32" collapses to "counter*2" and replicas end up with
// near-identical jitter streams — their election timers then fire
// within the vote RPC's flight time and two survivors split the vote
// round after round (draws advance in lockstep, so one close pair of
// streams keeps colliding).
var seedSeq atomic.Uint64

const seedMix = 0x9E3779B97F4A7C15 // 2^64 / golden ratio, odd

// NewNode builds a replica (not yet started).
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		state:    NewState(cfg.Peers),
		commitCh: make(chan struct{}),
		next:     map[string]uint64{},
		match:    map[string]uint64{},
		peerSeen: map[string]time.Time{},
		stop:     make(chan struct{}),
		kick:     make(chan struct{}, 1),
		rnd:      rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(seedSeq.Add(1)*seedMix))),
	}
	n.snapState = n.state.Clone()
	n.notifyCond = sync.NewCond(&n.mu)
	n.voteOKAt = time.Now().Add(cfg.LeaseTTL)
	n.resetElectionLocked()
	if cfg.Reg != nil {
		n.registerMetrics(cfg.Reg)
	}
	return n, nil
}

// Start binds the listener and launches the serve/tick/notify loops.
func (n *Node) Start() error {
	ln := n.cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", n.cfg.Self)
		if err != nil {
			return err
		}
	}
	n.mu.Lock()
	n.ln = ln
	n.mu.Unlock()
	n.wg.Add(3)
	go n.serve(ln)
	go n.run()
	go n.notifier()
	return nil
}

// Stop shuts the replica down: steps down if leading (firing OnDepose),
// closes the listener and waits for every loop.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.mu.Lock()
	n.stopping = true
	if n.role != Follower {
		n.becomeFollowerLocked(n.term, "")
	}
	ln := n.ln
	n.notifyCond.Broadcast()
	n.wakeCommitLocked()
	n.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	n.wg.Wait()
}

// Addr returns the listen address (resolved; differs from Self when a
// :0 Listener was injected).
func (n *Node) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ln != nil {
		return n.ln.Addr().String()
	}
	return n.cfg.Self
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Status snapshots the replica for CLI and tests.
func (n *Node) Status() NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := NodeStatus{
		Self:        n.cfg.Self,
		Role:        n.role,
		RoleName:    n.role.String(),
		Term:        n.term,
		Leader:      n.leader,
		CommitIndex: n.commitIndex,
		LastIndex:   n.log.lastIndex(),
		SnapBase:    n.log.base,
		LeaseValid:  n.leaseValidLocked(),
		MapVersion:  n.state.MapVersion(),
	}
	if n.role == Leader {
		for _, p := range n.peersLocked() {
			if p == n.cfg.Self {
				continue
			}
			st.Peers = append(st.Peers, PeerStatus{Addr: p, Match: n.match[p], Next: n.next[p]})
		}
		sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].Addr < st.Peers[j].Addr })
	}
	return st
}

// IsLeader reports whether the replica currently holds a valid lease.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaseValidLocked()
}

// StateSnapshot returns a copy of the applied state (leadership
// activation reads the committed map and in-flight move from here).
func (n *Node) StateSnapshot() *State {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state.Clone()
}

// peersLocked is the committed replica set (autopilot may have shrunk
// it below the configured one).
func (n *Node) peersLocked() []string { return n.state.Peers }

func (n *Node) quorumLocked() int { return len(n.peersLocked())/2 + 1 }

func (n *Node) leaseValidLocked() bool {
	return n.role == Leader && n.hasLease && time.Now().Before(n.lease)
}

// resetElectionLocked schedules the next election attempt at a
// randomized point in [LeaseTTL, 2*LeaseTTL): never before a live
// leader's lease could still be valid (the vote-refusal window), and
// spread so replicas rarely collide.
func (n *Node) resetElectionLocked() {
	ttl := n.cfg.LeaseTTL
	n.electionAt = time.Now().Add(ttl + time.Duration(n.rnd.Int63n(int64(ttl))))
}

func (n *Node) wakeCommitLocked() {
	close(n.commitCh)
	n.commitCh = make(chan struct{})
}

func (n *Node) markNotifyLocked() {
	n.notifyDirt = true
	n.notifyCond.Broadcast()
}

// becomeFollowerLocked steps down to follower at term t (adopting it if
// newer), recording the deposition if we were an activated leader.
func (n *Node) becomeFollowerLocked(t uint64, leader string) {
	wasLeader := n.role == Leader
	if t > n.term {
		n.term = t
		n.votedFor = ""
	}
	n.role = Follower
	n.leader = leader
	n.hasLease = false
	if wasLeader {
		n.cfg.Journal.Record(obs.EvCtrlDepose, n.cfg.Self, -1,
			"stepped down at term %d (leader now %q)", n.term, leader)
		n.logf("ctrlplane: %s deposed at term %d", n.cfg.Self, n.term)
	}
	if n.activated {
		n.activated = false
		n.markNotifyLocked()
	}
	n.resetElectionLocked()
	n.wakeCommitLocked()
}

// run is the tick loop: followers watch the election deadline, leaders
// pump heartbeat/replication rounds. Followers wake at their exact
// (randomized) election deadline rather than polling it on a coarse
// ticker: replicas start their tickers near-simultaneously, so a shared
// HeartbeatEvery grid quantizes campaign starts into the same buckets
// and two survivors of a leader kill split the vote round after round —
// the jitter only helps if it is honored precisely.
func (n *Node) run() {
	defer n.wg.Done()
	t := time.NewTimer(n.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		case <-n.kick:
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
		}
		n.mu.Lock()
		role := n.role
		due := time.Now().After(n.electionAt)
		n.mu.Unlock()
		switch {
		case role == Leader:
			n.leaderRound()
		case due:
			n.runElection()
		}
		n.mu.Lock()
		next := n.cfg.HeartbeatEvery
		if n.role != Leader {
			// Sleep to the deadline; a heartbeat moving it later just
			// means one early wake-up and a re-arm.
			if d := time.Until(n.electionAt); d > 0 {
				next = d
			} else {
				next = time.Millisecond
			}
		}
		n.mu.Unlock()
		t.Reset(next)
	}
}

// runElection campaigns for the next term: one parallel vote round.
func (n *Node) runElection() {
	n.mu.Lock()
	if n.stopping {
		n.mu.Unlock()
		return
	}
	n.role = Candidate
	n.term++
	term := n.term
	n.votedFor = n.cfg.Self
	n.leader = ""
	n.hasLease = false
	n.resetElectionLocked()
	req := voteReq{
		Term:      term,
		Candidate: n.cfg.Self,
		LastIndex: n.log.lastIndex(),
		LastTerm:  n.log.lastTerm(),
	}
	peers := append([]string(nil), n.peersLocked()...)
	n.mu.Unlock()

	payload := req.marshal()
	type res struct {
		peer string
		resp *voteResp
	}
	ch := make(chan res, len(peers))
	sent := 0
	for _, p := range peers {
		if p == n.cfg.Self {
			continue
		}
		sent++
		go func(p string) {
			raw, err := n.call(p, protocol.OpCtrlVote, payload)
			if err != nil {
				ch <- res{p, nil}
				return
			}
			v, err := parseVoteResp(raw)
			if err != nil {
				v = nil
			}
			ch <- res{p, v}
		}(p)
	}
	granted := 1 // self
	maxTerm := term
	now := time.Now()
	seen := map[string]bool{}
	for i := 0; i < sent; i++ {
		r := <-ch
		if r.resp == nil {
			continue
		}
		if r.resp.Term > maxTerm {
			maxTerm = r.resp.Term
		}
		if r.resp.Granted {
			granted++
		}
		seen[r.peer] = true
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.term != term || n.role != Candidate {
		return // something moved on while we campaigned
	}
	if maxTerm > term {
		n.becomeFollowerLocked(maxTerm, "")
		return
	}
	for p := range seen {
		n.peerSeen[p] = now
	}
	if granted >= n.quorumLocked() {
		n.becomeLeaderLocked()
		return
	}
	n.role = Follower
	n.resetElectionLocked()
}

// becomeLeaderLocked initializes leader state and appends the
// term-opening noop entry. The votes themselves were a quorum contact,
// so the first lease window starts now.
func (n *Node) becomeLeaderLocked() {
	n.role = Leader
	n.leader = n.cfg.Self
	n.hasLease = true
	n.lease = time.Now().Add(n.cfg.LeaseTTL)
	n.activated = false
	n.pendingConfig = 0
	now := time.Now()
	for _, p := range n.peersLocked() {
		if p == n.cfg.Self {
			continue
		}
		n.next[p] = n.log.lastIndex() + 1
		n.match[p] = 0
		n.peerSeen[p] = now
	}
	n.log.append(Entry{
		Index:  n.log.lastIndex() + 1,
		Term:   n.term,
		Kind:   EntryNoop,
		Shard:  -1,
		Detail: "term opened",
	})
	n.leadIdx = n.log.lastIndex()
	n.cfg.Journal.Record(obs.EvCtrlElect, n.cfg.Self, -1,
		"won election at term %d (log %d)", n.term, n.leadIdx)
	n.cfg.Journal.Record(obs.EvCtrlLease, n.cfg.Self, -1,
		"vote quorum granted the first lease at term %d (ttl %v)", n.term, n.cfg.LeaseTTL)
	n.logf("ctrlplane: %s elected leader at term %d", n.cfg.Self, n.term)
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// leaderRound runs one heartbeat/replication round: per-peer
// AppendEntries (or InstallSnapshot when the peer is behind the
// compaction base) in parallel, then lease renewal, commit advancement
// and autopilot under the lock.
func (n *Node) leaderRound() {
	type job struct {
		peer string
		op   protocol.Opcode
		pay  []byte
		sent int // entries shipped (append) for match accounting
		prev uint64
		base uint64 // snapshot index (snapshot jobs)
	}
	n.mu.Lock()
	if n.role != Leader {
		n.mu.Unlock()
		return
	}
	term := n.term
	t0 := time.Now()
	var jobs []job
	for _, p := range n.peersLocked() {
		if p == n.cfg.Self {
			continue
		}
		ni := n.next[p]
		if ni == 0 {
			ni = n.log.lastIndex() + 1
			n.next[p] = ni
		}
		if ni <= n.log.base {
			sr := snapReq{
				Term:      term,
				Leader:    n.cfg.Self,
				SnapIndex: n.log.base,
				SnapTerm:  n.log.baseTerm,
				State:     marshalState(n.snapState),
			}
			jobs = append(jobs, job{peer: p, op: protocol.OpCtrlSnapshot,
				pay: sr.marshal(), base: n.log.base})
			continue
		}
		prev := ni - 1
		prevTerm, _ := n.log.termAt(prev)
		ents := n.log.slice(ni, 64)
		ar := appendReq{
			Term:      term,
			Leader:    n.cfg.Self,
			PrevIndex: prev,
			PrevTerm:  prevTerm,
			Commit:    n.commitIndex,
			Entries:   ents,
		}
		jobs = append(jobs, job{peer: p, op: protocol.OpCtrlAppend,
			pay: ar.marshal(), sent: len(ents), prev: prev})
	}
	n.mu.Unlock()

	type res struct {
		job
		app  *appendResp
		snap *snapResp
	}
	ch := make(chan res, len(jobs))
	for _, j := range jobs {
		go func(j job) {
			raw, err := n.call(j.peer, j.op, j.pay)
			r := res{job: j}
			if err == nil {
				if j.op == protocol.OpCtrlAppend {
					r.app, _ = parseAppendResp(raw)
				} else {
					r.snap, _ = parseSnapResp(raw)
				}
			}
			ch <- r
		}(j)
	}
	results := make([]res, 0, len(jobs))
	for range jobs {
		results = append(results, <-ch)
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.term != term || n.role != Leader {
		return
	}
	acks := 1 // self
	now := time.Now()
	for _, r := range results {
		switch {
		case r.app != nil:
			if r.app.Term > n.term {
				n.becomeFollowerLocked(r.app.Term, "")
				return
			}
			acks++
			n.peerSeen[r.peer] = now
			if r.app.OK {
				m := r.prev + uint64(r.sent)
				if m > n.match[r.peer] {
					n.match[r.peer] = m
				}
				n.next[r.peer] = n.match[r.peer] + 1
			} else if r.app.Match > 0 {
				// Log mismatch: back off toward the follower's hint.
				ni := r.app.Match
				if ni > r.prev {
					ni = r.prev
				}
				if ni < 1 {
					ni = 1
				}
				n.next[r.peer] = ni
			}
		case r.snap != nil:
			if r.snap.Term > n.term {
				n.becomeFollowerLocked(r.snap.Term, "")
				return
			}
			acks++
			n.peerSeen[r.peer] = now
			if r.snap.OK {
				if r.base > n.match[r.peer] {
					n.match[r.peer] = r.base
				}
				n.next[r.peer] = r.base + 1
				n.cfg.Journal.Record(obs.EvCtrlSnapshot, n.cfg.Self, -1,
					"snapshot @%d shipped to %s", r.base, r.peer)
			}
		}
	}

	if acks >= n.quorumLocked() {
		wasLease := n.hasLease && now.Before(n.lease)
		n.lease = t0.Add(n.cfg.LeaseTTL)
		if !n.hasLease || !wasLease {
			n.hasLease = true
			n.cfg.Journal.Record(obs.EvCtrlLease, n.cfg.Self, -1,
				"quorum lease acquired at term %d (ttl %v)", n.term, n.cfg.LeaseTTL)
		}
		n.advanceCommitLocked()
		n.autopilotLocked(now)
	} else if !time.Now().Before(n.lease) {
		// Lost quorum past the lease: stop acting as leader. Commits
		// stop failing-fast only once a successor's term reaches us, but
		// the lease expiry already fences installs (edits refuse).
		n.becomeFollowerLocked(n.term, "")
	}
}

// advanceCommitLocked moves commitIndex to the quorum-replicated index,
// respecting the current-term rule, and applies.
func (n *Node) advanceCommitLocked() {
	matches := []uint64{n.log.lastIndex()}
	for _, p := range n.peersLocked() {
		if p == n.cfg.Self {
			continue
		}
		matches = append(matches, n.match[p])
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i] > matches[j] })
	q := n.quorumLocked()
	if q > len(matches) {
		return
	}
	cand := matches[q-1]
	if cand <= n.commitIndex {
		return
	}
	// Only entries of the current term commit by counting (Raft §5.4.2);
	// earlier-term entries commit transitively.
	if t, ok := n.log.termAt(cand); !ok || t != n.term {
		return
	}
	n.commitIndex = cand
	n.applyLocked()
}

// applyLocked applies every committed-but-unapplied entry, journals the
// transitions, wakes Propose waiters, gates activation and compacts.
func (n *Node) applyLocked() {
	for n.lastApplied < n.commitIndex {
		i := n.lastApplied + 1
		e := n.log.at(i)
		if e == nil {
			// Compacted past (snapshot install raced): state already
			// covers it.
			n.lastApplied = i
			continue
		}
		n.state.Apply(e)
		n.lastApplied = i
		if e.Kind == EntryConfig {
			n.applyConfigLocked(e)
		}
		if e.Kind != EntryNoop {
			n.cfg.Journal.Record(obs.EvCtrlCommit, n.cfg.Self, int(e.Shard),
				"applied %s @%d term %d (map v%d) %s", e.Kind, e.Index, e.Term,
				n.state.MapVersion(), e.Detail)
		}
	}
	if n.role == Leader && n.hasLease && !n.activated && n.commitIndex >= n.leadIdx {
		n.activated = true
		n.markNotifyLocked()
	}
	n.wakeCommitLocked()
	n.maybeCompactLocked()
}

// applyConfigLocked reacts to a committed replica-set change.
func (n *Node) applyConfigLocked(e *Entry) {
	if e.Src != "remove" {
		return
	}
	delete(n.next, e.Dest)
	delete(n.match, e.Dest)
	delete(n.peerSeen, e.Dest)
	if n.pendingConfig != 0 && e.Index >= n.pendingConfig {
		n.pendingConfig = 0
	}
	n.logf("ctrlplane: %s: peer %s removed (replica set now %v)",
		n.cfg.Self, e.Dest, n.peersLocked())
	if e.Dest == n.cfg.Self && n.role != Follower {
		// We were removed: stop participating.
		n.becomeFollowerLocked(n.term, n.leader)
	}
}

// maybeCompactLocked folds the committed log into the snapshot state
// once it outgrows CompactKeep. Snapshots are taken at the commit index
// — any follower further behind gets the (tiny) full state instead of
// entries.
func (n *Node) maybeCompactLocked() {
	if len(n.log.entries) <= n.cfg.CompactKeep || n.commitIndex <= n.log.base {
		return
	}
	t, ok := n.log.termAt(n.commitIndex)
	if !ok {
		return
	}
	n.snapState = n.state.Clone()
	n.log.compactTo(n.commitIndex, t)
}

// autopilotLocked removes one silent peer from the replica set (leader
// only, one in-flight removal at a time, never below 2 replicas).
func (n *Node) autopilotLocked(now time.Time) {
	if n.cfg.CleanupAfter <= 0 || n.pendingConfig != 0 {
		return
	}
	peers := n.peersLocked()
	if len(peers) <= 2 {
		return
	}
	for _, p := range peers {
		if p == n.cfg.Self {
			continue
		}
		seen, ok := n.peerSeen[p]
		if !ok || now.Sub(seen) < n.cfg.CleanupAfter {
			continue
		}
		e := Entry{
			Index:  n.log.lastIndex() + 1,
			Term:   n.term,
			Kind:   EntryConfig,
			Shard:  -1,
			Src:    "remove",
			Dest:   p,
			Detail: fmt.Sprintf("autopilot: silent for %v", now.Sub(seen).Round(time.Millisecond)),
		}
		n.log.append(e)
		n.pendingConfig = e.Index
		n.cfg.Journal.Record(obs.EvCtrlPeerDead, n.cfg.Self, -1,
			"autopilot removing silent peer %s (term %d, log %d)", p, n.term, e.Index)
		n.logf("ctrlplane: %s: autopilot removing silent peer %s", n.cfg.Self, p)
		return // one at a time
	}
}

// Propose appends e (Kind/Shard/Src/Dest/Map/Detail set by the caller)
// to the replicated log and blocks until it commits at this term,
// returning its index. ErrNotLeader when the replica does not hold the
// lease, or loses it (or the entry) before commit.
func (n *Node) Propose(e Entry) (uint64, error) { return n.propose(0, e) }

// ProposeAt is Propose fenced to one leadership term: it refuses when
// the replica's term moved past the caller's. A coordinator deposed and
// re-elected on the same replica gets a fresh term — its predecessor's
// in-flight commits must not slip into the new incarnation's log.
func (n *Node) ProposeAt(term uint64, e Entry) (uint64, error) { return n.propose(term, e) }

func (n *Node) propose(atTerm uint64, e Entry) (uint64, error) {
	n.mu.Lock()
	if !n.leaseValidLocked() || (atTerm != 0 && n.term != atTerm) {
		n.mu.Unlock()
		return 0, ErrNotLeader
	}
	term := n.term
	e.Term = term
	e.Index = n.log.lastIndex() + 1
	n.log.append(e)
	idx := e.Index
	n.mu.Unlock()
	select {
	case n.kick <- struct{}{}:
	default:
	}

	deadline := time.Now().Add(3 * n.cfg.LeaseTTL)
	for {
		n.mu.Lock()
		if n.term != term || n.role != Leader {
			n.mu.Unlock()
			return 0, ErrNotLeader
		}
		if n.commitIndex >= idx {
			n.mu.Unlock()
			return idx, nil
		}
		ch := n.commitCh
		n.mu.Unlock()
		left := time.Until(deadline)
		if left <= 0 {
			// The entry sits in our log and may STILL commit at this term
			// later (e.g. a slow decrement backoff to a diverged follower
			// outlasting the deadline). Reporting a definite failure here
			// would let the caller keep editing from the pre-commit state
			// and re-mint the same map version with different contents —
			// version-compared installs would then diverge permanently. The
			// outcome is unknown, so stop being leader: the coordinator is
			// deposed with us, and a successor (possibly this replica at a
			// later term) resyncs from whatever actually committed.
			n.mu.Lock()
			if n.term == term && n.role == Leader {
				if n.commitIndex >= idx {
					n.mu.Unlock()
					return idx, nil
				}
				n.logf("ctrlplane: %s: commit of log %d timed out at term %d; outcome unknown, stepping down",
					n.cfg.Self, idx, term)
				n.becomeFollowerLocked(n.term, "")
			}
			n.mu.Unlock()
			return 0, fmt.Errorf("ctrlplane: commit of log %d timed out: %w", idx, ErrNotLeader)
		}
		t := time.NewTimer(left)
		select {
		case <-ch:
		case <-t.C:
		case <-n.stop:
			t.Stop()
			return 0, ErrNotLeader
		}
		t.Stop()
	}
}

// notifier serializes OnLead/OnDepose callbacks: it watches the
// (activated, term) pair and fires transitions in order from one
// goroutine, so a coordinator is always deposed before its successor
// activates. Rapid flip-flops compress to their net effect.
func (n *Node) notifier() {
	defer n.wg.Done()
	var ledTerm uint64 // 0 = not currently led
	for {
		n.mu.Lock()
		for !n.notifyDirt && !n.stopping {
			n.notifyCond.Wait()
		}
		if n.stopping && !n.notifyDirt {
			n.mu.Unlock()
			if ledTerm != 0 && n.cfg.OnDepose != nil {
				n.cfg.OnDepose()
			}
			return
		}
		n.notifyDirt = false
		active := n.activated
		term := n.term
		n.mu.Unlock()

		if ledTerm != 0 && (!active || term != ledTerm) {
			if n.cfg.OnDepose != nil {
				n.cfg.OnDepose()
			}
			ledTerm = 0
		}
		if active && ledTerm == 0 {
			ledTerm = term
			if n.cfg.OnLead != nil {
				n.cfg.OnLead(term)
			}
		}
	}
}

// serve accepts replica connections; each handles one or more framed
// control exchanges.
func (n *Node) serve(ln net.Listener) {
	defer n.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleConn(c)
		}()
	}
}

func (n *Node) handleConn(c net.Conn) {
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)
	var msg protocol.Message
	var out []byte
	for {
		c.SetReadDeadline(time.Now().Add(30 * time.Second))
		if err := protocol.ReadMessageInto(br, &msg, nil); err != nil {
			return
		}
		var payload []byte
		status := protocol.StatusOK
		switch msg.Header.Opcode {
		case protocol.OpCtrlVote:
			payload = n.handleVote(msg.Payload)
		case protocol.OpCtrlAppend:
			payload = n.handleAppend(msg.Payload)
		case protocol.OpCtrlSnapshot:
			payload = n.handleSnapshot(msg.Payload)
		default:
			status = protocol.StatusBadRequest
		}
		if payload == nil && status == protocol.StatusOK {
			status = protocol.StatusBadRequest
		}
		hdr := protocol.Header{
			Opcode: msg.Header.Opcode,
			Flags:  protocol.FlagResponse,
			Cookie: msg.Header.Cookie,
			Status: status,
		}
		var err error
		out, err = protocol.AppendMessage(out[:0], &hdr, payload)
		if err != nil {
			return
		}
		c.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

// handleVote grants a vote iff the candidate's term is current, its log
// is at least as up to date, we have not voted for someone else this
// term, we are past the restart vote quarantine, AND we have not heard
// from a live leader within LeaseTTL — the lease-stickiness rule that
// makes the lease a real mutual-exclusion window rather than a hint.
func (n *Node) handleVote(p []byte) []byte {
	req, err := parseVoteReq(p)
	if err != nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// Stickiness must be judged BEFORE adopting a higher term:
	// becomeFollowerLocked clears n.leader, and candidates always campaign
	// at term+1, so a check after the adoption would never fire — granting
	// votes while a live leader's lease is still valid and breaking the
	// lease's mutual-exclusion window.
	heardRecently := n.leader != "" && n.leader != req.Candidate &&
		time.Since(n.heard) < n.cfg.LeaseTTL
	if req.Term > n.term {
		n.becomeFollowerLocked(req.Term, "")
	}
	resp := voteResp{Term: n.term}
	switch {
	case req.Term < n.term:
	case heardRecently:
		// A live leader's lease may still be valid: refuse (the term was
		// still adopted above, so our log/term bookkeeping stays current).
	case time.Now().Before(n.voteOKAt):
		// Restart quarantine: an in-memory replica that rejoined may have
		// voted in this very term before it crashed; refusing all votes for
		// the first LeaseTTL keeps it from double-voting in an election it
		// no longer remembers (see the package comment's restart model).
	case n.votedFor != "" && n.votedFor != req.Candidate:
	case req.LastTerm < n.log.lastTerm(),
		req.LastTerm == n.log.lastTerm() && req.LastIndex < n.log.lastIndex():
		// Candidate's log is behind ours.
	default:
		n.votedFor = req.Candidate
		resp.Granted = true
		n.resetElectionLocked() // granting defers our own campaign
	}
	return resp.marshal()
}

// handleAppend is the follower half of replication: term checks, the
// log-consistency probe, conflict truncation, append and commit.
func (n *Node) handleAppend(p []byte) []byte {
	req, err := parseAppendReq(p)
	if err != nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := appendResp{Term: n.term}
	if req.Term < n.term {
		return resp.marshal()
	}
	if req.Term > n.term || n.role != Follower || n.leader != req.Leader {
		n.becomeFollowerLocked(req.Term, req.Leader)
	}
	n.leader = req.Leader
	n.heard = time.Now()
	n.resetElectionLocked()
	resp.Term = n.term

	prevIndex, prevTerm, entries := req.PrevIndex, req.PrevTerm, req.Entries
	if prevIndex < n.log.base {
		// The leader's window overlaps our snapshot: entries at or below
		// base are committed here already, skip them.
		for len(entries) > 0 && entries[0].Index <= n.log.base {
			entries = entries[1:]
		}
		prevIndex = n.log.base
		prevTerm = n.log.baseTerm
	}
	if t, ok := n.log.termAt(prevIndex); !ok || t != prevTerm {
		// Mismatch: hint our log end for faster leader backoff.
		resp.Match = n.log.lastIndex() + 1
		return resp.marshal()
	}
	for _, e := range entries {
		if t, ok := n.log.termAt(e.Index); ok && t != e.Term {
			n.log.truncateFrom(e.Index)
			if n.commitIndex > n.log.lastIndex() {
				n.commitIndex = n.log.lastIndex()
			}
		}
		if e.Index == n.log.lastIndex()+1 {
			n.log.append(e)
		}
	}
	resp.OK = true
	resp.Match = prevIndex + uint64(len(entries))
	if req.Commit > n.commitIndex {
		ci := req.Commit
		if li := n.log.lastIndex(); ci > li {
			ci = li
		}
		if ci > n.commitIndex {
			n.commitIndex = ci
			n.applyLocked()
		}
	}
	return resp.marshal()
}

// handleSnapshot installs the leader's state snapshot when it is ahead
// of everything we hold (the late-joiner catch-up path).
func (n *Node) handleSnapshot(p []byte) []byte {
	req, err := parseSnapReq(p)
	if err != nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := snapResp{Term: n.term}
	if req.Term < n.term {
		return resp.marshal()
	}
	if req.Term > n.term || n.role != Follower || n.leader != req.Leader {
		n.becomeFollowerLocked(req.Term, req.Leader)
	}
	n.leader = req.Leader
	n.heard = time.Now()
	n.resetElectionLocked()
	resp.Term = n.term
	if req.SnapIndex <= n.commitIndex {
		resp.OK = true // already have it (or better)
		return resp.marshal()
	}
	st, err := parseState(req.State)
	if err != nil {
		return resp.marshal()
	}
	n.state = st
	n.snapState = st.Clone()
	n.log.reset(req.SnapIndex, req.SnapTerm)
	n.commitIndex = req.SnapIndex
	n.lastApplied = req.SnapIndex
	n.wakeCommitLocked()
	n.cfg.Journal.Record(obs.EvCtrlSnapshot, n.cfg.Self, -1,
		"installed snapshot @%d term %d from %s (map v%d, %d peers)",
		req.SnapIndex, req.SnapTerm, req.Leader, st.MapVersion(), len(st.Peers))
	resp.OK = true
	return resp.marshal()
}

// registerMetrics exposes the replica's consensus position: the /cluster
// aggregation (obs.Fleet) folds these into the control-plane health view.
func (n *Node) registerMetrics(reg *obs.Registry) {
	reg.GaugeFunc("ctrl_term", "control-plane replica's current term",
		func() float64 { n.mu.Lock(); defer n.mu.Unlock(); return float64(n.term) })
	reg.GaugeFunc("ctrl_role", "control-plane role (0 follower, 1 candidate, 2 leader)",
		func() float64 { n.mu.Lock(); defer n.mu.Unlock(); return float64(n.role) })
	reg.GaugeFunc("ctrl_lease_valid", "1 while this replica holds the quorum lease",
		func() float64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			if n.leaseValidLocked() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("ctrl_commit_index", "highest quorum-committed log index",
		func() float64 { n.mu.Lock(); defer n.mu.Unlock(); return float64(n.commitIndex) })
	reg.GaugeFunc("ctrl_last_index", "highest appended log index",
		func() float64 { n.mu.Lock(); defer n.mu.Unlock(); return float64(n.log.lastIndex()) })
	reg.GaugeFunc("ctrl_map_version", "committed shard-map version in the replicated state",
		func() float64 { n.mu.Lock(); defer n.mu.Unlock(); return float64(n.state.MapVersion()) })
	for _, p := range n.cfg.Peers {
		peer := p
		reg.GaugeFunc("ctrl_leader_is", "1 when this replica believes the labeled peer leads",
			func() float64 {
				n.mu.Lock()
				defer n.mu.Unlock()
				if n.leader == peer {
					return 1
				}
				return 0
			}, obs.L("peer", peer))
		if p == n.cfg.Self {
			continue
		}
		reg.GaugeFunc("ctrl_peer_match", "highest log index known replicated on the labeled peer (leader view)",
			func() float64 {
				n.mu.Lock()
				defer n.mu.Unlock()
				if n.role != Leader {
					return 0
				}
				return float64(n.match[peer])
			}, obs.L("peer", peer))
	}
}
