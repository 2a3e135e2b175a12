package ctrlplane

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
)

// partition is a shared dial seam: cutting an address fails every dial
// to it AND every dial initiated by the node that owns it.
type partition struct {
	mu  sync.Mutex
	cut map[string]bool
}

func newPartition() *partition { return &partition{cut: map[string]bool{}} }

func (p *partition) isCut(addr string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cut[addr]
}

func (p *partition) set(addr string, cut bool) {
	p.mu.Lock()
	p.cut[addr] = cut
	p.mu.Unlock()
}

// dialer returns self's dial function through the partition.
func (p *partition) dialer(self string) protocol.DialFunc {
	return func(addr string) (net.Conn, error) {
		if p.isCut(self) || p.isCut(addr) {
			return nil, fmt.Errorf("partition: %s -/-> %s", self, addr)
		}
		return net.DialTimeout("tcp", addr, time.Second)
	}
}

// testCluster starts n replicas on loopback :0 listeners (bound first so
// every peer address is known before any node starts).
func testCluster(t *testing.T, n int, tweak func(i int, c *Config)) []*Node {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		cfg := Config{
			Self:     addrs[i],
			Peers:    addrs,
			LeaseTTL: 250 * time.Millisecond,
			Journal:  obs.NewJournal(512),
			Listener: lns[i],
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		nd, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		nodes[i] = nd
	}
	return nodes
}

// waitLeader blocks until some replica holds a valid lease.
func waitLeader(t *testing.T, nodes []*Node, timeout time.Duration) *Node {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, n := range nodes {
			if n != nil && n.IsLeader() {
				return n
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no leader emerged")
	return nil
}

func waitCond(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// rawMap fakes a marshaled shard map: only the leading u32 version is
// interpreted by the control plane.
func rawMap(v uint32) []byte { return protocol.AppendU32(nil, v) }

func hasEvent(j *obs.Journal, kind obs.EventKind) bool {
	for _, e := range j.Recent(512) {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                                    // no self
		{Self: "a:1"},                         // self not in peers
		{Self: "a:1", Peers: []string{"b:1"}}, // ditto
		{Self: "a:1", Peers: []string{"a:1"}, LeaseTTL: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewNode(cfg); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
	ok := Config{Self: "a:1", Peers: []string{"a:1", "b:1", "c:1"}}
	n, err := NewNode(ok)
	if err != nil {
		t.Fatal(err)
	}
	if n.cfg.LeaseTTL != time.Second || n.cfg.HeartbeatEvery != 250*time.Millisecond ||
		n.cfg.RPCTimeout != 500*time.Millisecond || n.cfg.CompactKeep != 128 {
		t.Fatalf("defaults not filled: %+v", n.cfg)
	}
}

func TestElectionLeaseAndFailover(t *testing.T) {
	nodes := testCluster(t, 3, nil)
	ld := waitLeader(t, nodes, 5*time.Second)
	st := ld.Status()
	if st.Role != Leader || !st.LeaseValid {
		t.Fatalf("leader status inconsistent: %+v", st)
	}
	if !hasEvent(ld.cfg.Journal, obs.EvCtrlElect) || !hasEvent(ld.cfg.Journal, obs.EvCtrlLease) {
		t.Fatal("election/lease transitions not journaled")
	}
	term1 := st.Term

	// Kill the leader: a successor takes over at a higher term, within a
	// few lease windows.
	killedAt := time.Now()
	ld.Stop()
	rest := make([]*Node, 0, 2)
	for _, n := range nodes {
		if n != ld {
			rest = append(rest, n)
		}
	}
	ld2 := waitLeader(t, rest, 5*time.Second)
	outage := time.Since(killedAt)
	if got := ld2.Status().Term; got <= term1 {
		t.Fatalf("successor term %d not past %d", got, term1)
	}
	if hasEvent(ld.cfg.Journal, obs.EvCtrlDepose) == false {
		t.Fatal("stopped leader did not journal its deposition")
	}
	t.Logf("failover in %v (lease %v)", outage, 250*time.Millisecond)
}

func TestProposeReplicatesAndApplies(t *testing.T) {
	nodes := testCluster(t, 3, nil)
	ld := waitLeader(t, nodes, 5*time.Second)
	for v := uint32(1); v <= 5; v++ {
		e := Entry{Kind: EntrySeed, Shard: -1, Map: rawMap(v), Detail: fmt.Sprintf("v%d", v)}
		if _, err := ld.Propose(e); err != nil {
			t.Fatalf("propose v%d: %v", v, err)
		}
	}
	// Commit means quorum, not everyone; followers converge a round later.
	waitCond(t, 3*time.Second, "replicated state", func() bool {
		for _, n := range nodes {
			if n.StateSnapshot().MapVersion() != 5 {
				return false
			}
		}
		return true
	})
	if !hasEvent(ld.cfg.Journal, obs.EvCtrlCommit) {
		t.Fatal("commits not journaled")
	}
	// A proposal on a follower is refused outright.
	for _, n := range nodes {
		if n == ld {
			continue
		}
		if _, err := n.Propose(Entry{Kind: EntrySeed, Map: rawMap(9)}); !errors.Is(err, ErrNotLeader) {
			t.Fatalf("follower propose = %v, want ErrNotLeader", err)
		}
	}
}

// TestDeposedLeaderCannotCommit is the fencing primitive: a leader cut
// from the quorum must fail its commits (and therefore never mint a map
// version), while the surviving majority elects a successor and moves
// on. After the partition heals, the deposed leader's uncommitted tail
// is truncated away.
func TestDeposedLeaderCannotCommit(t *testing.T) {
	p := newPartition()
	nodes := testCluster(t, 3, func(i int, c *Config) {
		c.Dialer = p.dialer(c.Self)
	})
	ld := waitLeader(t, nodes, 5*time.Second)
	if _, err := ld.Propose(Entry{Kind: EntrySeed, Shard: -1, Map: rawMap(1)}); err != nil {
		t.Fatal(err)
	}

	// Cut the leader off. Its next commit must fail with ErrNotLeader —
	// either refused up front (lease expired) or timed out un-replicated.
	p.set(ld.cfg.Self, true)
	var staleErr error
	waitCond(t, 5*time.Second, "stale leader refusing commits", func() bool {
		_, staleErr = ld.Propose(Entry{Kind: EntryState, Shard: -1, Map: rawMap(100), Detail: "stale"})
		return staleErr != nil
	})
	if !errors.Is(staleErr, ErrNotLeader) {
		t.Fatalf("stale commit error = %v, want ErrNotLeader", staleErr)
	}

	// The majority side elected a successor that commits normally.
	rest := make([]*Node, 0, 2)
	for _, n := range nodes {
		if n != ld {
			rest = append(rest, n)
		}
	}
	ld2 := waitLeader(t, rest, 5*time.Second)
	if _, err := ld2.Propose(Entry{Kind: EntryState, Shard: -1, Map: rawMap(2), Detail: "post-failover"}); err != nil {
		t.Fatalf("successor commit: %v", err)
	}

	// Heal: the deposed leader rejoins, truncates its stale tail and
	// converges on the successor's state — version 2, not 100.
	p.set(ld.cfg.Self, false)
	waitCond(t, 5*time.Second, "healed convergence", func() bool {
		for _, n := range nodes {
			if n.StateSnapshot().MapVersion() != 2 {
				return false
			}
		}
		return true
	})
}

func TestSnapshotCatchUp(t *testing.T) {
	var journals [3]*obs.Journal
	nodes := testCluster(t, 3, func(i int, c *Config) {
		c.CompactKeep = 4
		journals[i] = c.Journal
	})
	ld := waitLeader(t, nodes, 5*time.Second)

	// Take one follower down, then commit enough to compact its catch-up
	// range out of the log.
	var downIdx int
	for i, n := range nodes {
		if n != ld {
			downIdx = i
			break
		}
	}
	downAddr := nodes[downIdx].cfg.Self
	nodes[downIdx].Stop()
	for v := uint32(1); v <= 20; v++ {
		if _, err := ld.Propose(Entry{Kind: EntryState, Shard: -1, Map: rawMap(v)}); err != nil {
			t.Fatalf("propose v%d: %v", v, err)
		}
	}
	waitCond(t, 3*time.Second, "leader compaction", func() bool {
		return ld.Status().SnapBase > 0
	})

	// The replica returns on the same address, log empty: it must catch
	// up by snapshot install, not entry replay.
	j := obs.NewJournal(512)
	nd, err := NewNode(Config{
		Self:     downAddr,
		Peers:    append([]string(nil), ld.cfg.Peers...),
		LeaseTTL: 250 * time.Millisecond,
		Journal:  j,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	nodes[downIdx] = nd

	waitCond(t, 5*time.Second, "snapshot catch-up", func() bool {
		return nd.StateSnapshot().MapVersion() == 20
	})
	if !hasEvent(j, obs.EvCtrlSnapshot) {
		t.Fatal("late joiner caught up without a journaled snapshot install")
	}
	if st := nd.Status(); st.SnapBase == 0 {
		t.Fatalf("late joiner's log not reset to the snapshot base: %+v", st)
	}
}

func TestAutopilotRemovesSilentPeer(t *testing.T) {
	nodes := testCluster(t, 3, func(i int, c *Config) {
		c.CleanupAfter = 600 * time.Millisecond
	})
	ld := waitLeader(t, nodes, 5*time.Second)
	var victim *Node
	for _, n := range nodes {
		if n != ld {
			victim = n
			break
		}
	}
	victim.Stop()
	waitCond(t, 5*time.Second, "autopilot removal", func() bool {
		return len(ld.StateSnapshot().Peers) == 2
	})
	for _, pr := range ld.StateSnapshot().Peers {
		if pr == victim.cfg.Self {
			t.Fatal("silent peer still in the committed replica set")
		}
	}
	if !hasEvent(ld.cfg.Journal, obs.EvCtrlPeerDead) {
		t.Fatal("autopilot removal not journaled")
	}
	// Floor: with 2 replicas left, killing another must NOT shrink to 1
	// (that would let a single replica "quorum" alone).
	var second *Node
	for _, n := range nodes {
		if n != ld && n != victim {
			second = n
		}
	}
	second.Stop()
	time.Sleep(1200 * time.Millisecond)
	if got := len(ld.StateSnapshot().Peers); got != 2 {
		t.Fatalf("replica set shrank to %d, floor is 2", got)
	}
}

// Vote stickiness must be judged BEFORE the higher term is adopted:
// becomeFollowerLocked clears the remembered leader, and candidates
// always campaign above the leader's term, so a post-adoption check
// never fires and the lease stops being a mutual-exclusion window.
// White-box: the node is never started; handleVote is driven directly.
func TestVoteStickinessJudgedBeforeTermAdoption(t *testing.T) {
	nd, err := NewNode(Config{
		Self:     "a:1",
		Peers:    []string{"a:1", "b:1", "c:1"},
		LeaseTTL: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd.mu.Lock()
	nd.voteOKAt = time.Now().Add(-time.Second) // past the restart quarantine
	nd.term = 1
	nd.leader = "b:1"
	nd.heard = time.Now() // leader heartbeat just arrived: lease may be live
	nd.mu.Unlock()

	req := voteReq{Term: 2, Candidate: "c:1"}
	resp, err := parseVoteResp(nd.handleVote(req.marshal()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted {
		t.Fatal("vote granted while a live leader was heard within LeaseTTL")
	}
	if resp.Term != 2 {
		t.Fatalf("refusal at term %d, want the candidate's term 2 adopted", resp.Term)
	}
	nd.mu.Lock()
	if nd.term != 2 {
		nd.mu.Unlock()
		t.Fatalf("follower term %d after refusal, want 2", nd.term)
	}
	// Re-arm with the leader silent past the stickiness window: the same
	// candidate at the next term must now be granted.
	nd.leader = "b:1"
	nd.heard = time.Now().Add(-time.Second)
	nd.mu.Unlock()

	req = voteReq{Term: 3, Candidate: "c:1"}
	resp, err = parseVoteResp(nd.handleVote(req.marshal()))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Granted {
		t.Fatal("vote refused after the leader fell silent past LeaseTTL")
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.votedFor != "c:1" {
		t.Fatalf("votedFor = %q, want c:1", nd.votedFor)
	}
}

// A replica's vote state is in-memory: freshly (re)started, it may have
// voted in the current term before the crash, so it must refuse ALL
// votes for its first LeaseTTL (the restart quarantine) — otherwise one
// bounce during a contested election yields two grants in one term.
func TestRestartVoteQuarantine(t *testing.T) {
	nd, err := NewNode(Config{
		Self:     "a:1",
		Peers:    []string{"a:1", "b:1", "c:1"},
		LeaseTTL: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := voteReq{Term: 1, Candidate: "b:1"}
	resp, err := parseVoteResp(nd.handleVote(req.marshal()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted {
		t.Fatal("freshly booted replica granted a vote inside its quarantine window")
	}
	nd.mu.Lock()
	if nd.votedFor != "" {
		nd.mu.Unlock()
		t.Fatalf("votedFor = %q during quarantine, want none recorded", nd.votedFor)
	}
	nd.voteOKAt = time.Now() // quarantine elapsed
	nd.mu.Unlock()

	resp, err = parseVoteResp(nd.handleVote(req.marshal()))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Granted {
		t.Fatal("vote refused after the quarantine window elapsed")
	}
}

// A Propose whose commit deadline expires has an UNKNOWN outcome — the
// entry may still commit at this term later. The leader must step down
// (deposing the coordinator with it) rather than let the caller keep
// editing from pre-commit state and re-mint a map version. White-box:
// an unstarted node is forced leader with a valid lease and unreachable
// peers, so the commit can never arrive.
func TestProposeTimeoutStepsDown(t *testing.T) {
	nd, err := NewNode(Config{
		Self:     "a:1",
		Peers:    []string{"a:1", "b:1", "c:1"},
		LeaseTTL: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd.mu.Lock()
	nd.role = Leader
	nd.term = 1
	nd.hasLease = true
	nd.lease = time.Now().Add(time.Hour) // lease stays valid throughout
	nd.mu.Unlock()

	_, err = nd.Propose(Entry{Kind: EntryState, Shard: -1, Map: rawMap(1), Detail: "doomed"})
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("timed-out propose error = %v, want ErrNotLeader", err)
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.role != Follower {
		t.Fatalf("role = %s after ambiguous commit timeout, want follower (stepped down)", nd.role)
	}
}
