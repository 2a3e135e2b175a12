package shard

import (
	"fmt"
	"sync"
	"time"

	"github.com/reflex-go/reflex/internal/protocol"
)

// MembershipConfig tunes the SWIM-lite failure detector. "Lite" because
// the cluster is a handful of pairs steered by one coordinator: direct
// probes from the coordinator suffice, so the gossip/indirect-probe
// machinery of full SWIM (see the consul model in /root/related) is
// deliberately omitted — the alive → suspect → dead state machine and
// the probe pacing are what matter here.
type MembershipConfig struct {
	// Interval paces probe rounds when Run drives them (default 250ms).
	Interval time.Duration
	// Timeout bounds one probe exchange (default 1s).
	Timeout time.Duration
	// SuspectAfter is how many consecutive missed probes mark an address
	// suspect (default 1); DeadAfter marks it dead (default 3).
	SuspectAfter int
	DeadAfter    int
	// OnTransition fires on every node-level state change (after the
	// round that caused it), outside the membership lock.
	OnTransition func(node string, from, to MemberState)
	// OnPrimaryDown fires (once per outage episode, outside the lock)
	// when a node's primary-role address has missed DeadAfter consecutive
	// probes while a backup-role address still answers. This is the
	// promotion trigger: the node-level state cannot express it — a pair
	// is as healthy as its healthiest member, so an answering backup
	// keeps the node Alive and no node-level transition ever fires for a
	// dead primary. The latch re-arms when the dead address recovers.
	OnPrimaryDown func(node string)
	// Dialer is the probe dial seam (nil: net.DialTimeout).
	Dialer protocol.DialFunc
}

func (c *MembershipConfig) fill() {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter + 2
	}
}

// validate rejects explicitly-broken probe tuning before fill() papers
// over it with defaults. Zero values keep the documented defaults;
// negative durations/counts, and an explicit DeadAfter at or below the
// effective SuspectAfter (which fill would silently bump, hiding a
// config that never reaches Dead when the operator meant it to), are
// config bugs and refuse to start.
func (c *MembershipConfig) validate() error {
	if c.Interval < 0 {
		return fmt.Errorf("shard: negative probe Interval %v", c.Interval)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("shard: negative probe Timeout %v", c.Timeout)
	}
	if c.SuspectAfter < 0 {
		return fmt.Errorf("shard: negative SuspectAfter %d", c.SuspectAfter)
	}
	if c.DeadAfter < 0 {
		return fmt.Errorf("shard: negative DeadAfter %d", c.DeadAfter)
	}
	effSuspect := c.SuspectAfter
	if effSuspect == 0 {
		effSuspect = 1
	}
	if c.DeadAfter != 0 && c.DeadAfter <= effSuspect {
		return fmt.Errorf("shard: DeadAfter %d must exceed SuspectAfter %d",
			c.DeadAfter, effSuspect)
	}
	return nil
}

// AddrHealth is one probed address's last-known condition.
type AddrHealth struct {
	Addr    string
	Misses  int
	State   MemberState
	Epoch   uint16
	Role    uint32 // RoleBackupBit / RoleFencedBit from the last answer
	Pending uint32 // migration forwards awaiting a sink ack
}

// memberNode is one pair under observation.
type memberNode struct {
	name  string
	addrs []AddrHealth
	state MemberState
	// primaryDownFired latches the OnPrimaryDown callback for the current
	// outage episode; it re-arms when no primary-role address is dead.
	primaryDownFired bool
}

// primaryDown reports whether the node currently has a dead primary-role
// address alongside an alive backup-role address — the promotable-outage
// condition. An address that never answered a probe has Role 0 and
// counts as primary (addresses list the primary first by convention, and
// a member we have never heard from must be assumed to hold the role it
// was deployed with).
func (n *memberNode) primaryDown() (deadPrimary, aliveBackup bool) {
	for _, ah := range n.addrs {
		isBackup := ah.Role&protocol.RoleBackupBit != 0
		if ah.State == StateDead && !isBackup {
			deadPrimary = true
		}
		if ah.State == StateAlive && isBackup {
			aliveBackup = true
		}
	}
	return deadPrimary, aliveBackup
}

// Membership is the coordinator's failure detector: it probes every
// address of every node and aggregates per-node state (a pair is as
// healthy as its healthiest member — one answering address keeps the
// node out of Dead, because the pair can be promoted around a dead
// primary).
type Membership struct {
	cfg MembershipConfig

	mu    sync.Mutex
	nodes []*memberNode

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewMembership builds a detector over the given nodes (all initially
// Alive). It does not start probing; call Run (goroutine) or Tick
// (manual pacing, tests).
func NewMembership(nodes []Node, cfg MembershipConfig) *Membership {
	cfg.fill()
	m := &Membership{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	for _, n := range nodes {
		mn := &memberNode{name: n.Name, state: StateAlive}
		for _, a := range n.Addrs {
			mn.addrs = append(mn.addrs, AddrHealth{Addr: a, State: StateAlive})
		}
		m.nodes = append(m.nodes, mn)
	}
	return m
}

// Run drives probe rounds at the configured interval until Stop.
func (m *Membership) Run() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.Tick()
		}
	}
}

// Stop halts Run (idempotent) and waits for the in-flight round.
func (m *Membership) Stop() {
	m.once.Do(func() { close(m.stop) })
	<-m.done
}

// Tick runs one probe round: every address of every node, transitions
// applied, node-level callbacks fired. Probes within a round run
// sequentially — the cluster is small and the coordinator is the only
// prober.
func (m *Membership) Tick() {
	m.mu.Lock()
	type target struct{ node, addr int }
	var targets []target
	for ni, n := range m.nodes {
		for ai := range n.addrs {
			targets = append(targets, target{ni, ai})
		}
	}
	m.mu.Unlock()

	results := make([]probeResult, len(targets))
	for i, t := range targets {
		m.mu.Lock()
		addr := m.nodes[t.node].addrs[t.addr].Addr
		m.mu.Unlock()
		results[i] = probe(m.cfg.Dialer, addr, m.cfg.Timeout)
	}

	type transition struct {
		node     string
		from, to MemberState
	}
	var fired []transition
	var primaryDown []string
	m.mu.Lock()
	for i, t := range targets {
		ah := &m.nodes[t.node].addrs[t.addr]
		r := results[i]
		if r.err != nil {
			ah.Misses++
		} else {
			ah.Misses = 0
			ah.Epoch, ah.Role, ah.Pending = r.epoch, r.role, r.pending
		}
		switch {
		case ah.Misses >= m.cfg.DeadAfter:
			ah.State = StateDead
		case ah.Misses >= m.cfg.SuspectAfter:
			ah.State = StateSuspect
		default:
			ah.State = StateAlive
		}
	}
	for _, n := range m.nodes {
		best := StateDead
		for _, ah := range n.addrs {
			if ah.State < best {
				best = ah.State
			}
		}
		if len(n.addrs) == 0 {
			best = StateDead
		}
		if best != n.state {
			fired = append(fired, transition{n.name, n.state, best})
			n.state = best
		}
		deadPrimary, aliveBackup := n.primaryDown()
		switch {
		case deadPrimary && aliveBackup && !n.primaryDownFired:
			n.primaryDownFired = true
			primaryDown = append(primaryDown, n.name)
		case !deadPrimary:
			n.primaryDownFired = false // episode over: re-arm
		}
	}
	m.mu.Unlock()
	if m.cfg.OnTransition != nil {
		for _, tr := range fired {
			m.cfg.OnTransition(tr.node, tr.from, tr.to)
		}
	}
	if m.cfg.OnPrimaryDown != nil {
		for _, name := range primaryDown {
			m.cfg.OnPrimaryDown(name)
		}
	}
}

// State returns a node's aggregated state (StateDead for unknown names).
func (m *Membership) State(name string) MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range m.nodes {
		if n.name == name {
			return n.state
		}
	}
	return StateDead
}

// Snapshot returns every node's per-address health, for gauges and the
// reflex-cli ring view.
func (m *Membership) Snapshot() map[string][]AddrHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]AddrHealth, len(m.nodes))
	for _, n := range m.nodes {
		out[n.name] = append([]AddrHealth(nil), n.addrs...)
	}
	return out
}

// AliveBackup returns an answering address of the node whose last probe
// reported the backup role — the promotion target when the pair's
// primary is gone — along with the epoch it reported. ok is false when
// no such address exists.
func (m *Membership) AliveBackup(name string) (addr string, epoch uint16, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range m.nodes {
		if n.name != name {
			continue
		}
		for _, ah := range n.addrs {
			if ah.State == StateAlive && ah.Role&protocol.RoleBackupBit != 0 {
				return ah.Addr, ah.Epoch, true
			}
		}
	}
	return "", 0, false
}
