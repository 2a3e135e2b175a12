package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
)

// EditKind classifies a coordinator map edit for the replicated control
// plane (internal/ctrlplane): each kind maps onto one replicated-log
// entry kind, so a follower that wins the lease can replay the
// coordinator's decisions from the log alone.
type EditKind uint8

const (
	// EditSeed is the initial placement (version-1 map) committed by the
	// first leader so followers start from the same map.
	EditSeed EditKind = iota + 1
	// EditState is a membership-state annotation riding on the map.
	EditState
	// EditReassign moved a dead node's shards to ring successors.
	EditReassign
	// EditMovePrepare opened a MoveShard dual-ownership window.
	EditMovePrepare
	// EditMoveCutover made the move destination authoritative.
	EditMoveCutover
	// EditMoveRollback cleared a failed move's dual-ownership window.
	EditMoveRollback
	// EditMoveDone marks a completed move (no map change: the cutover
	// already carried it; this clears the in-flight move record).
	EditMoveDone
)

// EditRecord is one edit() product offered to CoordinatorConfig.Commit
// before the map is swapped in and installed: the replicated control
// plane's log entry payload. Map is nil for EditMoveDone (a pure
// state-machine transition with no new map version).
type EditRecord struct {
	Kind      EditKind
	Shard     int // -1 when not shard-scoped
	Src, Dest string
	Map       *Map
	Detail    string
}

// CoordinatorConfig configures the cluster control plane (the paper's
// §4.3 global controller, DESIGN.md §13).
type CoordinatorConfig struct {
	// Nodes lists the replica pairs under management (primary address
	// first by convention).
	Nodes []Node
	// NumShards and ShardBlocks define the sharded LBA space: NumShards
	// contiguous ranges of ShardBlocks 512-byte blocks each.
	NumShards   int
	ShardBlocks uint32
	// VNodes is the consistent-hash virtual-node count (0 = default).
	VNodes int
	// InstallTimeout bounds each control-plane exchange (default 5s).
	InstallTimeout time.Duration
	// Probe tunes the SWIM-lite failure detector.
	Probe MembershipConfig
	// AutoHeal reacts to dead nodes: promote the pair's backup when one
	// answers, otherwise reassign the dead node's shards over the
	// survivors and reinstall the map.
	AutoHeal bool
	// Reg optionally receives the coordinator's metrics: per-node
	// membership-state gauges, the map-version gauge and the shard_moves
	// counter.
	Reg *obs.Registry
	// Journal receives control-plane events (promotions, fencings,
	// reassignments, MoveShard phases). Auto-created when nil; read it
	// back via Coordinator.Journal.
	Journal *obs.Journal
	// TraceRing receives the migration sink's relay spans, linking a
	// traced write forwarded through a live MoveShard into its cross-node
	// timeline. Auto-created when nil; read via Coordinator.TraceRing.
	TraceRing *obs.Ring
	// Logf receives control-plane decisions (nil = silent).
	Logf func(format string, args ...any)
	// Dialer is the control-plane dial seam (nil: net.DialTimeout).
	Dialer protocol.DialFunc
	// Commit, when set, must durably commit the edit record before the
	// coordinator swaps the result in as authoritative and installs it —
	// the replicated control plane routes every edit through its quorum
	// log here. An error aborts the edit: the map is unchanged and
	// nothing installs, which is what fences a deposed leader (its
	// commits fail, so it can never mint a map version). Nil means
	// standalone operation: every edit commits trivially.
	Commit func(rec EditRecord) error
}

func (c *CoordinatorConfig) fill() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("shard: coordinator needs at least one node")
	}
	if c.NumShards <= 0 || c.ShardBlocks == 0 {
		return fmt.Errorf("shard: NumShards and ShardBlocks must be positive")
	}
	if c.InstallTimeout < 0 {
		return fmt.Errorf("shard: negative InstallTimeout %v", c.InstallTimeout)
	}
	if c.InstallTimeout == 0 {
		c.InstallTimeout = 5 * time.Second
	}
	if err := c.Probe.validate(); err != nil {
		return err
	}
	if len(c.Nodes) > maxNodes {
		return fmt.Errorf("shard: %d nodes exceed the wire-format max %d", len(c.Nodes), maxNodes)
	}
	seen := map[string]bool{}
	for _, n := range c.Nodes {
		if n.Name == "" || seen[n.Name] {
			return fmt.Errorf("shard: node names must be unique and non-empty")
		}
		seen[n.Name] = true
		if len(n.Addrs) == 0 {
			return fmt.Errorf("shard: node %s has no addresses", n.Name)
		}
		// Marshal packs these into u8/u16 fields; an oversized value would
		// silently truncate into a payload every Unmarshal refuses (or
		// worse, mis-parses), poisoning the whole control plane.
		if len(n.Name) > 255 {
			return fmt.Errorf("shard: node name %.16q… is %d bytes (max 255)", n.Name, len(n.Name))
		}
		if len(n.Addrs) > 255 {
			return fmt.Errorf("shard: node %s has %d addresses (max 255)", n.Name, len(n.Addrs))
		}
		for _, a := range n.Addrs {
			if len(a) > 65535 {
				return fmt.Errorf("shard: node %s has a %d-byte address (max 65535)", n.Name, len(a))
			}
		}
	}
	return nil
}

// Coordinator owns the authoritative shard map: placement over the
// consistent-hash ring, map installation on every node, failure
// reaction (pair promotion / shard reassignment), per-node SLO rate
// splits, and live shard migration (MoveShard, migrate.go).
type Coordinator struct {
	cfg CoordinatorConfig
	mem *Membership

	mu  sync.Mutex
	cur *Map

	// moveMu serializes live shard migrations (one MoveShard at a time).
	moveMu sync.Mutex

	// editMu serializes every read-modify-write of the authoritative map.
	// MoveShard (caller goroutine) and reassignDead/noteState (membership
	// goroutine, via onTransition) edit concurrently; without this, two
	// editors can Clone() the same base and swap() two different maps
	// carrying the same Version — servers adopt whichever installs first
	// and refuse the other as stale, silently diverging from the
	// coordinator's view. moveMu cannot serve here: it is held across the
	// whole (possibly minutes-long) move, and the membership goroutine
	// must not stall probing behind it.
	editMu sync.Mutex

	moves     atomic.Uint64
	promoted  atomic.Uint64
	reassigns atomic.Uint64
	repairs   atomic.Uint64

	// spanSeq mints relay span ids under the coordinator's own id-space
	// prefix (same partitioning scheme as the servers' metrics.spanID).
	spanSeq atomic.Uint64

	// stopCh aborts an in-flight MoveShard: phase 2's catch-up wait and
	// phase 4's drain poll both select on it, so Stop() never leaves a
	// dual-ownership window behind (rolled back pre-cutover, completed
	// after).
	stopCh   chan struct{}
	stopOnce sync.Once

	memStarted bool
}

// coordSpanBase prefixes relay span ids; FNV-1a 64 of "coord" shifted
// into the high bits, matching the per-node span-id partitioning in
// internal/server (wrapping shift: only the prefix has to be distinct).
const coordSpanBase = uint64(0x3ae7ae) << 40 // low 24 bits of fnv64a("coord")

// Journal returns the coordinator's control-plane event journal.
func (c *Coordinator) Journal() *obs.Journal { return c.cfg.Journal }

// TraceRing returns the ring holding the migration sink's relay spans.
func (c *Coordinator) TraceRing() *obs.Ring { return c.cfg.TraceRing }

func (c *Coordinator) spanID() uint64 {
	return coordSpanBase | (c.spanSeq.Add(1) & (1<<40 - 1))
}

// NewCoordinator builds the coordinator and its version-1 map (ring
// placement over all configured nodes). Nothing is installed yet; call
// InstallAll, then StartMembership.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	nodes := make([]Node, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		nodes[i] = Node{Name: n.Name, Addrs: append([]string(nil), n.Addrs...), State: StateAlive}
	}
	if cfg.Journal == nil {
		cfg.Journal = obs.NewJournal(1024)
	}
	if cfg.TraceRing == nil {
		cfg.TraceRing = obs.NewRing(4096, 16)
	}
	c := &Coordinator{cfg: cfg, stopCh: make(chan struct{})}
	c.cur = BuildMap(nodes, cfg.NumShards, cfg.ShardBlocks, cfg.VNodes)
	probe := cfg.Probe
	probe.Dialer = firstDialer(probe.Dialer, cfg.Dialer)
	probe.OnTransition = c.onTransition
	probe.OnPrimaryDown = c.onPrimaryDown
	c.mem = NewMembership(nodes, probe)
	if cfg.Reg != nil {
		c.registerMetrics(cfg.Reg)
	}
	return c, nil
}

func firstDialer(ds ...protocol.DialFunc) protocol.DialFunc {
	for _, d := range ds {
		if d != nil {
			return d
		}
	}
	return nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Map returns the current authoritative map (immutable).
func (c *Coordinator) Map() *Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// Membership exposes the failure detector (gauges, reflex-cli).
func (c *Coordinator) Membership() *Membership { return c.mem }

// Moves returns how many shard ownership changes the coordinator has
// pushed (map-diff accumulated across installs).
func (c *Coordinator) Moves() uint64 { return c.moves.Load() }

// swap installs nm as the coordinator's authoritative map, accounting
// the ownership diff.
func (c *Coordinator) swap(nm *Map) {
	c.mu.Lock()
	c.moves.Add(uint64(nm.DiffMoves(c.cur)))
	c.cur = nm
	c.mu.Unlock()
}

// edit atomically applies fn to the current map, commits the result
// through the configured Commit hook, and installs it as authoritative.
// fn runs under editMu — its base cannot be cloned by a concurrent
// editor — and may return nil to abort (the current map is kept and nil
// is returned). rec describes the edit for the replicated log; its Map
// field is filled with fn's product before the commit. A failed commit
// (deposed leader, lost quorum) also aborts: the map is unchanged,
// nothing installs. Every map mutation in the coordinator goes through
// here.
func (c *Coordinator) edit(rec EditRecord, fn func(cur *Map) *Map) *Map {
	c.editMu.Lock()
	defer c.editMu.Unlock()
	nm := fn(c.Map())
	if nm == nil {
		return nil
	}
	if c.cfg.Commit != nil {
		rec.Map = nm
		if err := c.cfg.Commit(rec); err != nil {
			c.logf("shard: edit %d (shard %d) commit refused: %v", rec.Kind, rec.Shard, err)
			return nil
		}
	}
	c.swap(nm)
	return nm
}

// commit offers a map-less edit record (EditMoveDone) to the Commit
// hook. Trivially succeeds in standalone operation.
func (c *Coordinator) commit(rec EditRecord) error {
	if c.cfg.Commit == nil {
		return nil
	}
	return c.cfg.Commit(rec)
}

// Adopt installs m as the coordinator's authoritative map iff it is
// newer than the current one — the replicated control plane's
// state-seeding path on leadership change. It deliberately bypasses the
// Commit hook: the map came OUT of the quorum-committed log, so
// re-committing it would double-append. Reports whether the map was
// adopted.
func (c *Coordinator) Adopt(m *Map) bool {
	c.editMu.Lock()
	defer c.editMu.Unlock()
	if m == nil || m.Version <= c.Map().Version {
		return false
	}
	c.swap(m)
	return true
}

// stopped reports whether Stop has been called.
func (c *Coordinator) stopped() bool {
	select {
	case <-c.stopCh:
		return true
	default:
		return false
	}
}

// Reconcile is the anti-entropy pass: it compares every live node's
// installed map version against the authoritative one and re-installs
// where stale (a node that missed an install while partitioned, or that
// a deposed leader fed an old version, converges here). Returns how
// many addresses were repaired. While a MoveShard is in flight the pass
// is skipped entirely: the move installs its maps in a deliberate
// destination-first order, and a concurrent Reconcile pushing the
// authoritative map to arbitrary addresses could e.g. fence writes off
// the source with the cutover map before the destination's install
// landed, briefly inverting that ordering.
func (c *Coordinator) Reconcile() int {
	if !c.moveMu.TryLock() {
		return 0 // a live move owns install ordering; next tick retries
	}
	defer c.moveMu.Unlock()
	m := c.Map()
	raw := m.Marshal()
	repaired := 0
	for _, n := range m.Nodes {
		if n.State == StateDead {
			continue
		}
		for _, addr := range n.Addrs {
			v, err := fetchMapVersion(c.cfg.Dialer, addr, c.cfg.InstallTimeout)
			if err != nil || v >= m.Version {
				continue
			}
			if _, err := installMap(c.cfg.Dialer, addr, c.cfg.InstallTimeout, raw); err != nil {
				c.logf("shard: reconcile %s (%s): %v", n.Name, addr, err)
				continue
			}
			repaired++
			c.repairs.Add(1)
			c.cfg.Journal.Record(obs.EvMapInstall, n.Name, -1,
				"anti-entropy repaired %s: v%d -> v%d", addr, v, m.Version)
		}
	}
	return repaired
}

// installOn pushes the current map to every address of the named nodes
// (every member of a pair holds the map: a promoted backup must enforce
// it immediately). A node counts as installed when at least one of its
// addresses accepted; errors on the rest are expected during failures.
func (c *Coordinator) installOn(m *Map, names ...string) error {
	raw := m.Marshal()
	var firstErr error
	for _, name := range names {
		ok := false
		var lastErr error
		for _, n := range m.Nodes {
			if n.Name != name {
				continue
			}
			for _, addr := range n.Addrs {
				if _, err := installMap(c.cfg.Dialer, addr, c.cfg.InstallTimeout, raw); err != nil {
					lastErr = err
					continue
				}
				ok = true
			}
		}
		if !ok && firstErr == nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("shard: node %s not in map", name)
			}
			firstErr = fmt.Errorf("shard: install on %s failed: %w", name, lastErr)
		}
	}
	return firstErr
}

// InstallAll pushes the current map to every node. Returns the first
// hard failure (a node none of whose addresses accepted) but installs
// on everyone regardless.
func (c *Coordinator) InstallAll() error {
	m := c.Map()
	names := make([]string, len(m.Nodes))
	for i, n := range m.Nodes {
		names[i] = n.Name
	}
	return c.installOn(m, names...)
}

// StartMembership launches the probe loop (Stop tears it down).
func (c *Coordinator) StartMembership() {
	c.mu.Lock()
	started := c.memStarted
	c.memStarted = true
	c.mu.Unlock()
	if !started {
		go c.mem.Run()
	}
}

// Stop halts the probe loop and deterministically resolves any
// in-flight MoveShard: pre-cutover the move aborts and rolls back its
// dual-ownership window; post-cutover it is already decided and Stop
// merely waits for the drain to exit. Stop returns only once the move
// goroutine has left moveMu — no Migrating window survives a stop.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.mu.Lock()
	started := c.memStarted
	c.mu.Unlock()
	if started {
		c.mem.Stop()
	}
	c.moveMu.Lock()
	//lint:ignore SA2001 acquiring moveMu is the synchronization: it
	// blocks until the aborted move has fully unwound.
	c.moveMu.Unlock()
}

// onTransition is the node-level failure-reaction policy, fired by the
// detector. Note that a pair whose primary died but whose backup still
// answers never transitions to Dead (the node is as healthy as its
// healthiest member) — that case is handled by onPrimaryDown, the
// detector's address-level trigger. Reaching Dead means every address is
// gone; a last-gasp promotion attempt is tried anyway (an address may
// have answered with the backup role just before the pair fell over, and
// flapping pairs recover through it), then the shards are reassigned.
func (c *Coordinator) onTransition(name string, from, to MemberState) {
	c.logf("shard: node %s: %s -> %s", name, from, to)
	c.noteState(name, to)
	if !c.cfg.AutoHeal || to != StateDead {
		return
	}
	if !c.tryPromote(name) {
		c.reassignDead(name)
	}
}

// onPrimaryDown is the address-level promotion trigger: the pair's
// primary address has missed DeadAfter consecutive probes while a
// backup-role address still answers. This — not the node-level Dead
// transition, which requires EVERY address dead and therefore excludes
// an alive backup — is the path that promotes in production.
func (c *Coordinator) onPrimaryDown(name string) {
	c.logf("shard: node %s: primary address dead, backup answering", name)
	if !c.cfg.AutoHeal {
		return
	}
	c.tryPromote(name)
}

// tryPromote promotes the named pair's answering backup to primary at
// the next epoch, fencing its peers. Reports whether a promotion
// happened.
func (c *Coordinator) tryPromote(name string) bool {
	addr, epoch, ok := c.mem.AliveBackup(name)
	if !ok {
		return false
	}
	e, err := promote(c.cfg.Dialer, addr, c.cfg.InstallTimeout, epoch+1)
	if err != nil {
		c.logf("shard: promote %s (%s): %v", name, addr, err)
		return false
	}
	c.promoted.Add(1)
	c.logf("shard: promoted %s (%s) to primary at epoch %d", name, addr, e)
	c.cfg.Journal.Record(obs.EvPromote, name, -1,
		"backup %s promoted to primary at epoch %d", addr, e)
	c.fencePeers(name, addr, e)
	return true
}

// noteState mirrors a node's membership state into the current map's
// node list (a copy at same version is not pushed — the state bits ride
// along with the next install). Routed through edit so a state
// annotation cannot race a concurrent Clone-and-swap and lose either
// side's change.
func (c *Coordinator) noteState(name string, st MemberState) {
	c.cfg.Journal.Record(obs.EvNodeState, name, -1, "membership state -> %s", st)
	rec := EditRecord{Kind: EditState, Shard: -1, Src: name,
		Detail: fmt.Sprintf("membership state -> %s", st)}
	c.edit(rec, func(cur *Map) *Map {
		idx := cur.NodeIndex(name)
		if idx < 0 {
			return nil
		}
		nm := *cur // shallow copy, then fresh node slice: keep Map immutable
		nm.Nodes = make([]Node, len(cur.Nodes))
		copy(nm.Nodes, cur.Nodes)
		nm.Nodes[idx].State = st
		return &nm
	})
}

// fencePeers sends a best-effort OpFence at epoch e to every other
// address of the named pair (the possibly-alive-but-slow old primary).
func (c *Coordinator) fencePeers(name, keep string, e uint16) {
	m := c.Map()
	for _, n := range m.Nodes {
		if n.Name != name {
			continue
		}
		for _, addr := range n.Addrs {
			if addr != keep {
				fence(c.cfg.Dialer, addr, c.cfg.InstallTimeout, e)
			}
		}
	}
	c.cfg.Journal.Record(obs.EvFence, name, -1, "peers fenced at epoch %d (kept %s)", e, keep)
}

// reassignDead moves a dead node's shards to their ring successors and
// reinstalls the map on the survivors. Consistent hashing means only
// the dead node's shards move.
func (c *Coordinator) reassignDead(name string) {
	var (
		idx   = -1
		moved int
	)
	rec := EditRecord{Kind: EditReassign, Shard: -1, Src: name,
		Detail: "dead-node shard reassignment"}
	nm := c.edit(rec, func(cur *Map) *Map {
		idx = cur.NodeIndex(name)
		if idx < 0 {
			return nil
		}
		n := cur.Reassign(idx, c.cfg.VNodes)
		moved = n.DiffMoves(cur)
		return n
	})
	if nm == nil {
		return
	}
	c.reassigns.Add(1)
	c.logf("shard: reassigned %d shards off dead node %s (map v%d)",
		moved, name, nm.Version)
	c.cfg.Journal.Record(obs.EvReassign, name, -1,
		"%d shards reassigned off dead node (map v%d)", moved, nm.Version)
	survivors := make([]string, 0, len(nm.Nodes))
	for i, n := range nm.Nodes {
		if i != idx && n.State != StateDead {
			survivors = append(survivors, n.Name)
		}
	}
	if err := c.installOn(nm, survivors...); err != nil {
		c.logf("shard: reassign install: %v", err)
	}
}

// RatesForSLO splits a cluster-wide latency-critical SLO into per-node
// token rates: each node's share of the cluster IOPS is proportional to
// the fraction of shards it owns (uniform key distribution — the ring's
// virtual nodes keep the split tight), then converted to a token rate
// through the device cost model exactly like single-node admission
// (§3.2.2). The result is what each node's operator passes as the
// tenant's rate when admitting the cluster tenant locally.
func (c *Coordinator) RatesForSLO(model core.CostModel, iops, readPercent int) map[string]core.Tokens {
	m := c.Map()
	owned := make(map[string]int)
	for _, o := range m.Assign {
		if o >= 0 {
			owned[m.Nodes[o].Name]++
		}
	}
	out := make(map[string]core.Tokens, len(owned))
	total := len(m.Assign)
	if total == 0 {
		return out
	}
	for name, k := range owned {
		nodeIOPS := (iops*k + total - 1) / total // ceil: never under-provision
		out[name] = model.RateForSLO(nodeIOPS, readPercent)
	}
	return out
}

// registerMetrics exposes the coordinator's view on an obs registry:
// shard_map_version, shard_moves and a per-node membership-state gauge
// (0 alive, 1 suspect, 2 dead).
func (c *Coordinator) registerMetrics(reg *obs.Registry) {
	reg.GaugeFunc("shard_map_version", "coordinator's authoritative shard-map version",
		func() float64 { return float64(c.Map().Version) })
	reg.CounterFunc("shard_moves", "shard ownership changes pushed by the coordinator",
		func() float64 { return float64(c.moves.Load()) })
	reg.CounterFunc("shard_promotions", "pair backups promoted after primary death",
		func() float64 { return float64(c.promoted.Load()) })
	reg.CounterFunc("shard_reassigns", "dead-node shard reassignments",
		func() float64 { return float64(c.reassigns.Load()) })
	reg.CounterFunc("shard_map_repairs", "stale installed maps repaired by anti-entropy",
		func() float64 { return float64(c.repairs.Load()) })
	for _, n := range c.cfg.Nodes {
		name := n.Name
		reg.GaugeFunc("shard_node_state", "membership state (0 alive, 1 suspect, 2 dead)",
			func() float64 { return float64(c.mem.State(name)) }, obs.L("node", name))
	}
}
