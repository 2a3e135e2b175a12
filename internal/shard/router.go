package shard

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
)

// Router errors.
var (
	// ErrNoTargets means a node's address list (or the seed list) was
	// empty after dropping blanks and duplicates.
	ErrNoTargets = errors.New("shard: no usable targets")
	// ErrNoMap means no seed served a shard map — the cluster has not
	// been initialised by a coordinator yet.
	ErrNoMap = errors.New("shard: no shard map available from any seed")
	// ErrUnassigned means the LBA falls in a shard with no owner (or
	// beyond the mapped space).
	ErrUnassigned = errors.New("shard: LBA range has no owning node")
	// ErrRedirectLoop means redirect-driven refreshes kept chasing a
	// moving map past the retry budget.
	ErrRedirectLoop = errors.New("shard: redirect retries exhausted")
)

// RouterConfig configures the client-side routing table.
type RouterConfig struct {
	// Seeds are bootstrap addresses used to fetch the first map (and as
	// refresh fallbacks if every mapped node stops answering). Blanks and
	// duplicates are dropped; empty-after-cleanup is ErrNoTargets.
	Seeds []string
	// Reg is the tenant registration presented to every node the router
	// talks to (the cluster tenant: same LBA window everywhere, the shard
	// map — not the registration ACL — decides who serves what).
	Reg protocol.Registration
	// Opts configures every per-node DialCluster pool.
	Opts client.Options
	// Metrics optionally receives router_map_version, router_redirects
	// and router_map_refreshes.
	Metrics *obs.Registry
	// Trace enables distributed tracing on every per-node client pool:
	// each routed I/O carries a trace trailer, and the pools record their
	// root spans into TraceRing.
	Trace     bool
	TraceRing *obs.Ring
	// Dialer is the map-fetch dial seam (nil: net.DialTimeout).
	Dialer protocol.DialFunc
}

const (
	// maxRedirects bounds StatusWrongShard-driven retries per operation.
	maxRedirects = 4
	// fetchTimeout bounds one map-fetch exchange.
	fetchTimeout = 5 * time.Second
)

// Router is the client-side shard routing table (DESIGN.md §13): it
// holds the latest shard map it has seen, keeps one DialCluster pool per
// owning node (every shard resolves to its owner's pool, so pools are
// shared across shards), fetches the map on first miss and refreshes it
// when a node answers StatusWrongShard. Refreshes are single-flight: a
// redirect storm from a stale map collapses into one fetch sweep.
type Router struct {
	cfg RouterConfig

	mu    sync.Mutex
	cur   *Map
	pools map[string]*routerPool
	done  bool

	refMu sync.Mutex // single-flight map refresh

	redirects atomic.Uint64
	refreshes atomic.Uint64
}

// routerPool is one node's lazily-dialed DialCluster pool plus the
// router's tenant handle on it.
type routerPool struct {
	node     string
	addrsKey string
	once     sync.Once
	cl       *client.Client
	handle   uint16
	err      error
}

// NewRouter validates the seed list; the first operation (or an explicit
// Refresh) fetches the map.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg.Seeds = dedupeTargets(cfg.Seeds)
	if len(cfg.Seeds) == 0 {
		return nil, fmt.Errorf("%w: seed list empty", ErrNoTargets)
	}
	r := &Router{cfg: cfg, pools: make(map[string]*routerPool)}
	if cfg.Metrics != nil {
		cfg.Metrics.GaugeFunc("router_map_version", "router's shard-map version",
			func() float64 {
				if m := r.Map(); m != nil {
					return float64(m.Version)
				}
				return 0
			})
		cfg.Metrics.CounterFunc("router_redirects", "wrong-shard redirects chased by the router",
			func() float64 { return float64(r.redirects.Load()) })
		cfg.Metrics.CounterFunc("router_map_refreshes", "shard-map refresh sweeps",
			func() float64 { return float64(r.refreshes.Load()) })
	}
	return r, nil
}

// dedupeTargets drops blank and duplicate addresses, preserving order.
func dedupeTargets(addrs []string) []string {
	out := make([]string, 0, len(addrs))
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		out = append(out, a)
	}
	return out
}

// Map returns the router's current map (nil before the first fetch).
func (r *Router) Map() *Map {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// Redirects returns how many StatusWrongShard answers the router has
// chased; Refreshes how many map-fetch sweeps it has run.
func (r *Router) Redirects() uint64 { return r.redirects.Load() }
func (r *Router) Refreshes() uint64 { return r.refreshes.Load() }

// Refresh fetches the newest map visible from the mapped nodes and the
// seeds, adopting it if it advances past staleVersion. Single-flight:
// concurrent callers behind the same stale map ride one sweep.
func (r *Router) Refresh(staleVersion uint32) (*Map, error) {
	r.refMu.Lock()
	defer r.refMu.Unlock()
	if m := r.Map(); m != nil && m.Version > staleVersion {
		return m, nil // a concurrent refresh already got us past stale
	}
	r.refreshes.Add(1)
	var addrs []string
	if m := r.Map(); m != nil {
		for _, n := range m.Nodes {
			addrs = append(addrs, n.Addrs...)
		}
	}
	addrs = dedupeTargets(append(addrs, r.cfg.Seeds...))
	var best *Map
	var lastErr error
	for _, a := range addrs {
		m, err := fetchMap(r.cfg.Dialer, a, fetchTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		if m != nil && (best == nil || m.Version > best.Version) {
			best = m
		}
	}
	if best == nil {
		if lastErr != nil {
			return nil, fmt.Errorf("%w (last: %v)", ErrNoMap, lastErr)
		}
		return nil, ErrNoMap
	}
	r.adopt(best)
	return r.Map(), nil
}

// adopt installs m if newer, drops pools of nodes that vanished or moved
// addresses, and re-stamps the surviving pools' shard version.
func (r *Router) adopt(m *Map) {
	var stale []*routerPool
	r.mu.Lock()
	if r.cur != nil && m.Version <= r.cur.Version {
		m = r.cur
	} else {
		r.cur = m
	}
	for name, p := range r.pools {
		ni := m.NodeIndex(name)
		if ni < 0 || addrsKey(m.Nodes[ni].Addrs) != p.addrsKey {
			stale = append(stale, p)
			delete(r.pools, name)
			continue
		}
		if p.cl != nil {
			p.cl.SetShardVersion(m.Version)
		}
	}
	r.mu.Unlock()
	for _, p := range stale {
		if p.cl != nil {
			p.cl.Close()
		}
	}
}

func addrsKey(addrs []string) string { return strings.Join(dedupeTargets(addrs), "\x00") }

// pool returns the (lazily dialed) pool for node index ni of map m.
func (r *Router) pool(m *Map, ni int) (*routerPool, error) {
	name := m.Nodes[ni].Name
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return nil, client.ErrClosed
	}
	p := r.pools[name]
	if p == nil {
		p = &routerPool{node: name, addrsKey: addrsKey(m.Nodes[ni].Addrs)}
		r.pools[name] = p
	}
	r.mu.Unlock()

	p.once.Do(func() {
		addrs := dedupeTargets(m.Nodes[ni].Addrs)
		if len(addrs) == 0 {
			p.err = fmt.Errorf("%w: node %s", ErrNoTargets, name)
			return
		}
		opts := r.cfg.Opts
		if r.cfg.Trace {
			opts.Trace = true
			opts.TraceRing = r.cfg.TraceRing
		}
		cl, err := client.DialCluster(addrs, opts)
		if err != nil {
			p.err = fmt.Errorf("shard: dial node %s: %w", name, err)
			return
		}
		cl.SetShardVersion(m.Version)
		h, err := cl.Register(r.cfg.Reg)
		if err != nil {
			cl.Close()
			p.err = fmt.Errorf("shard: register on node %s: %w", name, err)
			return
		}
		p.cl, p.handle = cl, h
	})
	if p.err != nil {
		// Drop the failed entry so the next operation redials rather than
		// being pinned to a dead pool forever.
		r.mu.Lock()
		if r.pools[name] == p {
			delete(r.pools, name)
		}
		r.mu.Unlock()
		return nil, p.err
	}
	return p, nil
}

// route runs op against the owner of [lba, lba+blocks), chasing
// wrong-shard redirects through map refreshes up to the retry budget.
func (r *Router) route(lba uint32, blocks uint32, op func(p *routerPool) error) error {
	var lastVer uint32
	for attempt := 0; attempt <= maxRedirects; attempt++ {
		m := r.Map()
		if m == nil {
			var err error
			if m, err = r.Refresh(0); err != nil {
				return err
			}
		}
		lastVer = m.Version
		oi := -1
		if s := m.Shard(uint64(lba)); s >= 0 {
			if o := m.Assign[s]; o >= 0 && int(o) < len(m.Nodes) {
				oi = int(o)
			}
		}
		if oi < 0 {
			return fmt.Errorf("%w: lba %d", ErrUnassigned, lba)
		}
		if blocks > 1 && !m.ownedByIndex(oi, uint64(lba), blocks) {
			// The range straddles a shard boundary into foreign territory;
			// no single node can serve it.
			return fmt.Errorf("%w: range [%d,+%d) crosses shard ownership", ErrUnassigned, lba, blocks)
		}
		p, err := r.pool(m, oi)
		if err != nil {
			return err
		}
		err = op(p)
		if !errors.Is(err, client.ErrWrongShard) {
			return err
		}
		r.redirects.Add(1)
		if _, err := r.Refresh(m.Version); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w after %d attempts (last map v%d)", ErrRedirectLoop, maxRedirects+1, lastVer)
}

func blocksFor(n int) uint32 {
	b := uint32((n + protocol.BlockSize - 1) / protocol.BlockSize)
	if b == 0 {
		b = 1
	}
	return b
}

// Read reads n bytes at lba from the shard owner.
func (r *Router) Read(lba uint32, n int) ([]byte, error) {
	var data []byte
	err := r.route(lba, blocksFor(n), func(p *routerPool) error {
		d, err := p.cl.Read(p.handle, lba, n)
		data = d
		return err
	})
	return data, err
}

// Write writes data at lba on the shard owner.
func (r *Router) Write(lba uint32, data []byte) error {
	return r.route(lba, blocksFor(len(data)), func(p *routerPool) error {
		return p.cl.Write(p.handle, lba, data)
	})
}

// Node returns the routed client and tenant handle for lba — escape
// hatch for callers that need the richer Client API (async calls,
// barriers, stats) while still following the map. The handle is only
// valid against the returned client.
func (r *Router) Node(lba uint32) (*client.Client, uint16, error) {
	var cl *client.Client
	var h uint16
	err := r.route(lba, 1, func(p *routerPool) error {
		cl, h = p.cl, p.handle
		return nil
	})
	return cl, h, err
}

// Close tears down every pool. The router is unusable afterwards.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return nil
	}
	r.done = true
	pools := make([]*routerPool, 0, len(r.pools))
	for _, p := range r.pools {
		pools = append(pools, p)
	}
	r.pools = map[string]*routerPool{}
	r.mu.Unlock()
	var firstErr error
	for _, p := range pools {
		if p.cl != nil {
			if err := p.cl.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
