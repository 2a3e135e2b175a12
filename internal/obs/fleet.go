package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Fleet aggregation (DESIGN.md §14, layer 3): a scraper polls every
// node's /snapshot endpoint and folds the per-node registries into one
// cluster-wide view — per-shard IOPS, redirect rate, replication
// ack-lag, migration progress, per-tenant SLO burn. Rates are computed
// from counter deltas between successive polls against the scraper's own
// wall clock, so the per-node registry clocks (ns since server start)
// never need to be comparable.

// FleetNode names one scrape target: the node name and its /snapshot
// URL (e.g. "http://10.0.0.1:9090/snapshot").
type FleetNode struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// NodeView is one node's slice of the cluster view.
type NodeView struct {
	Name string `json:"name"`
	// Err is non-empty when the poll failed; the rest of the fields are
	// then stale/zero.
	Err        string  `json:"err,omitempty"`
	Epoch      int     `json:"epoch"`
	Backup     bool    `json:"backup,omitempty"`
	Fenced     bool    `json:"fenced,omitempty"`
	MapVersion int     `json:"map_version"`
	Conns      int     `json:"conns"`
	Tenants    int     `json:"tenants"`
	ClientIOPS float64 `json:"client_iops"`
	// InternalIOPS is cluster-internal write load: replication applies
	// (path="replicate") plus migration-relay forwards (path="migrate") —
	// the traffic per-tenant request metrics used to undercount.
	InternalIOPS float64 `json:"internal_iops"`
	RedirectsPS  float64 `json:"redirects_ps"`
	ShedPS       float64 `json:"shed_ps"`
	// AckLagP95NS is the p95 of the primary->backup replication ack lag.
	AckLagP95NS int64 `json:"ack_lag_p95_ns"`
	// MigrPending is the node's in-flight migration forwards awaiting a
	// sink ack (the MoveShard drain signal).
	MigrPending int `json:"migr_pending"`
	// MigrForwardPS is the rate of writes the node is relaying into a
	// live migration window.
	MigrForwardPS float64 `json:"migr_forward_ps"`
}

// CtrlView is one control-plane replica's health, parsed from its
// ctrl_* gauges. PeerLag is only populated on the leader: commit_index
// minus the replicated match index per follower (entries the follower
// still has to catch up).
type CtrlView struct {
	Node        string `json:"node"`
	Role        string `json:"role"`
	Term        int    `json:"term"`
	LeaseValid  bool   `json:"lease_valid"`
	CommitIndex int    `json:"commit_index"`
	LastIndex   int    `json:"last_index"`
	MapVersion  int    `json:"map_version"`
	// Leader is the peer address this replica believes holds the lease.
	Leader  string         `json:"leader,omitempty"`
	PeerLag map[string]int `json:"peer_lag,omitempty"`
}

// ShardView is one shard's aggregate load across every node that served
// it during the poll interval (source and destination both contribute
// during a live move).
type ShardView struct {
	Shard     int     `json:"shard"`
	ReadIOPS  float64 `json:"read_iops"`
	WriteIOPS float64 `json:"write_iops"`
	// Nodes lists the serving nodes this interval, busiest first.
	Nodes []string `json:"nodes,omitempty"`
}

// TenantView is one tenant's SLO burn on one node.
type TenantView struct {
	Node   string `json:"node"`
	Tenant int    `json:"tenant"`
	// Burn is the tenant's SLO error-budget burn rate: the fraction of
	// its recent requests exceeding its p95 latency SLO, divided by the
	// 5% budget. 1.0 = consuming the budget exactly; >1 = violating.
	Burn float64 `json:"burn"`
}

// ClusterView is the fleet-wide aggregate served at /cluster.
type ClusterView struct {
	TimeNS int64 `json:"time_ns"`
	// IntervalNS is the rate base: time since the previous poll (0 on
	// the first poll — rates are then zero).
	IntervalNS int64        `json:"interval_ns"`
	Nodes      []NodeView   `json:"nodes"`
	Ctrl       []CtrlView   `json:"ctrl,omitempty"`
	Shards     []ShardView  `json:"shards,omitempty"`
	Tenants    []TenantView `json:"tenants,omitempty"`
}

// fleetSample is one node's previous scrape (for rate deltas).
type fleetSample struct {
	at       time.Time
	counters map[string]float64
}

// Fleet polls a set of nodes' /snapshot endpoints into ClusterViews.
type Fleet struct {
	client *http.Client

	mu    sync.Mutex
	nodes []FleetNode
	prev  map[string]fleetSample
	last  *ClusterView
}

// NewFleet creates a scraper over the given nodes.
func NewFleet(nodes []FleetNode) *Fleet {
	return &Fleet{
		client: &http.Client{Timeout: 5 * time.Second},
		nodes:  append([]FleetNode(nil), nodes...),
		prev:   make(map[string]fleetSample),
	}
}

// metricKey builds the identity of one metric instance within a dump.
func metricKey(m *SnapshotMetric) string {
	if len(m.Labels) == 0 {
		return m.Name
	}
	keys := make([]string, 0, len(m.Labels))
	for k := range m.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := m.Name
	for _, k := range keys {
		s += "|" + k + "=" + m.Labels[k]
	}
	return s
}

// Poll scrapes every node once and returns the aggregated view. Rates
// need two polls: the first returns zero rates with IntervalNS 0.
func (f *Fleet) Poll() *ClusterView {
	f.mu.Lock()
	nodes := append([]FleetNode(nil), f.nodes...)
	f.mu.Unlock()

	type result struct {
		node FleetNode
		dump *SnapshotDump
		err  error
	}
	results := make([]result, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n FleetNode) {
			defer wg.Done()
			results[i] = result{node: n}
			resp, err := f.client.Get(n.URL)
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results[i].err = fmt.Errorf("status %s", resp.Status)
				return
			}
			var dump SnapshotDump
			if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
				results[i].err = err
				return
			}
			results[i].dump = &dump
		}(i, n)
	}
	wg.Wait()

	now := time.Now()
	view := &ClusterView{TimeNS: now.UnixNano()}
	shardAgg := map[int]*ShardView{}
	shardNodes := map[int]map[string]float64{}

	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range results {
		nv := NodeView{Name: r.node.Name}
		if r.err != nil {
			nv.Err = r.err.Error()
			view.Nodes = append(view.Nodes, nv)
			continue
		}
		cur := fleetSample{at: now, counters: map[string]float64{}}
		prev, hasPrev := f.prev[r.node.Name]
		var dt float64
		if hasPrev {
			dt = now.Sub(prev.at).Seconds()
			if iv := now.Sub(prev.at).Nanoseconds(); iv > view.IntervalNS {
				view.IntervalNS = iv
			}
		}
		rate := func(key string, v float64) float64 {
			cur.counters[key] = v
			if !hasPrev || dt <= 0 {
				return 0
			}
			d := v - prev.counters[key]
			if d < 0 {
				return 0 // counter reset (node restart)
			}
			return d / dt
		}
		var cv *CtrlView
		ctrlMatch := map[string]int{}
		ctrl := func() *CtrlView {
			if cv == nil {
				cv = &CtrlView{Node: nv.Name, Role: "follower"}
			}
			return cv
		}
		for i := range r.dump.Metrics {
			m := &r.dump.Metrics[i]
			key := metricKey(m)
			switch m.Name {
			case "cluster_epoch":
				nv.Epoch = int(m.Value)
			case "cluster_backup_role":
				nv.Backup = m.Value != 0
			case "cluster_fenced":
				nv.Fenced = m.Value != 0
			case "shard_map_version":
				// Served both by nodes (gauge, no labels) and by a
				// coordinator registry (per-node labels); only adopt the
				// node's own.
				if len(m.Labels) == 0 {
					nv.MapVersion = int(m.Value)
				}
			case "srv_conns":
				nv.Conns = int(m.Value)
			case "srv_tenants":
				nv.Tenants = int(m.Value)
			case "srv_requests_total":
				if m.Labels["path"] == "" {
					nv.ClientIOPS += rate(key, m.Value)
				} else {
					nv.InternalIOPS += rate(key, m.Value)
				}
			case "wrong_shard_redirects":
				nv.RedirectsPS = rate(key, m.Value)
			case "requests_shed":
				nv.ShedPS = rate(key, m.Value)
			case "repl_ack_lag_ns":
				if m.Hist != nil {
					nv.AckLagP95NS = m.Hist.P95
				}
			case "migr_pending":
				nv.MigrPending = int(m.Value)
			case "migr_forwarded":
				nv.MigrForwardPS = rate(key, m.Value)
			case "srv_shard_requests_total":
				shard, err := strconv.Atoi(m.Labels["shard"])
				if err != nil {
					continue
				}
				r := rate(key, m.Value)
				sv := shardAgg[shard]
				if sv == nil {
					sv = &ShardView{Shard: shard}
					shardAgg[shard] = sv
					shardNodes[shard] = map[string]float64{}
				}
				if m.Labels["op"] == "write" {
					sv.WriteIOPS += r
				} else {
					sv.ReadIOPS += r
				}
				shardNodes[shard][nv.Name] += r
			case "ctrl_term":
				ctrl().Term = int(m.Value)
			case "ctrl_role":
				switch int(m.Value) {
				case 2:
					ctrl().Role = "leader"
				case 1:
					ctrl().Role = "candidate"
				default:
					ctrl().Role = "follower"
				}
			case "ctrl_lease_valid":
				ctrl().LeaseValid = m.Value != 0
			case "ctrl_commit_index":
				ctrl().CommitIndex = int(m.Value)
			case "ctrl_last_index":
				ctrl().LastIndex = int(m.Value)
			case "ctrl_map_version":
				ctrl().MapVersion = int(m.Value)
			case "ctrl_leader_is":
				if m.Value != 0 {
					ctrl().Leader = m.Labels["peer"]
				}
			case "ctrl_peer_match":
				ctrl()
				ctrlMatch[m.Labels["peer"]] = int(m.Value)
			case "srv_tenant_slo_burn":
				ten, err := strconv.Atoi(m.Labels["tenant"])
				if err != nil {
					continue
				}
				view.Tenants = append(view.Tenants, TenantView{
					Node: nv.Name, Tenant: ten, Burn: m.Value,
				})
			}
		}
		if cv != nil {
			// Per-follower lag is a leader-side view: commit index minus
			// the follower's replicated match (followers export zeros).
			if cv.Role == "leader" && len(ctrlMatch) > 0 {
				cv.PeerLag = make(map[string]int, len(ctrlMatch))
				for peer, match := range ctrlMatch {
					lag := cv.CommitIndex - match
					if lag < 0 {
						lag = 0
					}
					cv.PeerLag[peer] = lag
				}
			}
			view.Ctrl = append(view.Ctrl, *cv)
		}
		f.prev[r.node.Name] = cur
		view.Nodes = append(view.Nodes, nv)
	}

	for shard, sv := range shardAgg {
		byLoad := shardNodes[shard]
		names := make([]string, 0, len(byLoad))
		for n, load := range byLoad {
			if load > 0 {
				names = append(names, n)
			}
		}
		sort.Slice(names, func(i, j int) bool {
			if byLoad[names[i]] != byLoad[names[j]] {
				return byLoad[names[i]] > byLoad[names[j]]
			}
			return names[i] < names[j]
		})
		sv.Nodes = names
		view.Shards = append(view.Shards, *sv)
	}
	sort.Slice(view.Ctrl, func(i, j int) bool { return view.Ctrl[i].Node < view.Ctrl[j].Node })
	sort.Slice(view.Shards, func(i, j int) bool { return view.Shards[i].Shard < view.Shards[j].Shard })
	sort.Slice(view.Tenants, func(i, j int) bool {
		if view.Tenants[i].Node != view.Tenants[j].Node {
			return view.Tenants[i].Node < view.Tenants[j].Node
		}
		return view.Tenants[i].Tenant < view.Tenants[j].Tenant
	})
	f.last = view
	return view
}

// Handler serves the fleet view as JSON (mount at /cluster). Every GET
// triggers a fresh poll sweep; rates cover the gap since the previous
// request, so a dashboard polling at its display interval gets rates
// over exactly that window.
func (f *Fleet) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		view := f.Poll()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(view)
	})
}
