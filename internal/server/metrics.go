package server

import (
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
)

// metrics is the real server's telemetry: atomic counters and histograms
// on the request path (allocation-free, safe across core loops and the
// goroutines that complete off them), read-side gauges over atomics, plus
// the per-request span trace ring.
//
// Scheduler and tenant internals are goroutine-confined to their thread,
// so none of the functions registered here touch them; cross-goroutine
// stats reads go through atomics only — this is what keeps the stats path
// race-free under `go test -race`.
type metrics struct {
	reg  *obs.Registry
	ring *obs.Ring

	reads      *obs.Counter
	writes     *obs.Counter
	responses  *obs.Counter
	rejected   *obs.Counter
	errored    *obs.Counter
	barriers   *obs.Counter
	registered *obs.Counter
	removed    *obs.Counter
	bytesRead  *obs.Counter
	bytesWrite *obs.Counter

	readLat  *obs.Histogram
	writeLat *obs.Histogram

	spans *obs.Counter  // spans recorded into the ring
	seq   atomic.Uint64 // span ID allocator
	// nodeBase is folded into every span ID so two nodes' per-process
	// sequences (both starting near zero) cannot mint the same span ID —
	// cross-node stitching links hops by span identity, so a collision
	// would graft one request's hop onto another request's tree.
	nodeBase uint64
	// journal is the structured cluster event log served at /events.
	journal *obs.Journal

	// Failure-hardening counters (the chaos-soak acceptance trio).
	faults *obs.Counter // faults injected by the configured injector
	shed   *obs.Counter // best-effort requests refused under overload
	reaped *obs.Counter // connections reaped on idle timeout

	// Cluster robustness counters (DESIGN.md §11).
	checksumErrs  *obs.Counter // writes refused on CRC32C mismatch
	staleRejects  *obs.Counter // writes refused on epoch fence
	promotions    *obs.Counter // successful promotions to primary
	fencings      *obs.Counter // times this server was deposed
	replForwarded *obs.Counter // writes forwarded to the backup
	replAcked     *obs.Counter // backup acks received
	replApplied   *obs.Counter // replicated writes applied (backup side)
	replJoins     *obs.Counter // backup join sessions accepted

	// Sharding counters (DESIGN.md §13).
	wrongShard    *obs.Counter // I/Os refused with StatusWrongShard (redirects)
	shardInstalls *obs.Counter // shard-map installs adopted
	shardMoves    *obs.Counter // shards whose owner changed across installs
	migrForwarded *obs.Counter // writes forwarded to a migration sink
	migrAcked     *obs.Counter // migration sink acks received
	migrJoins     *obs.Counter // ranged migration joins accepted

	// Volume-layer counters (DESIGN.md §18).
	volOps         *obs.Counter // volume lifecycle ops (create/delete/snap/clone/stream)
	volStreamBytes *obs.Counter // snapshot-diff stream bytes acked by receivers
	trims          *obs.Counter // OpTrim requests served

	// Cluster-internal traffic, labeled by path so fleet aggregation can
	// separate client load from replication applies and migration-relay
	// forwards (DESIGN.md §14).
	replPathReqs  *obs.Counter   // srv_requests_total{op=write,path=replicate}
	replPathBytes *obs.Counter   // srv_bytes_total{op=write,path=replicate}
	migrPathReqs  *obs.Counter   // srv_requests_total{op=write,path=migrate}
	migrPathBytes *obs.Counter   // srv_bytes_total{op=write,path=migrate}
	replAckLag    *obs.Histogram // primary->replica forward ack lag

	// Per-shard request counters (srv_shard_requests_total{shard,op}),
	// registered lazily as shard maps install. The slice is swapped
	// atomically so the request path reads it without a lock.
	shardMu  sync.Mutex
	shardOps atomic.Value // []*shardOpCounts

	// Per-tenant SLO burn gauges (srv_tenant_slo_burn{tenant}), registered
	// once per tenant ID on first registration; the gauge func reads live
	// tenant state so ID reuse after unregister stays correct.
	burnMu   sync.Mutex
	burnSeen map[int]bool

	// Write lifetime hints carried on the wire (DESIGN.md §17), indexed by
	// protocol.HintNone/HintShort/HintLong. These count what clients
	// declared, whether or not the backend does placement with them.
	hintWrites [3]*obs.Counter

	// Hot-path batching telemetry (DESIGN.md §12): how well the adaptive
	// wire coalescer and the per-pass batch amortize per-message costs.
	flushes    *obs.Counter   // writev calls issued
	flushBatch *obs.Histogram // responses completed per writev
	schedBatch *obs.Histogram // requests ingested per core pass
}

// shardOpCounts is one shard's request counters, incremented with atomics
// on the request path and read by lazily registered CounterFuncs.
type shardOpCounts struct {
	reads  atomic.Uint64
	writes atomic.Uint64
}

// spanID allocates a cluster-unique span ID: the node-name hash in the
// high bits, the per-process sequence in the low 40 (a trillion requests
// before wrap — and even then IDs only matter within a trace's lifetime
// in the bounded span rings).
func (m *metrics) spanID() uint64 {
	return m.nodeBase | (m.seq.Add(1) & (1<<40 - 1))
}

// ensureShardSlots grows the per-shard counter table to n shards,
// registering srv_shard_requests_total{shard,op} for each new slot.
// Called from InstallShardMap; idempotent and monotonic (slots are never
// removed — a shrunk map's stale slots just stop moving).
func (m *metrics) ensureShardSlots(n int) {
	if n <= 0 {
		return
	}
	m.shardMu.Lock()
	defer m.shardMu.Unlock()
	cur, _ := m.shardOps.Load().([]*shardOpCounts)
	if len(cur) >= n {
		return
	}
	grown := make([]*shardOpCounts, n)
	copy(grown, cur)
	for i := len(cur); i < n; i++ {
		sc := &shardOpCounts{}
		grown[i] = sc
		lbl := obs.L("shard", strconv.Itoa(i))
		m.reg.CounterFunc("srv_shard_requests_total", "I/O requests received per shard",
			func() float64 { return float64(sc.reads.Load()) }, lbl, obs.L("op", "read"))
		m.reg.CounterFunc("srv_shard_requests_total", "",
			func() float64 { return float64(sc.writes.Load()) }, lbl, obs.L("op", "write"))
	}
	m.shardOps.Store(grown)
}

// noteShardOp bumps one shard's request counter (lock-free: the slot
// table is read through an atomic.Value).
func (m *metrics) noteShardOp(shard int, write bool) {
	ops, _ := m.shardOps.Load().([]*shardOpCounts)
	if shard < 0 || shard >= len(ops) {
		return
	}
	if write {
		ops[shard].writes.Add(1)
	} else {
		ops[shard].reads.Add(1)
	}
}

// burnWindow is how many recent spans the SLO burn gauge scans per read.
const burnWindow = 512

// ensureTenantBurn registers srv_tenant_slo_burn{tenant=id} on the first
// registration of that tenant ID. The gauge computes the tenant's SLO
// error-budget burn rate on demand: the fraction of its spans in the
// recent ring window exceeding its p95 latency SLO, divided by the 5%
// budget (1.0 = burning the budget exactly, >1 = violating the SLO).
func (m *metrics) ensureTenantBurn(s *Server, id int) {
	m.burnMu.Lock()
	defer m.burnMu.Unlock()
	if m.burnSeen[id] {
		return
	}
	m.burnSeen[id] = true
	m.reg.GaugeFunc("srv_tenant_slo_burn", "SLO error-budget burn rate (frac over p95 SLO / 5% budget)",
		func() float64 {
			slo := s.tenantSLO(id)
			if slo <= 0 {
				return 0
			}
			var n, over int
			for _, sp := range m.ring.Recent(burnWindow) {
				if sp.Tenant != id {
					continue
				}
				n++
				if sp.Total() > slo {
					over++
				}
			}
			if n == 0 {
				return 0
			}
			return float64(over) / float64(n) / 0.05
		}, obs.L("tenant", strconv.Itoa(id)))
}

// tenantSLO returns the tenant's p95 latency SLO in nanoseconds (0 for
// best-effort, unknown or unregistered tenants). Lock-free: one atomic
// registry lookup.
func (s *Server) tenantSLO(id int) int64 {
	st, ok := s.tenants.lookup(uint16(id))
	if !ok || st.t.Class != core.LatencyCritical {
		return 0
	}
	return st.t.SLO.LatencyP95
}

func newMetrics(s *Server) *metrics {
	reg := obs.NewRegistry()
	reg.SetClock(s.now)
	h := fnv.New64a()
	h.Write([]byte(s.cfg.NodeName))
	m := &metrics{
		reg:      reg,
		ring:     obs.NewRing(4096, 16),
		journal:  obs.NewJournal(1024),
		nodeBase: h.Sum64() << 40,
		burnSeen: make(map[int]bool),
	}
	m.reads = reg.Counter("srv_requests_total", "I/O requests received", obs.L("op", "read"))
	m.writes = reg.Counter("srv_requests_total", "", obs.L("op", "write"))
	m.responses = reg.Counter("srv_responses_total", "I/O responses sent")
	m.rejected = reg.Counter("srv_rejected_total", "requests rejected before scheduling (ACL, bad request)")
	m.errored = reg.Counter("srv_errors_total", "backend I/O errors")
	m.barriers = reg.Counter("srv_barriers_total", "barrier operations received")
	m.registered = reg.Counter("srv_tenants_registered_total", "successful tenant registrations")
	m.removed = reg.Counter("srv_tenants_unregistered_total", "tenant unregistrations")
	m.bytesRead = reg.Counter("srv_bytes_total", "payload bytes served", obs.L("op", "read"))
	m.bytesWrite = reg.Counter("srv_bytes_total", "", obs.L("op", "write"))
	m.readLat = reg.Histogram("srv_request_latency_ns", "arrival-to-response latency", obs.L("op", "read"))
	m.writeLat = reg.Histogram("srv_request_latency_ns", "", obs.L("op", "write"))
	m.spans = reg.Counter("srv_spans_total", "request spans recorded")
	if inj := s.cfg.Faults; inj != nil {
		m.faults = reg.CounterFunc("faults_injected", "faults injected by the chaos injector",
			func() float64 { return float64(inj.Injected()) })
	} else {
		m.faults = reg.Counter("faults_injected", "faults injected by the chaos injector")
	}
	m.shed = reg.Counter("requests_shed", "best-effort requests refused under overload (LC is never shed)")
	m.reaped = reg.Counter("conns_reaped", "connections reaped on idle timeout")
	m.checksumErrs = reg.Counter("checksum_errors", "payload CRC32C mismatches detected")
	m.staleRejects = reg.Counter("stale_epoch_rejects", "writes refused by the epoch fence")
	m.promotions = reg.Counter("cluster_promotions", "successful promotions to primary")
	m.fencings = reg.Counter("cluster_fencings", "times this server was deposed")
	m.replForwarded = reg.Counter("repl_forwarded", "acked writes forwarded to the backup")
	m.replAcked = reg.Counter("repl_acked", "backup replication acks received")
	m.replApplied = reg.Counter("repl_applied", "replicated writes applied (backup role)")
	m.replJoins = reg.Counter("repl_joins", "backup join sessions accepted")
	m.volOps = reg.Counter("vol_ops", "volume lifecycle operations (create/delete/snapshot/clone/stream)")
	m.volStreamBytes = reg.Counter("vol_stream_bytes", "snapshot-diff stream bytes acked by receivers")
	m.trims = reg.Counter("trims", "OpTrim discard requests served")
	m.wrongShard = reg.Counter("wrong_shard_redirects", "I/Os refused with StatusWrongShard (stale client routing)")
	m.shardInstalls = reg.Counter("shard_map_installs", "shard-map installs adopted over OpShardMap")
	m.shardMoves = reg.Counter("shard_moves", "shards whose authoritative owner changed across map installs")
	m.migrForwarded = reg.Counter("migr_forwarded", "acked writes forwarded to a migration sink")
	m.migrAcked = reg.Counter("migr_acked", "migration sink acks received")
	m.migrJoins = reg.Counter("migr_joins", "ranged migration join sessions accepted")
	m.replPathReqs = reg.Counter("srv_requests_total", "", obs.L("op", "write"), obs.L("path", "replicate"))
	m.replPathBytes = reg.Counter("srv_bytes_total", "", obs.L("op", "write"), obs.L("path", "replicate"))
	m.migrPathReqs = reg.Counter("srv_requests_total", "", obs.L("op", "write"), obs.L("path", "migrate"))
	m.migrPathBytes = reg.Counter("srv_bytes_total", "", obs.L("op", "write"), obs.L("path", "migrate"))
	m.replAckLag = reg.Histogram("repl_ack_lag_ns", "forward-to-ack lag of replication/migration forwards")
	reg.GaugeFunc("migr_pending", "migration forwards awaiting a sink ack (drain signal)",
		func() float64 { return float64(s.migr.Pending()) })
	reg.GaugeFunc("shard_map_version", "version of the installed shard map (0 = none)",
		func() float64 { return float64(s.ShardMapVersion()) })
	m.hintWrites[protocol.HintNone] = reg.Counter("srv_hinted_writes_total", "writes by declared lifetime hint", obs.L("hint", "none"))
	m.hintWrites[protocol.HintShort] = reg.Counter("srv_hinted_writes_total", "", obs.L("hint", "short"))
	m.hintWrites[protocol.HintLong] = reg.Counter("srv_hinted_writes_total", "", obs.L("hint", "long"))
	if s.cache != nil {
		s.cache.RegisterMetrics(reg)
	}
	m.flushes = reg.Counter("srv_wire_flushes_total", "writev calls issued on connections")
	m.flushBatch = reg.Histogram("srv_flush_batch_msgs", "responses coalesced per wire flush")
	m.schedBatch = reg.Histogram("srv_sched_batch", "requests ingested per core pass")
	for c := 0; c < bufpool.NumClasses; c++ {
		c := c
		lbl := obs.L("class", strconv.Itoa(bufpool.ClassSize(c)))
		reg.CounterFunc("bufpool_hits", "pooled buffer gets served from the pool",
			func() float64 { return float64(bufpool.Stats()[c].Hits) }, lbl)
		reg.CounterFunc("bufpool_misses", "pooled buffer gets that allocated",
			func() float64 { return float64(bufpool.Stats()[c].Misses) }, lbl)
	}
	reg.CounterFunc("bufpool_unpooled", "oversize buffer gets that bypassed the pool",
		func() float64 { return float64(bufpool.Unpooled()) })
	reg.GaugeFunc("cluster_epoch", "current cluster epoch",
		func() float64 { return float64(s.ClusterEpoch()) })
	reg.GaugeFunc("cluster_fenced", "1 when deposed (writes refused)",
		func() float64 {
			if s.fenced.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("cluster_backup_role", "1 while serving as replication backup",
		func() float64 {
			if s.backupRole.Load() {
				return 1
			}
			return 0
		})

	reg.GaugeFunc("srv_tenants", "live tenants", func() float64 {
		return float64(s.tenants.live.Load())
	})
	reg.GaugeFunc("srv_conns", "live TCP connections", func() float64 {
		return float64(s.connCount.Load())
	})
	for _, pc := range s.cores {
		pc := pc
		lbl := obs.L("core", strconv.Itoa(pc.id))
		reg.GaugeFunc("srv_core_queue_depth", "requests queued in the core's schedulers",
			func() float64 { return float64(pc.backlog.Load()) }, lbl)
		reg.GaugeFunc("srv_core_conns", "connections pinned to the core",
			func() float64 { return float64(pc.nconns.Load()) }, lbl)
		reg.GaugeFunc("srv_core_tenants", "tenants pinned to the core",
			func() float64 { return float64(pc.ntenants.Load()) }, lbl)
		reg.GaugeFunc("srv_core_token_debt", "aggregate token debt published by the core (mt)",
			func() float64 { return float64(pc.debt.Load()) }, lbl)
		reg.CounterFunc("srv_core_flushes_total", "writev calls issued by the core",
			func() float64 { return float64(pc.flushes.Load()) }, lbl)
		reg.CounterFunc("srv_core_flush_msgs_total", "responses written by the core",
			func() float64 { return float64(pc.flushMsgs.Load()) }, lbl)
	}
	for _, d := range s.devices {
		lbl := obs.L("device", strconv.Itoa(d.idx))
		core.RegisterSharedMetrics(reg, d.shared, lbl)
		d := d
		reg.GaugeFunc("srv_device_readonly_mode", "1 when the cost model is in read-only fast mode",
			func() float64 {
				if s.readOnlyProbe(d) {
					return 1
				}
				return 0
			}, lbl)
	}
	return m
}

// Metrics returns the server's telemetry registry. Every exported value is
// safe to scrape from any goroutine while the server runs.
func (s *Server) Metrics() *obs.Registry { return s.m.reg }

// TraceRing returns the per-request span ring and slow-request log.
func (s *Server) TraceRing() *obs.Ring { return s.m.ring }

// EventJournal exposes the node's structured event journal for HTTP
// mounting (/events) and tests.
func (s *Server) EventJournal() *obs.Journal { return s.m.journal }

// StartSampler begins periodic wall-clock sampling of SLO-relevant server
// state: per-op interval p95, throughput, queue depths and per-device
// token-bucket levels. The returned stop function halts the ticker (taking
// one final sample) and returns the series; it is safe to call once.
func (s *Server) StartSampler(period time.Duration) (*obs.Series, func()) {
	series := obs.NewSeries("server")
	series.AddColumn("read_p95_us", obs.WindowedHistQuantile(s.m.readLat, 0.95))
	series.AddColumn("write_p95_us", obs.WindowedHistQuantile(s.m.writeLat, 0.95))
	series.AddColumn("iops", obs.WindowedRate(s.m.responses.Value, s.now))
	series.AddColumn("requests_total", func() float64 {
		return s.m.reads.Value() + s.m.writes.Value()
	})
	for _, pc := range s.cores {
		pc := pc
		series.AddColumn("q"+strconv.Itoa(pc.id),
			func() float64 { return float64(pc.backlog.Load()) })
	}
	for _, d := range s.devices {
		d := d
		series.AddColumn("bucket"+strconv.Itoa(d.idx)+"_tokens",
			func() float64 { return float64(d.shared.Bucket.Tokens()) })
	}
	stop := series.StartTicker(period, s.now)
	return series, stop
}
