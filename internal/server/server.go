// Package server implements a real TCP/UDP ReFlex server: the
// production-path counterpart of the simulated dataplane. It speaks the
// internal/protocol wire format, enforces per-tenant ACLs (§4.1 "Security
// model"), supports ordering barriers, and runs the same QoS scheduler as
// the simulator (internal/core) on a set of shared-nothing per-core event
// loops, one tenant per core (§4.1). A server may front several devices;
// each device gets an independent scheduler instance with its own token
// accounting (§3.2.2).
//
// Dataplane structure (DESIGN.md §15): each core is one goroutine, locked
// to its OS thread, that polls its connections with epoll and runs every
// request from read to writev without a hand-off. Connections pin to a
// core at accept time and tenants to their connection's core; cores share
// only atomics (the global token bucket, the tenant registry, gauges) and
// each other's inboxes. The server is Linux-only (epoll, eventfd, timerfd).
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/reflex-go/reflex/internal/cluster"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/ctrl"
	"github.com/reflex-go/reflex/internal/faults"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/readcache"
	"github.com/reflex-go/reflex/internal/storage"
	"github.com/reflex-go/reflex/internal/volume"
)

// DeviceConfig describes one flash device behind the server.
type DeviceConfig struct {
	// Backend stores the device's bytes.
	Backend storage.Backend
	// Model is the device's calibrated cost model.
	Model core.CostModel
	// TokenRate is the token generation rate (mt/s) at the strictest
	// latency SLO this device accepts.
	TokenRate core.Tokens
	// ReadOnlyWindow is how long after the last write the cost model
	// treats the device as read-only (0 disables the discount).
	ReadOnlyWindow time.Duration
}

func (d *DeviceConfig) validate(i int) error {
	if d.Backend == nil {
		return fmt.Errorf("server: device %d: nil backend", i)
	}
	if d.TokenRate <= 0 {
		return fmt.Errorf("server: device %d: TokenRate must be positive", i)
	}
	if err := d.Model.Validate(); err != nil {
		return fmt.Errorf("server: device %d: %w", i, err)
	}
	return nil
}

// Config configures a server.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// UDPAddr optionally enables the datagram endpoint on this address.
	UDPAddr string
	// Cores is the number of shared-nothing per-core event loops (1..64):
	// one epoll goroutine per core, owning one scheduler per device and
	// the connections pinned to it.
	Cores int
	// SchedInterval bounds the time between scheduling rounds while
	// requests are queued.
	SchedInterval time.Duration
	// ReadLatency/WriteLatency optionally delay the device operation to
	// emulate flash on fast in-memory backends (useful in examples,
	// demos, and the barrier tests).
	ReadLatency  time.Duration
	WriteLatency time.Duration

	// Model, TokenRate and ReadOnlyWindow describe device 0 when the
	// single-device New constructor is used.
	Model          core.CostModel
	TokenRate      core.Tokens
	ReadOnlyWindow time.Duration

	// IdleTimeout reaps TCP connections with no inbound traffic, so a
	// half-open peer cannot keep its tenant registrations forever. 0
	// selects the 2-minute default; negative disables reaping.
	IdleTimeout time.Duration
	// WriteTimeout tears down a connection whose pending responses made no
	// progress for this long: a peer that stopped reading. 0 selects the
	// 10-second default; negative disables it.
	WriteTimeout time.Duration

	// Faults optionally injects faults at every connection read and write
	// (drops, stalls and jitter that mute one connection, partial I/O,
	// resets, corruption) and per device request (errors, timeout pulses),
	// counted as the faults_injected metric.
	Faults *faults.Injector

	// Shed refuses new best-effort I/O with StatusOverloaded while a
	// core's scheduler backlog (default watermark DefaultShedQueueHigh),
	// the token debt or the connection count is over its limit.
	// Latency-critical tenants are never shed.
	Shed ctrl.ShedConfig

	// CacheBytes enables the tiered DRAM read cache (internal/readcache,
	// DESIGN.md §17) in front of every device: capacity in bytes, rounded
	// down to 4KB blocks. Hits are served from DRAM on the pcore, charged
	// the cache-service cost instead of a device read; every write path
	// (client, replication, migration) invalidates through the backend
	// wrapper before the write is acknowledged. 0 disables the cache.
	CacheBytes int64
	// CacheAdmit selects the cache admission policy: "cost" (default —
	// admit a block only when its observed re-reference traffic, priced
	// by the device cost model, pays for the fill), "always", or "never".
	CacheAdmit string

	// VolumeBytes reserves this many bytes at the top of device 0 as the
	// logical-volume extent pool (internal/volume, DESIGN.md §18),
	// enabling the OpVol* opcodes: thin-provisioned volumes, CoW
	// snapshots, clones and snapshot-diff streams. 0 disables volumes.
	// The pool range is carved out of the device; raw-LBA tenants should
	// be ACL-bounded below it.
	VolumeBytes int64
	// VolumeExtentBlocks sets the extent size in 512B blocks (default
	// volume.DefaultExtentBlocks = 128 → 64 KiB extents). Must be a
	// multiple of 8 so extents stay 4KiB-aligned for the read cache.
	VolumeExtentBlocks int

	// NodeName identifies this server (pair) in a sharded cluster's shard
	// map (DESIGN.md §13). Empty disables shard enforcement entirely: the
	// server serves its whole device like a pre-sharding node even if a
	// map is installed.
	NodeName string

	// Epoch seeds the cluster epoch (0 = standalone; see internal/cluster
	// and DESIGN.md §11).
	Epoch uint16
	// BackupRole starts the server as a replication backup: it refuses
	// client writes (StatusStaleEpoch), applies the primary's replication
	// stream to device 0, and serves client reads (the hedged-read
	// target) until promoted.
	BackupRole bool
}

// Default failure-hardening parameters.
const (
	// DefaultIdleTimeout reaps connections idle longer than this.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultWriteTimeout bounds one response write.
	DefaultWriteTimeout = 10 * time.Second
)

// DefaultShedQueueHigh is the default shed watermark on one core's
// scheduler backlog (requests queued for tokens).
const DefaultShedQueueHigh = 3072

func (c *Config) fill() error {
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.Cores > 64 {
		return fmt.Errorf("server: at most 64 cores")
	}
	if c.SchedInterval <= 0 {
		c.SchedInterval = 200 * time.Microsecond
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.Shed.QueueHigh == 0 {
		c.Shed.QueueHigh = DefaultShedQueueHigh
	}
	return nil
}

// sdevice is one device's runtime state.
type sdevice struct {
	idx     int
	backend storage.Backend
	cfg     DeviceConfig
	shared  *core.SharedState
	// lcReserved is guarded by Server.regMu (registration slow path only;
	// never touched per request).
	lcReserved core.Tokens
	lastWrite  atomic.Int64
}

// Server is a running ReFlex server.
type Server struct {
	cfg     Config
	devices []*sdevice
	ln      net.Listener
	cores   []*pcore
	// sweepEvery paces each core's idle/write-timeout sweep (0: none).
	sweepEvery time.Duration
	// udpFD is the UDP socket (-1 when disabled), polled by core 0; udpMu
	// keeps Close from closing it under a reply.
	udpMu   sync.RWMutex
	udpFD   int
	udpAddr string
	start   time.Time
	m       *metrics      // registry and span ring (internal/obs)
	shed    *ctrl.Shedder // consulted on every best-effort I/O
	// cache is the tiered DRAM read cache (nil when disabled). Probed at
	// dispatch, filled on aligned 4KB read completions, invalidated by
	// the cachedBackend wrapper around every device backend.
	cache *readcache.Cache
	// vols is the logical-volume manager (nil when Config.VolumeBytes is
	// zero). Built over device 0's *wrapped* backend so every volume
	// write — in-place or CoW — invalidates the read cache at its
	// physical blocks before the ack, which is what makes physical cache
	// keys safe across CoW remaps.
	vols *volume.Manager

	// Cluster robustness state (internal/cluster; DESIGN.md §11). cmu
	// serializes epoch transitions (promote/fence) so role and epoch move
	// together; reads go through the atomics.
	cmu        sync.Mutex
	epoch      atomic.Uint32 // current cluster epoch (uint16 range)
	fenced     atomic.Bool   // deposed primary: writes refused
	backupRole atomic.Bool   // replication backup: client writes refused
	onPromote  atomic.Value  // func(uint16)
	repl       *cluster.Replicator
	// migr is the migration-source replicator: a second forward stream,
	// attached by a ranged OpJoin, that carries one shard's catch-up and
	// live writes to a migration sink during a live shard move
	// (DESIGN.md §13). Independent of repl so a node can host a backup
	// session and a migration session at once.
	migr *cluster.Replicator
	// shardMap holds the installed *shard.Map (nil until one arrives over
	// OpShardMap). Immutable once stored; installs swap the pointer.
	shardMap atomic.Value

	// tenants is the atomics-only tenant registry: lookup on the request
	// path is one atomic load (see registry.go).
	tenants *tenantTable
	// regMu serializes registration admission (per-device lcReserved
	// accounting). Registration and unregistration only — the I/O path
	// never takes it.
	regMu sync.Mutex

	// connMu guards the connection set used by accept, teardown and
	// Close. The request path reads only connCount (the shed signal's
	// connection indicator), never the map.
	connMu    sync.Mutex
	conns     map[*srvConn]struct{}
	connCount atomic.Int64

	// The control goroutine's queue: volume ops, shard-map installs,
	// joins, promotions, and the tenants of torn-down connections.
	// Unbounded, so a core never waits on it.
	ctlMu   sync.Mutex
	ctlJobs []func()
	ctlKick chan struct{}

	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once
}

// stenant couples a scheduler tenant with its wire registration (the ACL),
// core binding, and barrier sequencer state.
type stenant struct {
	t      *core.Tenant
	reg    protocol.Registration
	coreID int
	device int
	rate   core.Tokens
	// vol binds the tenant to a logical volume (Registration.Volume != 0):
	// its OpRead/OpWrite/OpTrim LBAs are volume-logical and the pcore
	// routes its I/O through the extent map instead of raw device offsets.
	// Immutable after registration — the hot path reads it without locks.
	vol *volume.Volume

	mu          sync.Mutex
	outstanding int
	seq         []seqItem
	// dead marks a tenant torn down (unregistered or its connection
	// reaped); the sequencer drops held work instead of leaking waiters.
	dead bool
	// live is true while the tenant is registered with its core's
	// scheduler; only that core's loop touches it.
	live bool
}

// New starts a single-device server listening on cfg.Addr over backend,
// with the device described by cfg.Model/TokenRate/ReadOnlyWindow.
func New(cfg Config, backend storage.Backend) (*Server, error) {
	return NewMulti(cfg, []DeviceConfig{{
		Backend:        backend,
		Model:          cfg.Model,
		TokenRate:      cfg.TokenRate,
		ReadOnlyWindow: cfg.ReadOnlyWindow,
	}})
}

// NewMulti starts a server fronting several devices. Registration selects
// a device by index; each device runs an independent scheduler instance
// per core with its own token rate (§3.2.2).
func NewMulti(cfg Config, devices []DeviceConfig) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(devices) == 0 || len(devices) > 256 {
		return nil, fmt.Errorf("server: need 1..256 devices, have %d", len(devices))
	}
	for i := range devices {
		if err := devices[i].validate(i); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		ln:      ln,
		start:   time.Now(),
		udpFD:   -1,
		tenants: &tenantTable{},
		conns:   make(map[*srvConn]struct{}),
		ctlKick: make(chan struct{}, 1),
		done:    make(chan struct{}),
		shed:    ctrl.NewShedder(cfg.Shed),
	}
	fail := func(err error) (*Server, error) {
		ln.Close()
		for _, pc := range s.cores {
			pc.closeFDs()
		}
		if s.udpFD >= 0 {
			syscall.Close(s.udpFD)
		}
		return nil, err
	}
	for _, d := range []time.Duration{cfg.IdleTimeout, cfg.WriteTimeout} {
		if d > 0 && (s.sweepEvery == 0 || d/4 < s.sweepEvery) {
			s.sweepEvery = min(max(d/4, time.Millisecond), 100*time.Millisecond)
		}
	}
	s.epoch.Store(uint32(cfg.Epoch))
	s.backupRole.Store(cfg.BackupRole)
	for i, dc := range devices {
		s.devices = append(s.devices, &sdevice{
			idx:     i,
			backend: dc.Backend,
			cfg:     dc,
			shared:  core.NewSharedState(cfg.Cores, dc.TokenRate),
		})
	}
	if cfg.CacheBytes >= readcache.BlockSize {
		mode, err := readcache.ParseMode(cfg.CacheAdmit)
		if err != nil {
			return fail(err)
		}
		// Admission prices hits by device 0's model (multi-device servers
		// share one cache; per-device pricing only shifts the hurdle).
		model := s.devices[0].cfg.Model
		s.cache, err = readcache.New(readcache.Config{
			Blocks:   int(cfg.CacheBytes / readcache.BlockSize),
			Mode:     mode,
			ReadCost: model.ReadCost,
			HitCost:  model.CacheServeCost(),
		})
		if err != nil {
			return fail(err)
		}
		// Every write (client, replication, migration) invalidates before
		// it is acked; the replicators below capture the wrapped backends.
		for _, d := range s.devices {
			d.backend = &cachedBackend{Backend: d.backend, cache: s.cache, dev: d.idx}
		}
	}
	if cfg.VolumeBytes > 0 {
		devBytes := s.devices[0].backend.Size()
		if cfg.VolumeBytes > devBytes {
			return fail(fmt.Errorf("server: volume pool %d bytes exceeds device 0 (%d)", cfg.VolumeBytes, devBytes))
		}
		poolBlocks := uint64(cfg.VolumeBytes) / protocol.BlockSize
		// Over the wrapped backend, so volume writes invalidate physically.
		mgr, err := volume.NewManager(volume.Config{
			Backend:      s.devices[0].backend,
			FirstBlock:   uint64(devBytes)/protocol.BlockSize - poolBlocks,
			Blocks:       poolBlocks,
			ExtentBlocks: uint32(cfg.VolumeExtentBlocks),
		})
		if err != nil {
			return fail(err)
		}
		s.vols = mgr
	}
	for i := 0; i < cfg.Cores; i++ {
		pc, err := newCore(s, i)
		s.cores = append(s.cores, pc)
		if err != nil {
			return fail(err)
		}
	}
	if cfg.UDPAddr != "" {
		uc, err := net.ListenPacket("udp", cfg.UDPAddr)
		if err == nil {
			s.udpAddr = uc.LocalAddr().String()
			s.udpFD, err = takeFD(uc.(*net.UDPConn)) // polled by core 0
		}
		if err == nil {
			err = s.cores[0].ctl(syscall.EPOLL_CTL_ADD, s.udpFD, slotUDP, syscall.EPOLLIN)
		}
		if err != nil {
			return fail(err)
		}
	}
	s.m = newMetrics(s) // gauges over the cores and devices above
	// A standalone server's replicator simply never attaches a backup.
	s.repl = cluster.NewReplicator(cluster.ReplicatorConfig{
		Backend:   s.devices[0].backend,
		Epoch:     s.ClusterEpoch,
		OnStale:   func(e uint16) { s.Fence(e) },
		OnForward: func() { s.m.replForwarded.Inc() },
		OnAck:     func() { s.m.replAcked.Inc() },
	})
	// Migration source (DESIGN.md §13): the sink relays chunks as ordinary
	// writes, so they stay well under MaxPayload; a stale ack from it is the
	// coordinator's problem, not a deposition, hence no OnStale.
	s.migr = cluster.NewReplicator(cluster.ReplicatorConfig{
		Backend:    s.devices[0].backend,
		Epoch:      s.ClusterEpoch,
		OnForward:  func() { s.m.migrForwarded.Inc() },
		OnAck:      func() { s.m.migrAcked.Inc() },
		ChunkBytes: 128 << 10,
	})
	s.wg.Add(len(s.cores) + 2)
	for _, pc := range s.cores {
		go pc.run()
	}
	go s.ctlLoop()
	go s.acceptLoop()
	return s, nil
}

// takeFD moves a socket out of the Go runtime's poller: a close-on-exec
// duplicate (sharing the nonblocking file) goes to a core's epoll set and
// the original is closed, so the runtime's netpoller is not woken for
// traffic only the core reads.
func takeFD(c net.Conn) (int, error) {
	rc, err := c.(syscall.Conn).SyscallConn()
	fd := -1
	if err == nil {
		err = rc.Control(func(raw uintptr) {
			nfd, _, e := syscall.Syscall(syscall.SYS_FCNTL, raw, syscall.F_DUPFD_CLOEXEC, 0)
			if fd = int(nfd); e != 0 {
				fd, err = -1, e
			}
		})
	}
	c.Close()
	return fd, err
}

// Addr returns the bound TCP listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// UDPAddr returns the bound UDP address, or "" when UDP is disabled.
func (s *Server) UDPAddr() string { return s.udpAddr }

// Devices returns the number of devices this server fronts.
func (s *Server) Devices() int { return len(s.devices) }

// Cores returns the number of per-core event loops.
func (s *Server) Cores() int { return len(s.cores) }

// Shared exposes a device's scheduler shared state (tests and stats).
func (s *Server) Shared(device int) *core.SharedState {
	return s.devices[device].shared
}

// now returns monotonic nanoseconds since server start.
func (s *Server) now() int64 { return int64(time.Since(s.start)) }

func (s *Server) readOnlyProbe(d *sdevice) bool {
	if d.cfg.ReadOnlyWindow <= 0 {
		return false
	}
	last := d.lastWrite.Load()
	return last == 0 || s.now()-last > int64(d.cfg.ReadOnlyWindow)
}

// Close shuts the server down: stops accepting, wakes every core loop to
// retire its queued requests and close its connections, and waits for all
// goroutines.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.connMu.Lock()
		close(s.done)
		s.connMu.Unlock()
		s.ln.Close()
		for _, pc := range s.cores {
			pc.post(inItem{fn: func() {}})
		}
	})
	s.wg.Wait()
	s.udpMu.Lock()
	if s.udpFD >= 0 {
		syscall.Close(s.udpFD)
		s.udpFD = -1
	}
	s.udpMu.Unlock()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		if fd, err := takeFD(c); err == nil {
			s.newConn(fd)
		}
	}
}

// control queues fn for the control goroutine; it never blocks.
func (s *Server) control(fn func()) {
	s.ctlMu.Lock()
	s.ctlJobs = append(s.ctlJobs, fn)
	s.ctlMu.Unlock()
	select {
	case s.ctlKick <- struct{}{}:
	default:
	}
}

// ctlLoop is the control goroutine: it runs queued jobs in order until
// Close, when the jobs still queued are dropped with their connections.
func (s *Server) ctlLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.ctlKick:
		}
		// A job queued after this swap kicks again.
		s.ctlMu.Lock()
		jobs := s.ctlJobs
		s.ctlJobs = nil
		s.ctlMu.Unlock()
		for _, fn := range jobs {
			fn()
		}
	}
}

// shedNow reports whether a best-effort request for ten should be refused
// now; latency-critical tenants never are. The indicators — the tenant
// core's scheduler backlog, the token debt and the connection count — are
// atomics the cores publish every pass.
func (s *Server) shedNow(ten *stenant) bool {
	if ten.t.Class != core.BestEffort {
		return false
	}
	var debt core.Tokens
	for _, pc := range s.cores {
		debt += core.Tokens(pc.debt.Load())
	}
	conns := int(s.connCount.Load())
	return s.shed.Observe(int(s.cores[ten.coreID].backlog.Load()), conns, debt)
}

// pinCore resolves a registration's core: a pinned index (the accepting
// connection's core, keeping the tenant's whole path on one loop) when
// valid, else the core with the fewest tenants.
func (s *Server) pinCore(pin int) *pcore {
	if pin >= 0 && pin < len(s.cores) {
		return s.cores[pin]
	}
	best := s.cores[0]
	for _, pc := range s.cores[1:] {
		if pc.ntenants.Load() < best.ntenants.Load() {
			best = pc
		}
	}
	return best
}

// registerTenant performs admission control and registration. pin is the
// accepting connection's core (or -1 for coreless transports, which fall
// back to least-loaded placement); on is the calling core's loop, or nil.
func (s *Server) registerTenant(on *pcore, reg protocol.Registration, pin int) (uint16, protocol.Status) {
	if int(reg.Device) >= len(s.devices) {
		return 0, protocol.StatusBadRequest
	}
	dev := s.devices[reg.Device]

	class := core.LatencyCritical
	slo := core.SLO{
		IOPS:        int(reg.IOPS),
		ReadPercent: int(reg.ReadPercent),
		LatencyP95:  int64(reg.LatencyP95),
	}
	if reg.BestEffort {
		class = core.BestEffort
		slo = core.SLO{}
	}
	if class == core.LatencyCritical && slo.Validate() != nil {
		return 0, protocol.StatusBadRequest
	}
	// A volume-bound tenant addresses volume-logical LBAs: resolve the
	// volume now, once, and bound the ACL range by its logical size.
	var vol *volume.Volume
	if reg.Volume != 0 {
		if s.vols == nil || reg.Device != 0 {
			return 0, protocol.StatusBadRequest
		}
		v, ok := s.vols.ByHandle(uint16(reg.Volume))
		if !ok {
			return 0, protocol.StatusBadRequest
		}
		vol = v
	}
	if reg.LBACount != 0 {
		limit := dev.backend.Size()
		if vol != nil {
			limit = vol.LogicalBytes()
		}
		end := int64(reg.FirstLBA) + int64(reg.LBACount)
		if end*protocol.BlockSize > limit {
			return 0, protocol.StatusBadRequest
		}
	}

	// Admission: reserve the LC rate under the registration mutex — the
	// only lock in registration, never taken on the I/O path.
	var rate core.Tokens
	if class == core.LatencyCritical {
		rate = dev.cfg.Model.RateForSLO(slo.IOPS, slo.ReadPercent)
		s.regMu.Lock()
		if dev.lcReserved+rate > dev.cfg.TokenRate {
			s.regMu.Unlock()
			// Table 1: "Registered tenant, or out of resources error".
			return 0, protocol.StatusNoCapacity
		}
		dev.lcReserved += rate
		s.regMu.Unlock()
	}

	h, ok := s.tenants.claim()
	if !ok {
		s.returnReserved(dev, rate)
		return 0, protocol.StatusNoCapacity // all 65535 handles live
	}
	t, err := core.NewTenant(int(h), fmt.Sprintf("tenant-%d", h), class, slo)
	if err != nil {
		s.tenants.unclaim(h)
		s.returnReserved(dev, rate)
		return 0, protocol.StatusBadRequest
	}

	pc := s.pinCore(pin)
	st := &stenant{t: t, reg: reg, coreID: pc.id, device: int(reg.Device), rate: rate, vol: vol}
	pc.ntenants.Add(1)
	// Registered on the core before it is published, so a request posted
	// to the core after the lookup finds it live.
	onCore(on, pc, func() {
		st.live = true
		pc.scheds[st.device].Register(t)
	})
	s.tenants.publish(h, st)
	return h, protocol.StatusOK
}

// returnReserved undoes a registration's LC rate reservation.
func (s *Server) returnReserved(dev *sdevice, rate core.Tokens) {
	if rate == 0 {
		return
	}
	s.regMu.Lock()
	dev.lcReserved -= rate
	s.regMu.Unlock()
}

// unregisterTenant removes a tenant; on is the calling core's loop, or nil.
func (s *Server) unregisterTenant(on *pcore, h uint16) protocol.Status {
	st := s.tenants.remove(h)
	if st == nil {
		return protocol.StatusNoTenant
	}
	s.returnReserved(s.devices[st.device], st.rate)
	// Drop the sequencer's held work so no barrier waiter outlives the
	// tenant; then, on its core, return its unspent token reservation to
	// the scheduler and answer the requests still queued for it.
	st.kill()
	pc := s.cores[st.coreID]
	pc.ntenants.Add(-1)
	onCore(on, pc, func() {
		st.live = false
		pc.scheds[st.device].Unregister(st.t)
		st.t.Drop(func(r *core.Request) {
			c := r.Context.(*reqCtx)
			reject(pc, c.conn, &c.hdr, protocol.StatusNoTenant)
			s.retire(pc, c)
		})
	})
	return protocol.StatusOK
}

// lookup returns the tenant for a handle: one atomic load, no lock.
func (s *Server) lookup(h uint16) (*stenant, bool) {
	return s.tenants.lookup(h)
}

// aclSize bounds a tenant's addresses: its volume's logical size, or the
// device.
func (s *Server) aclSize(ten *stenant) int64 {
	if ten.vol != nil {
		return ten.vol.LogicalBytes()
	}
	return s.devices[ten.device].backend.Size()
}

// checkACL validates an I/O against the tenant's namespace permissions.
// hdr.Count must already be normalized to the I/O length. For
// volume-bound tenants backendSize is the volume's logical size. OpTrim
// carries no payload, so its Count (the discard length in bytes) is
// exempt from the MaxPayload bound.
func checkACL(reg *protocol.Registration, hdr *protocol.Header, backendSize int64) protocol.Status {
	if hdr.Count == 0 || (hdr.Count > protocol.MaxPayload && hdr.Opcode != protocol.OpTrim) {
		return protocol.StatusBadRequest
	}
	if hdr.Opcode == protocol.OpWrite && hdr.Count != hdr.Len {
		return protocol.StatusBadRequest
	}
	off := int64(hdr.LBA) * protocol.BlockSize
	end := off + int64(hdr.Count)
	if end > backendSize {
		return protocol.StatusBadRequest
	}
	if (hdr.Opcode == protocol.OpWrite || hdr.Opcode == protocol.OpTrim) && !reg.Writable {
		return protocol.StatusDenied
	}
	if reg.LBACount != 0 {
		first := int64(reg.FirstLBA) * protocol.BlockSize
		limit := first + int64(reg.LBACount)*protocol.BlockSize
		if off < first || end > limit {
			return protocol.StatusDenied
		}
	}
	return protocol.StatusOK
}
