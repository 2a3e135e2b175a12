package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/hist"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
)

// connSpec describes one of a workload's two connections.
type connSpec struct {
	window  int
	readPct int
	// lc registers a latency-critical tenant with this SLO; the zero
	// value registers a best-effort tenant.
	lc protocol.Registration
}

// workload is one traffic mix and the server configuration it runs on:
// a load connection with a deep closed-loop window and a probe connection
// at queue depth 1, after the paper's method (section 5.1). Every
// workload has reads and writes, so no metric is ever a stand-in.
type workload struct {
	name, why   string
	serverArgs  []string
	tokenRate   float64 // tokens/s the server generates (for token_use_pct)
	load, probe connSpec
	wsMiB       int  // working set; every block of it is written in set-up
	zipf        bool // Zipf(0.99) over a seeded permutation, else uniform
	volume      bool // the working set is one thin volume, snapshot per segment
	// Warm-up is a count of operations of the workload's own mix, never a
	// duration, so that setup_s measures work. Sized for a 2-3s set-up on
	// the reference host.
	warmLoad, warmProbe int
}

// lcSLO reserves 114 000 tokens/s (60 000 IOPS at 90 % reads, writes at
// 10 tokens) of the device's 150 000; what the probe leaves unused is
// donated to the best-effort tenant. The 20 000 IOPS of the issue's sketch
// (38 000 tokens/s) is what the probe alone spends at QD1, and 40 000 was
// still exceeded in streaks: 1 % of probe requests complete in 18 us, and
// a few milliseconds at 20 us per request spend 95 000 tokens/s, which
// put the tenant on the scheduler's burst floor (core.neg_limit_hits 2-11
// per run; 12-14 at 52 000 IOPS). At 60 000 IOPS it stays 0, and staying
// 0 is the check. A probe with 20 % writes does not at any admissible
// rate: six writes in a row are 60 tokens in 120 us, past the floor of -50.
var lcSLO = protocol.Registration{ReadPercent: 90, IOPS: 60000, LatencyP95: uint64(500 * time.Microsecond), Writable: true}

// Every workload is token-bound, with the host's two CPUs about two
// thirds busy. Unthrottled, server and generator together want more than
// the two CPUs, operations per second and server CPU per operation are
// then one number (their product stayed at 0.77 CPU while both moved 15 %
// between segments) and that number is the hypervisor's: ten runs spread
// 7 % between their quartiles, against 0.9 % for the same mix at 190 000
// tokens/s.
var workloads = []workload{
	{
		name:       "paced_mix",
		why:        "window-512 90/10 uniform load plus the probe at 190K tokens/s, about 60% of saturation: server CPU per op at a fixed rate, our per-core figure (Fig. 4/6a); ring and writev batching do the work",
		serverArgs: []string{"-token-rate", "190000", "-write-cost", "10"},
		tokenRate:  190000,
		load:       connSpec{window: 512, readPct: 90},
		probe:      connSpec{window: 1, readPct: 90},
		wsMiB:      64,
		warmLoad:   150000,
		warmProbe:  4000,
	},
	{
		name:       "qos_probe",
		why:        "best-effort window-64 80/20 load against a latency-critical QD1 tenant at 150K tokens/s (Fig. 5): core.Scheduler decides, so ops/s is token use and transport savings must not move it",
		serverArgs: []string{"-token-rate", "150000", "-write-cost", "10"},
		tokenRate:  150000,
		// A window of 128 doubles the probe's p50 and puts its p95 past the
		// SLO (919 us); at 90/10 (79 000 ops/s) a window of 64 no longer
		// keeps the scheduler fed and ops_per_s spreads 6.5 %.
		load:     connSpec{window: 64, readPct: 80},
		probe:    connSpec{window: 1, readPct: 90, lc: lcSLO},
		wsMiB:    64,
		warmLoad: 40000, warmProbe: 4000,
	},
	{
		name:       "cache_vol_zipf",
		why:        "95/5 Zipf(0.99) on a thin volume 4x the 8 MiB cache, snapshot per segment: the only mix where readcache and volume (translate, CoW) work; token-bound, so hits become ops/s",
		serverArgs: []string{"-token-rate", "40000", "-write-cost", "10", "-cache-mb", "8", "-cache-admit", "cost", "-size", "512MiB", "-volumes", "448MiB"},
		tokenRate:  40000,
		load:       connSpec{window: 128, readPct: 95},
		probe:      connSpec{window: 1, readPct: 95},
		wsMiB:      32,
		zipf:       true,
		volume:     true,
		warmLoad:   30000, warmProbe: 2000,
	},
}

func (w *workload) blocks() int { return w.wsMiB << 20 / ioSize }

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const volName = "bench"

// session is one server child plus the verification ledger of everything
// written to it. Connections come and go (untraced pass, traced pass);
// the ledger stays.
type session struct {
	w    *workload
	seed int64
	srv  *server
	led  *verLedger

	volHandle uint16
	snapGen   uint64 // the one retained snapshot of the volume

	load, probe *gen
	attempted   uint64 // totals over connections already closed
	failed      uint64
	mismatch    uint64
	firstErr    error
}

// connect opens the two connections and registers their tenants. The
// first connection ever made creates the volume. The load connection
// writes the even blocks and the probe the odd ones; both read them all.
func (s *session) connect(traced bool) error {
	dial := func(spec *connSpec, class uint32) (*gen, error) {
		cl, err := client.DialOptions(s.srv.addr, client.Options{Trace: traced})
		if err != nil {
			return nil, err
		}
		if s.w.volume && s.volHandle == 0 {
			if s.volHandle, err = cl.VolCreate(volName, uint64(s.w.blocks())*lbasPerBlock); err != nil {
				cl.Close()
				return nil, fmt.Errorf("create volume: %w", err)
			}
		}
		reg := spec.lc
		if reg.IOPS == 0 {
			reg = protocol.Registration{BestEffort: true, Writable: true}
		}
		var h uint16
		if s.w.volume {
			h, err = cl.OpenVolume(reg, s.volHandle)
		} else {
			h, err = cl.Register(reg)
		}
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("register tenant: %w", err)
		}
		pick := uniformPicker(s.w.blocks())
		if s.w.zipf {
			pick = zipfPicker(0.99, s.w.blocks(), s.seed)
		}
		return newGen(cl, h, spec.window, spec.readPct, class, s.seed*7919+int64(class), pick, s.led), nil
	}
	var err error
	if s.load, err = dial(&s.w.load, 0); err != nil {
		return err
	}
	s.probe, err = dial(&s.w.probe, 1)
	return err
}

func (s *session) gens() []*gen {
	var out []*gen
	for _, g := range []*gen{s.load, s.probe} {
		if g != nil {
			out = append(out, g)
		}
	}
	return out
}

// unregister removes the connections' tenants with a round trip each. The
// server reaps a closed connection's tenants on another goroutine,
// whenever it gets to it; after unregister, a connect that follows a
// disconnect finds the latency-critical reservation free again.
func (s *session) unregister() error {
	for _, g := range s.gens() {
		if err := g.cl.Unregister(g.handle); err != nil {
			return fmt.Errorf("unregister tenant: %w", err)
		}
	}
	return nil
}

// disconnect closes the connections and keeps their counts.
func (s *session) disconnect() {
	for _, g := range s.gens() {
		g.cl.Close()
		s.attempted += g.ok.Load() + g.failed.Load()
		s.failed += g.failed.Load()
		s.mismatch += g.mismatch.Load()
		if s.firstErr == nil {
			s.firstErr = g.err()
		}
	}
	s.load, s.probe = nil, nil
}

func (s *session) close() {
	s.disconnect()
	if s.srv != nil {
		s.srv.kill()
		s.srv = nil
	}
}

// err reports the first failed operation.
func (s *session) err() error {
	if s.firstErr != nil {
		return s.firstErr
	}
	for _, g := range s.gens() {
		if err := g.err(); err != nil {
			return err
		}
	}
	return nil
}

// drive runs the probe generator and, unless probeOnly, the load
// generator, each on its own goroutine, and returns when both have.
func (s *session) drive(probeOnly bool, loadOps, probeOps int, stop *atomic.Bool) {
	var wg sync.WaitGroup
	if !probeOnly {
		wg.Add(1)
		go func() { defer wg.Done(); s.load.run(loadOps, stop) }()
	}
	wg.Add(1)
	go func() { defer wg.Done(); s.probe.run(probeOps, stop) }()
	wg.Wait()
}

// setUp is what setup_s times: spawn the server, wait until it listens,
// register the tenants, write every block of the working set with a
// stamped pattern and read it back, then run the fixed warm-up count of
// the workload's own mix.
func setUp(w *workload, seed int64, serverBin string) (*session, float64, error) {
	start := time.Now()
	srv, err := startServer(serverBin, w.serverArgs)
	if err != nil {
		return nil, 0, err
	}
	s := &session{w: w, seed: seed, srv: srv, led: newLedger(seed, w.blocks())}
	if err := s.connect(false); err != nil {
		s.close()
		return nil, 0, err
	}
	s.load.fill()
	if w.volume {
		if s.snapGen, err = s.load.cl.VolSnapshot(volName); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("snapshot: %w", err)
		}
	}
	s.drive(false, w.warmLoad, w.warmProbe, nil)
	if err := s.err(); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return s, time.Since(start).Seconds(), nil
}

// boundary is what the coordinator samples between segments, all at one
// instant as nearly as it can: completions, server CPU, server counters.
type boundary struct {
	at       time.Time
	ok       uint64
	srvCPU   float64 // seconds
	vars     srvVars
	cowExts  int // extents rewritten since the snapshot taken at the previous boundary
	liveExts uint32
	tenants  []protocol.TenantStats
	selfCPU  float64
	selfMall uint64
	steal    [2]float64 // steal, total jiffies
}

// pass is one measured run of some segments on the session's current
// connections.
type pass struct {
	bounds []boundary   // one more than segments
	probe  []segSamples // the probe's latencies, per segment
}

// measure runs the generators for nseg segments of segDur. The
// generators never pause; the coordinator wakes at each boundary, samples
// the counters and (volume workloads) rolls the snapshot forward, so the
// hot extents break copy-on-write again inside every segment. full also
// samples the per-layer sources; probeOnly leaves the load connection
// idle (the unloaded window); roots collects a root span per probe call.
func (s *session) measure(nseg int, segDur time.Duration, full, probeOnly bool, roots *obs.Ring) (*pass, error) {
	p := &pass{}
	var stop atomic.Bool
	t0 := time.Now()
	for _, g := range s.gens() {
		g.t0, g.segDur = t0, segDur
	}
	s.probe.segs = make([]segSamples, nseg)
	s.probe.roots = roots
	s.load.loadLat = hist.New()
	b, err := s.sample(full, t0)
	if err != nil {
		return nil, err
	}
	p.bounds = append(p.bounds, b)
	done := make(chan struct{})
	go func() {
		s.drive(probeOnly, 0, 0, &stop)
		close(done)
	}()
	for i := 1; i <= nseg && err == nil; i++ {
		select {
		case <-time.After(time.Until(t0.Add(time.Duration(i) * segDur))):
			if b, err = s.sample(full, time.Now()); err == nil {
				p.bounds = append(p.bounds, b)
			}
		case <-done:
			err = fmt.Errorf("generators stopped early: %v", s.err())
		}
	}
	stop.Store(true)
	<-done
	p.probe = s.probe.segs
	return p, err
}

func (s *session) sample(full bool, at time.Time) (boundary, error) {
	b := boundary{at: at, ok: s.load.ok.Load() + s.probe.ok.Load()}
	var err error
	if b.srvCPU, err = procCPU(s.srv.cmd.Process.Pid); err != nil {
		return b, err
	}
	if err = s.srv.getJSON("/debug/vars", &b.vars); err != nil {
		return b, err
	}
	if !full {
		b.vars.Reflex.Metrics = nil
	}
	// Control operations ride the load connection so that they never sit
	// in front of a probe request.
	ctl := s.load.cl
	if s.w.volume {
		// Roll the snapshot: measure what the last segment rewrote, freeze
		// the volume again, drop the older snapshot.
		if full {
			d, _, err := ctl.VolDiff(volName, s.snapGen, 0)
			if err != nil {
				return b, fmt.Errorf("vol diff: %w", err)
			}
			b.cowExts = len(d.Extents)
			vols, err := ctl.VolList()
			if err != nil {
				return b, fmt.Errorf("vol list: %w", err)
			}
			for _, v := range vols {
				if v.Name == volName {
					b.liveExts = v.Extents
				}
			}
		}
		gen, err := ctl.VolSnapshot(volName)
		if err != nil {
			return b, fmt.Errorf("snapshot: %w", err)
		}
		if _, err := ctl.VolDelete(volName, s.snapGen); err != nil {
			return b, fmt.Errorf("delete snapshot: %w", err)
		}
		s.snapGen = gen
	}
	if full {
		for _, g := range s.gens() {
			st, err := g.cl.Stats(g.handle)
			if err != nil {
				return b, fmt.Errorf("tenant stats: %w", err)
			}
			b.tenants = append(b.tenants, st)
		}
		b.selfCPU, b.selfMall = selfUsage()
		b.steal = hostSteal()
	}
	return b, nil
}
