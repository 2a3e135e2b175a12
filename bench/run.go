package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"github.com/reflex-go/reflex/internal/obs"
)

// shape is how a run divides its measured time.
type shape struct {
	// setUps is how many times an end-to-end run sets up; setup_s is the
	// median and the last server stays for the measurement.
	setUps int
	// segs is the segment count of an end-to-end run; every end-to-end
	// metric is the median of its per-segment values.
	segs int
	// The per-layer run splits the same measured time into an unloaded
	// window (the probe alone), an untraced pass (counters) and a traced
	// pass (stage times), this many segments each.
	unloaded, untraced, traced int
}

// fullShape is what BENCHMARK.json's numbers are measured with; only the
// smoke test runs anything smaller.
var fullShape = shape{setUps: 3, segs: 6, unloaded: 1, untraced: 4, traced: 2}

// env is what every run of this process shares.
type env struct {
	benchDir  string // the benchmark's sources: reference.json
	outDir    string // binaries and span files
	self      string // this binary, for the echo child
	serverBin string
	log       io.Writer // human-readable metrics
	shape     shape
}

func newEnv(root, self string, log io.Writer) *env {
	benchDir := filepath.Join(root, "bench")
	return &env{benchDir: benchDir, outDir: filepath.Join(benchDir, "out"), self: self, log: log, shape: fullShape}
}

// result is one run of one workload: the driver's contract.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`

	mismatch  uint64 // failed operations that were verification mismatches
	firstErr  error
	hostDrift bool
}

func (r *result) absorb(s *session) {
	r.Attempted += s.attempted
	r.Failed += s.failed
	r.mismatch += s.mismatch
	if r.firstErr == nil {
		r.firstErr = s.firstErr
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// runEndToEnd is the untraced run: set up shape.setUps times, measure
// shape.segs segments, report the end-to-end metrics.
func runEndToEnd(e *env, w *workload, seed int64, seconds int) (*result, error) {
	res := &result{}
	var setups []float64
	var s *session
	for i := 0; i < e.shape.setUps; i++ {
		if s != nil {
			s.close()
			res.absorb(s)
		}
		var took float64
		var err error
		if s, took, err = setUp(w, seed, e.serverBin); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	defer s.close()
	p, err := s.measure(e.shape.segs, segDuration(seconds, e.shape.segs), false, false, nil)
	if err != nil {
		return nil, err
	}
	vals, segs := segmentMedians(p)
	vals["setup_s"] = median(setups)
	if vals["srv_rss_peak_mb"], err = procHWM(s.srv.cmd.Process.Pid); err != nil {
		return nil, err
	}
	s.close()
	res.absorb(s)
	if res.Metrics, err = collect(endToEnd, vals); err != nil {
		return nil, err
	}
	res.Metrics.print(e.log, w.name, endToEnd)
	for _, m := range endToEnd {
		if v, ok := segs[m.name]; ok {
			fmt.Fprintf(e.log, "%-16s %-20s segments %.2f\n", w.name, m.name, v)
		}
	}
	fmt.Fprintf(e.log, "%-16s set-ups %.3f s; attempted %d failed %d (verification mismatches %d)\n",
		w.name, setups, res.Attempted, res.Failed, res.mismatch)
	return res, nil
}

func segDuration(seconds, nseg int) time.Duration {
	return time.Duration(seconds) * time.Second / time.Duration(nseg)
}

// runPerLayer is the traced run: the cost ledger and host reference, one
// set-up, the probe alone (the unloaded window), an untraced pass that
// samples every counter source at the segment boundaries, then a traced
// pass on fresh connections.
func runPerLayer(e *env, w *workload, seed int64, seconds int) (*result, error) {
	res := &result{}
	vals := map[string]float64{}
	if err := runLedger(vals); err != nil {
		return nil, err
	}
	if err := hostEcho(e.self, vals); err != nil {
		return nil, err
	}
	vals["host.sleep_overshoot_us"] = sleepOvershoot()
	if ref, err := referenceEcho(e.benchDir); err != nil {
		return nil, err
	} else if got := vals["host.echo_msgs_per_s"]; got < 0.85*ref || got > 1.15*ref {
		res.hostDrift = true
		fmt.Fprintf(e.log, "%-16s host_drift: host.echo_msgs_per_s %.0f is more than 15%% off the reference %.0f\n", w.name, got, ref)
	}

	s, _, err := setUp(w, seed, e.serverBin)
	if err != nil {
		return nil, err
	}
	defer s.close()
	segDur := segDuration(seconds, e.shape.unloaded+e.shape.untraced+e.shape.traced)
	alone, err := s.measure(e.shape.unloaded, segDur, false, true, nil)
	if err != nil {
		return nil, err
	}
	unloaded, _ := segmentMedians(alone)
	vals["client.unloaded_read_p50_us"] = unloaded["read_p50_us"]
	vals["client.unloaded_read_p95_us"] = unloaded["read_p95_us"]
	vals["client.unloaded_write_p50_us"] = unloaded["write_p50_us"]
	vals["server.unloaded_cpu_us_per_op"] = unloaded["srv_cpu_us_per_op"]
	vals["host.adder_read_p50_us"] = unloaded["read_p50_us"] - vals["host.echo_rtt_p50_us"]

	plain, err := s.measure(e.shape.untraced, segDur, true, false, nil)
	if err != nil {
		return nil, err
	}
	layerCounters(w, s, plain, vals)
	var pmaxPct float64
	var pmaxN int
	vals["client.read_pmax_us"], pmaxPct, pmaxN = readPmax(plain)
	plainE2E, _ := segmentMedians(plain)
	vals["client.probe_read_p50_us"] = plainE2E["read_p50_us"]
	vals["client.probe_read_p95_us"] = plainE2E["read_p95_us"]
	vals["client.probe_write_p50_us"] = plainE2E["write_p50_us"]
	vals["client.probe_write_p95_us"] = plainE2E["write_p95_us"]

	if err := s.unregister(); err != nil {
		return nil, err
	}
	s.disconnect()
	if err := s.connect(true); err != nil {
		return nil, err
	}
	roots := obs.NewRing(1<<18, 1)
	poller := startTracePoller(s.srv)
	traced, err := s.measure(e.shape.traced, segDur, false, false, roots)
	serve := poller.finish()
	if err != nil {
		return nil, err
	}
	pairs, rootMean := traceMetrics(roots.Recent(0), serve, vals)
	path, err := writeSpans(e.outDir, w.name, pairs)
	if err != nil {
		return nil, err
	}
	tracedE2E, _ := segmentMedians(traced)
	vals["obs.trace_overhead_pct"] = 100 * (plainE2E["ops_per_s"] - tracedE2E["ops_per_s"]) / plainE2E["ops_per_s"]
	s.close()
	res.absorb(s)

	reconcile(e.log, w.name, vals, plainE2E["srv_cpu_us_per_op"])
	if res.Metrics, err = collect(perLayer, vals); err != nil {
		return nil, err
	}
	res.Metrics.print(e.log, w.name, perLayer)
	fmt.Fprintf(e.log, "%-16s traced pass: %d probe requests joined, mean root span %.3f us; spans in %s\n",
		w.name, len(pairs), rootMean, filepath.ToSlash(path))
	fmt.Fprintf(e.log, "%-16s client.read_pmax_us is p%.3f of %d probe reads; attempted %d failed %d (verification mismatches %d)\n",
		w.name, pmaxPct, pmaxN, res.Attempted, res.Failed, res.mismatch)
	return res, nil
}

// layerCounters derives the server-counter and generator-side metrics
// from an untraced pass sampled in full, as deltas between its first and
// last boundary.
func layerCounters(w *workload, s *session, p *pass, out map[string]float64) {
	a, b := &p.bounds[0], &p.bounds[len(p.bounds)-1]
	secs := b.at.Sub(a.at).Seconds()
	ops := float64(b.ok - a.ok)
	delta := func(name string) float64 { return b.vars.sum(name) - a.vars.sum(name) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	out["server.flush_batch_msgs"] = ratio(delta("srv_core_flush_msgs_total"), delta("srv_core_flushes_total"))
	// Quantiles of a cumulative histogram cannot be differenced from
	// outside the process: this one covers the server's whole life,
	// set-up included.
	out["server.sched_batch_p50"] = b.vars.histP50("srv_sched_batch")
	out["server.wire_flushes_per_op"] = ratio(delta("srv_wire_flushes_total"), ops)
	out["server.shed_total"] = delta("requests_shed")
	out["core.rounds_per_op"] = ratio(delta("srv_sched_batch"), ops) // the histogram's count: one record per round that drained the ring
	out["core.lc_reserved_tokens_per_s"] = b.vars.sum("lc_reserved_rate") / 1000

	var tokens, negHits float64
	for i := range b.tenants {
		tokens += float64(b.tenants[i].SubmittedTokens - a.tenants[i].SubmittedTokens)
		negHits += float64(b.tenants[i].NegLimitHits - a.tenants[i].NegLimitHits)
	}
	out["core.neg_limit_hits"] = negHits
	out["core.token_use_pct"] = 100 * tokens / 1000 / (w.tokenRate * secs)

	hits, misses := delta("cache_hits_total"), delta("cache_misses_total")
	admits, fills, aborts := delta("cache_admits_total"), delta("cache_fills_total"), delta("cache_fill_aborts_total")
	out["readcache.hit_pct"] = 100 * ratio(hits, hits+misses)
	out["readcache.admit_pct"] = 100 * ratio(admits, misses)
	out["readcache.fills_per_s"] = fills / secs
	out["readcache.fill_abort_pct"] = 100 * ratio(aborts, fills+aborts)
	out["readcache.evictions_per_s"] = delta("cache_evictions_total") / secs

	// Every extent was mapped by the fill, so an extent rewritten after a
	// snapshot is one copy-on-write break, and the one retained snapshot
	// holds exactly the extents broken since it was taken.
	var cow int
	for i := 1; i < len(p.bounds); i++ {
		cow += p.bounds[i].cowExts
	}
	out["volume.cow_extents_per_s"] = float64(cow) / secs
	out["volume.space_amp"] = 0
	if b.liveExts > 0 {
		out["volume.space_amp"] = float64(int(b.liveExts)+b.cowExts) / float64(b.liveExts)
	}

	poolHits, poolMisses := delta("bufpool_hits"), delta("bufpool_misses")
	out["bufpool.miss_pct"] = 100 * ratio(poolMisses, poolHits+poolMisses)
	out["server.heap_inuse_mb"] = float64(b.vars.Memstats.HeapInuse) / (1 << 20)
	out["server.gc_cycles"] = float64(b.vars.Memstats.NumGC - a.vars.Memstats.NumGC)

	out["client.cpu_us_per_op"] = ratio((b.selfCPU-a.selfCPU)*1e6, ops)
	out["client.allocs_per_op"] = ratio(float64(b.selfMall-a.selfMall), ops)
	out["client.load_lat_p50_us"] = float64(s.load.loadLat.Quantile(0.5)) / 1e3
	out["host.steal_pct"] = 100 * ratio(b.steal[0]-a.steal[0], b.steal[1]-a.steal[1])
}
