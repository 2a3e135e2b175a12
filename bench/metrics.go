package main

import (
	"fmt"
	"io"
	"slices"
)

// metricSpec names a metric; BENCHMARK.json carries the same lists (the
// smoke test compares them) plus direction and bound.
type metricSpec struct {
	name, unit string
}

// endToEnd holds the metrics that repeat on the reference host within
// 10 % (1 % for the allocation count). The probe's latencies do not
// (README.md, "How the bounds were set"), so they are per-layer metrics.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"srv_cpu_us_per_op", "us"},
	{"srv_allocs_per_op", "count"},
	{"srv_rss_peak_mb", "MiB"},
}

// perLayer lists every per-layer metric; the prefix is the package (or
// "host"/"ledger") the number belongs to.
var perLayer = []metricSpec{
	// Ledger: timed calls into public functions, one goroutine.
	{"protocol.encode_4k_ns", "ns"},
	{"protocol.decode_4k_ns", "ns"},
	{"protocol.header_codec_ns", "ns"},
	{"protocol.roundtrip_allocs", "count"},
	{"bufpool.get_release_ns", "ns"},
	{"core.enqueue_ns", "ns"},
	{"core.schedule_ns_per_req", "ns"},
	{"core.schedule_allocs", "count"},
	{"storage.mem_read_4k_ns", "ns"},
	{"storage.mem_write_4k_ns", "ns"},
	{"hist.record_ns", "ns"},
	{"obs.ring_push_ns", "ns"},
	{"readcache.probe_hit_ns", "ns"},
	{"readcache.probe_miss_ns", "ns"},
	{"readcache.commit_fill_ns", "ns"},
	{"readcache.invalidate_ns", "ns"},
	{"volume.translate_ns", "ns"},
	{"volume.write_inplace_ns", "ns"},
	{"volume.write_cow_ns", "ns"},
	{"cluster.forward_ack_ns", "ns"},
	{"cluster.forward_allocs", "count"},
	{"ledger.server_sum_us", "us"},
	{"ledger.residual_us", "us"},
	{"ledger.residual_pct", "%"},
	// Server counters, deltas over the untraced measured window.
	{"server.flush_batch_msgs", "count"},
	{"server.sched_batch_p50", "count"},
	{"server.wire_flushes_per_op", "count"},
	{"server.shed_total", "count"},
	{"core.neg_limit_hits", "count"},
	{"core.rounds_per_op", "count"},
	{"core.token_use_pct", "%"},
	{"core.lc_reserved_tokens_per_s", "1/s"},
	{"readcache.hit_pct", "%"},
	{"readcache.admit_pct", "%"},
	{"readcache.fills_per_s", "1/s"},
	{"readcache.fill_abort_pct", "%"},
	{"readcache.evictions_per_s", "1/s"},
	{"volume.cow_extents_per_s", "1/s"},
	{"volume.space_amp", "ratio"},
	{"bufpool.miss_pct", "%"},
	{"server.heap_inuse_mb", "MiB"},
	{"server.gc_cycles", "count"},
	// The probe beside the load (untraced pass), and alone before the load
	// starts (the unloaded window: the latency adder of the paper's Table 2).
	{"client.probe_read_p50_us", "us"},
	{"client.probe_read_p95_us", "us"},
	{"client.probe_write_p50_us", "us"},
	{"client.probe_write_p95_us", "us"},
	{"client.unloaded_read_p50_us", "us"},
	{"client.unloaded_read_p95_us", "us"},
	{"client.unloaded_write_p50_us", "us"},
	{"server.unloaded_cpu_us_per_op", "us"},
	// Generator side.
	{"client.cpu_us_per_op", "us"},
	{"client.allocs_per_op", "count"},
	{"client.load_lat_p50_us", "us"},
	{"client.read_pmax_us", "us"},
	// Traced pass: mean self time per stage over the joined probe requests.
	{"server.stage_parse_us", "us"},
	{"core.stage_token_wait_us", "us"},
	{"server.stage_submit_us", "us"},
	{"storage.stage_device_us", "us"},
	{"server.stage_tx_us", "us"},
	{"client.stage_outside_us", "us"},
	{"server.residence_read_p50_us", "us"},
	{"server.residence_read_p95_us", "us"},
	{"client.outside_server_p50_us", "us"},
	{"obs.trace_joined_spans", "count"},
	{"obs.trace_overhead_pct", "%"},
	// Host reference.
	{"host.echo_rtt_p50_us", "us"},
	{"host.echo_msgs_per_s", "1/s"},
	{"host.adder_read_p50_us", "us"},
	{"host.sleep_overshoot_us", "us"},
	{"host.steal_pct", "%"},
}

// value is one reported metric, in the shape the driver's contract asks.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]value

// collect picks specs out of vals; a spec without a value is a bug in the
// benchmark, not a result, so it is an error.
func collect(specs []metricSpec, vals map[string]float64) (metricSet, error) {
	out := make(metricSet, len(specs))
	for _, sp := range specs {
		v, ok := vals[sp.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", sp.name)
		}
		out[sp.name] = value{v, sp.unit}
	}
	return out, nil
}

func (m metricSet) print(w io.Writer, workload string, specs []metricSpec) {
	for _, sp := range specs {
		if v, ok := m[sp.name]; ok {
			fmt.Fprintf(w, "%-16s %-32s %14.4f %s\n", workload, sp.name, v.Value, v.Unit)
		}
	}
}

// segmentMedians reduces a pass to one value per metric: the median of
// the per-segment values, because this host's segments are bistable (59
// vs 72us p50 back to back) and a median drops the odd one where a mean
// would blend it in. It also returns the per-segment values.
func segmentMedians(p *pass) (map[string]float64, map[string][]float64) {
	var ops, cpu, allocs, r50, r95, w50, w95 []float64
	for i := 1; i < len(p.bounds); i++ {
		a, b := &p.bounds[i-1], &p.bounds[i]
		n := float64(b.ok - a.ok)
		ops = append(ops, n/b.at.Sub(a.at).Seconds())
		if n > 0 {
			cpu = append(cpu, (b.srvCPU-a.srvCPU)*1e6/n)
			allocs = append(allocs, float64(b.vars.Memstats.Mallocs-a.vars.Memstats.Mallocs)/n)
		}
		seg := &p.probe[i-1]
		rs, ws := sortedCopy(seg.reads), sortedCopy(seg.writes)
		r50 = append(r50, quantile(rs, 0.50)/1e3)
		r95 = append(r95, quantile(rs, 0.95)/1e3)
		w50 = append(w50, quantile(ws, 0.50)/1e3)
		w95 = append(w95, quantile(ws, 0.95)/1e3)
	}
	segs := map[string][]float64{
		"ops_per_s": ops, "read_p50_us": r50, "read_p95_us": r95, "write_p50_us": w50, "write_p95_us": w95,
		"srv_cpu_us_per_op": cpu, "srv_allocs_per_op": allocs,
	}
	vals := make(map[string]float64, len(segs))
	for name, v := range segs {
		vals[name] = median(v)
	}
	return vals, segs
}

// readPmax returns the highest percentile of the probe's reads that still
// has ten samples beyond it, with that percentile and the sample count.
func readPmax(p *pass) (us, pct float64, n int) {
	var all []int64
	for i := range p.probe {
		all = append(all, p.probe[i].reads...)
	}
	slices.Sort(all)
	n = len(all)
	if n < 11 {
		return 0, 0, n
	}
	return float64(all[n-11]) / 1e3, 100 * float64(n-10) / float64(n), n
}
