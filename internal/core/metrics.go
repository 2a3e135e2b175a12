package core

import "github.com/reflex-go/reflex/internal/obs"

// RegisterSchedulerMetrics exposes one scheduler's counters and queue
// state on a telemetry registry. Values are read-side functions; the
// scheduler hot path is untouched. Because a Scheduler is single-writer
// (owned by one thread), registries carrying these metrics must be scraped
// from that thread's context — the simulation engine, or the owning
// scheduler goroutine in the real server.
func RegisterSchedulerMetrics(reg *obs.Registry, s *Scheduler, labels ...obs.Label) {
	reg.CounterFunc("sched_rounds_total", "QoS scheduling rounds executed (Algorithm 1)",
		func() float64 { return float64(s.rounds) }, labels...)
	reg.CounterFunc("sched_submitted_total", "requests admitted to the device",
		func() float64 { return float64(s.submitted) }, labels...)
	reg.GaugeFunc("sched_queue_depth", "requests queued in per-tenant software queues",
		func() float64 { return float64(s.Pending()) }, labels...)
	reg.GaugeFunc("sched_tenants", "registered tenants (LC + BE)",
		func() float64 { lc, be := s.Tenants(); return float64(len(lc) + len(be)) }, labels...)
	reg.GaugeFunc("sched_demand_tokens", "total millitoken cost of queued requests",
		func() float64 {
			var d Tokens
			for _, t := range s.lc {
				d += t.demand
			}
			for _, t := range s.be {
				d += t.demand
			}
			return float64(d)
		}, labels...)
}

// RegisterSharedMetrics exposes the cross-thread shared scheduler state:
// the global token bucket and the rate allocation split (§3.2.2, §4.1).
// These read atomics only, so they are safe to scrape from any goroutine.
func RegisterSharedMetrics(reg *obs.Registry, sh *SharedState, labels ...obs.Label) {
	reg.GaugeFunc("bucket_tokens", "spare millitokens in the global bucket",
		func() float64 { return float64(sh.Bucket.Tokens()) }, labels...)
	reg.CounterFunc("bucket_resets_total", "periodic global bucket drains",
		func() float64 { return float64(sh.Bucket.Resets()) }, labels...)
	reg.GaugeFunc("token_rate", "total generation rate (mt/s) at the strictest SLO",
		func() float64 { return float64(sh.TokenRate()) }, labels...)
	reg.GaugeFunc("lc_reserved_rate", "rate reserved by LC tenants (mt/s)",
		func() float64 { return float64(sh.LCReserved()) }, labels...)
	reg.GaugeFunc("be_tenants", "registered best-effort tenants",
		func() float64 { return float64(sh.BECount()) }, labels...)
}
