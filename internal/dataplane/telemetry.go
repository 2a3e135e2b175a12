package dataplane

import (
	"strconv"

	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/obs"
)

// Trace-ring sizing: enough recent spans to cover several scheduling
// epochs, and a top-K slow log deep enough to show the tail shape.
const (
	traceRingCapacity = 4096
	traceSlowK        = 16
)

// initTelemetry builds the server's registry (virtual-time clock) and
// trace ring, and wires every layer's stats through it: per-thread
// dataplane counters, the shared QoS scheduler state (internal/core), the
// flash device (internal/flashsim), and the NIC endpoint (internal/netsim).
// All metrics are read-side functions, so the simulated hot path pays
// nothing for exposition; span tracing stamps timestamps into each
// request's embedded lifecycle record.
func (s *Server) initTelemetry() {
	reg := obs.NewRegistry()
	reg.SetClock(func() int64 { return s.eng.Now() })
	s.reg = reg
	s.ring = obs.NewRing(traceRingCapacity, traceSlowK)

	for _, th := range s.threads {
		th := th
		lbl := obs.L("thread", strconv.Itoa(th.id))
		reg.CounterFunc("dp_requests_total", "requests parsed by the dataplane",
			func() float64 { return float64(th.requests) }, lbl)
		reg.CounterFunc("dp_batches_total", "receive batches drained (adaptive batching §3.1)",
			func() float64 { return float64(th.batches) }, lbl)
		reg.CounterFunc("dp_tick_passes_total", "scheduler ticks fired for token accrual",
			func() float64 { return float64(th.ticks) }, lbl)
		reg.CounterFunc("requests_shed", "best-effort requests refused under overload (LC is never shed)",
			func() float64 { return float64(th.shed) }, lbl)
		reg.GaugeFunc("dp_max_batch", "largest receive batch observed (cap 64)",
			func() float64 { return float64(th.maxBatch) }, lbl)
		reg.GaugeFunc("dp_conns", "connections bound to the thread",
			func() float64 { return float64(th.conns) }, lbl)
		reg.GaugeFunc("dp_rx_queue_depth", "arrivals awaiting a processing pass",
			func() float64 { return float64(len(th.rxQ)) }, lbl)
		reg.GaugeFunc("dp_cq_queue_depth", "flash completions awaiting transmission",
			func() float64 { return float64(len(th.cqQ)) }, lbl)
		reg.GaugeFunc("dp_core_utilization", "dataplane core utilization since start",
			th.poll.Core.Utilization, lbl)
		core.RegisterSchedulerMetrics(reg, th.sched, lbl)
	}
	core.RegisterSharedMetrics(reg, s.shared)
	if s.cache != nil {
		s.cache.RegisterMetrics(reg)
	}
	s.dev.RegisterMetrics(reg, obs.L("device", s.dev.Spec().Name))
	s.endpoint.RegisterMetrics(reg, obs.L("endpoint", "server"))
}

// Obs returns the server's telemetry registry. Scrape it from engine
// context (inside a scheduled event) or after the simulation stops; the
// underlying stats are single-writer simulator state.
func (s *Server) Obs() *obs.Registry { return s.reg }

// TraceRing returns the per-request span ring and slow-request log.
func (s *Server) TraceRing() *obs.Ring { return s.ring }
