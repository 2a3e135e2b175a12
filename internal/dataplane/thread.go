package dataplane

import (
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/flashsim"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/readcache"
	"github.com/reflex-go/reflex/internal/sim"
)

// ioRequest is one in-flight remote I/O inside the server.
type ioRequest struct {
	conn *Conn
	op   core.OpType
	blk  uint64
	size int
	// shed marks a request refused by the graceful-overload signal: it is
	// answered immediately (header only, no payload) without touching the
	// scheduler or the device.
	shed bool
	// hit marks a read found in the DRAM cache at parse time: it is
	// charged the cache-service cost and never touches the device.
	hit bool
	// fill marks an admitted read miss: its completion commits the block
	// into the cache, fenced by fillEpoch against racing writes.
	fill      bool
	fillEpoch uint64
	// span is the request's lifecycle record (embedded by value: stamping
	// stages allocates nothing). It is copied into the server's trace ring
	// when the response is transmitted.
	span obs.Span
	// issued and done are the client side of the request: when it left the
	// application and whom to tell (nil for fire-and-forget) once the
	// response lands.
	issued sim.Time
	done   func(lat sim.Time)
}

// thread is one dataplane core with exclusive network and NVMe queues.
type thread struct {
	srv   *Server
	id    int
	poll  *sim.Poller
	sched *core.Scheduler

	rxQ []*ioRequest // arrived, not yet processed
	cqQ []*ioRequest // flash-completed, response not yet sent
	// ready holds parsed requests awaiting their turn in the
	// BlockingModel ablation (one outstanding Flash access at a time).
	ready []*ioRequest

	tenants int
	conns   int

	tickArmed bool
	// blocked is set while the thread waits on a Flash access in the
	// monolithic BlockingModel ablation.
	blocked bool

	requests uint64
	batches  uint64
	maxBatch int
	ticks    uint64
	shed     uint64
}

// debt sums the thread's tenants' negative token balances — the overload
// indicator the shedder watches (a growing aggregate debt means admission
// is outrunning token generation).
func (th *thread) debt() core.Tokens {
	var d core.Tokens
	lc, be := th.sched.Tenants()
	for _, t := range lc {
		if b := t.Tokens(); b < 0 {
			d -= b
		}
	}
	for _, t := range be {
		if b := t.Tokens(); b < 0 {
			d -= b
		}
	}
	return d
}

// cpuFactor inflates per-request CPU cost with connection count, modeling
// TCP state falling out of the last-level cache (Fig. 6c).
func (th *thread) cpuFactor() float64 {
	over := th.conns - th.srv.cfg.ConnBase
	if over <= 0 {
		return 1
	}
	return 1 + th.srv.cfg.ConnFactor*float64(over)/1000
}

// arrive enqueues an incoming request and kicks the polling loop.
func (th *thread) arrive(r *ioRequest) {
	r.span.Mark(obs.StageArrival, th.srv.eng.Now())
	th.rxQ = append(th.rxQ, r)
	th.kick()
}

// complete enqueues a flash completion and kicks the polling loop.
func (th *thread) complete(r *ioRequest) {
	r.span.Mark(obs.StageDevDone, th.srv.eng.Now())
	th.blocked = false
	th.cqQ = append(th.cqQ, r)
	th.kick()
}

// kick starts a processing pass unless one is already queued.
func (th *thread) kick() { th.poll.Kick() }

// pass is one iteration of the two-step run-to-completion loop (Fig. 2),
// run on the shared sim.Poller: drain a bounded batch of arrivals through
// parse+schedule+submit, then a bounded batch of completions through
// event+send. Batch sizes adapt to whatever accumulated while the core was
// busy, capped at MaxBatch.
func (th *thread) pass() bool {
	cfg := &th.srv.cfg
	inflate := th.cpuFactor()
	cost := func(c sim.Time) sim.Time { return sim.Time(float64(c) * inflate) }

	if th.blocked {
		// Monolithic model: nothing happens until the outstanding Flash
		// access completes.
		return false
	}

	// Feed the graceful-overload signal once per pass (hysteresis lives in
	// the shedder, so per-pass sampling cannot flap it).
	if sh := th.srv.shedder; sh != nil {
		sh.Observe(th.sched.Pending()+len(th.rxQ), th.conns, th.debt())
	}

	// Step 1: network receive -> tenant queues.
	rxBudget := cfg.MaxBatch
	if cfg.BlockingModel {
		rxBudget = 1
	}
	batch := sim.Take(&th.rxQ, rxBudget)
	nrx := len(batch)
	if nrx > 0 {
		th.batches++
		if nrx > th.maxBatch {
			th.maxBatch = nrx
		}
		for _, r := range batch {
			r := r
			th.poll.Core.Schedule(cost(cfg.RxCost), func(sim.Time) {
				th.requests++
				r.span.Mark(obs.StageParse, th.srv.eng.Now())
				if sh := th.srv.shedder; sh != nil && sh.Active() &&
					r.conn.tenant.Class == core.BestEffort {
					// Graceful shed: refuse the best-effort request with an
					// immediate header-only response. LC requests are never
					// shed — admission control reserved their capacity.
					r.shed = true
					th.shed++
					th.poll.Core.Schedule(cost(cfg.TxCost), func(sim.Time) {
						r.conn.respond(r)
					})
					return
				}
				if c := th.srv.cache; c != nil {
					switch {
					case r.op == core.OpRead && r.size <= readcache.BlockSize:
						hit, admit, epoch := c.Probe(readcache.Key(0, r.blk), 0, nil)
						if hit {
							r.hit = true
						} else if admit {
							r.fill, r.fillEpoch = true, epoch
						}
					case r.op == core.OpWrite:
						blocks := uint64((r.size + readcache.BlockSize - 1) / readcache.BlockSize)
						c.Invalidate(readcache.Key(0, r.blk), blocks)
					}
				}
				if cfg.DisableQoS {
					if cfg.BlockingModel {
						// Park until the single outstanding Flash slot
						// frees up.
						th.ready = append(th.ready, r)
						th.kick()
						return
					}
					// Figure 5 "I/O sched disabled": straight to the device.
					th.poll.Core.Schedule(cost(cfg.SubmitCost), func(sim.Time) {
						th.submit(r)
					})
					return
				}
				req := &core.Request{
					Op:      r.op,
					Block:   r.blk,
					Size:    r.size,
					Arrival: th.srv.eng.Now(),
					Context: r,
				}
				if r.hit {
					// A DRAM hit never reaches the device: charge the
					// cache-service cost, not a device read's tokens.
					req.CostOverride = th.srv.model.CacheServeCost()
				}
				th.sched.Enqueue(r.conn.tenant, req)
			})
		}
	}

	// BlockingModel: submit at most one parsed request, then wait for its
	// completion. The flag flips synchronously here so no concurrent pass
	// can slip another submission in.
	if cfg.BlockingModel && len(th.ready) > 0 {
		r := th.ready[0]
		th.ready = th.ready[1:]
		th.blocked = true
		th.poll.Core.Schedule(cost(cfg.SubmitCost), func(sim.Time) {
			th.submit(r)
		})
	}

	// QoS scheduling round: admit whatever tokens allow. Skipped when no
	// request work exists; token accrual catches up on the next round.
	if !cfg.DisableQoS && (nrx > 0 || th.sched.Pending() > 0) {
		roundCost := cfg.SchedFixed + cfg.SchedPerTenant*sim.Time(th.tenants)
		th.poll.Core.Schedule(cost(roundCost), func(end sim.Time) {
			th.sched.Schedule(th.srv.eng.Now(), func(cr *core.Request) {
				r := cr.Context.(*ioRequest)
				r.span.Mark(obs.StageAdmit, th.srv.eng.Now())
				th.poll.Core.Schedule(cost(cfg.SubmitCost+cfg.SchedPerReq), func(sim.Time) {
					th.submit(r)
				})
			})
		})
	}

	// Step 2: flash completion -> response transmission.
	for _, r := range sim.Take(&th.cqQ, cfg.MaxBatch) {
		r := r
		th.poll.Core.Schedule(cost(cfg.CqeCost+cfg.TxCost), func(sim.Time) {
			r.conn.respond(r)
		})
	}
	return true
}

// again closes a pass: run again immediately, wait for a scheduler tick,
// or go idle.
func (th *thread) again() bool {
	if len(th.rxQ) > 0 || len(th.cqQ) > 0 || (len(th.ready) > 0 && !th.blocked) {
		return true
	}
	if !th.srv.cfg.DisableQoS && th.sched.Pending() > 0 {
		th.armTick()
	}
	return false
}

// armTick schedules a future scheduling round for requests waiting on
// token accrual.
func (th *thread) armTick() {
	if th.tickArmed {
		return
	}
	th.tickArmed = true
	th.srv.eng.After(th.srv.cfg.SchedTick, func() {
		th.tickArmed = false
		th.ticks++
		th.kick()
	})
}

// submit issues the I/O to the NVMe device, or serves a cache hit from
// DRAM without touching it.
func (th *thread) submit(r *ioRequest) {
	r.span.Mark(obs.StageSubmit, th.srv.eng.Now())
	if r.hit {
		// DRAM hit: the device — and its token-paced queues — are never
		// involved. Completion arrives after the DRAM service time.
		th.srv.eng.After(th.srv.cfg.CacheHitService, func() {
			th.complete(r)
		})
		return
	}
	if th.srv.cfg.BlockingModel {
		th.blocked = true
	}
	stream := 0
	if th.srv.cfg.StreamByClass && r.op == core.OpWrite &&
		r.conn.tenant.Class == core.BestEffort {
		stream = 1
	}
	th.srv.dev.Submit(&flashsim.Request{
		Op:     flashsim.OpFor(r.op),
		Block:  r.blk,
		Size:   r.size,
		Stream: stream,
		OnComplete: func(sim.Time) {
			if r.fill {
				th.srv.cache.CommitFill(readcache.Key(0, r.blk), r.fillEpoch, nil)
			}
			th.complete(r)
		},
	})
}
