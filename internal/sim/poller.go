package sim

// Poller is a dedicated core running the run-to-completion polling loop
// (paper §3.1, Fig. 2): each pass drains bounded batches from the owner's
// queues, charging per-item CPU on the core, and a closing zero-cost job —
// which runs once everything the pass queued on the core has finished —
// decides whether to go round again. The ReFlex dataplane thread, the SPDK
// reactor, the epoll server and the blk-mq hardware context are all this
// loop with their own costs, budgets and drain order.
//
// An idle poller has no pending event: in the simulator a core that would
// spin on empty queues simply waits for the next Kick.
type Poller struct {
	eng *Engine
	// Core is the CPU the loop runs on; the owner schedules per-item work
	// on it from inside pass.
	Core *Resource

	pass    func() bool
	again   func() bool
	running bool
}

// NewPoller binds the loop to a core. pass composes one iteration from
// Take calls on the owner's queues and Schedule calls on Core; it returns
// false to abandon the iteration without a closing job, leaving the
// poller idle until the next Kick. again runs as the closing job and
// reports whether work is left, in which case the next pass is queued.
func NewPoller(eng *Engine, core *Resource, pass, again func() bool) *Poller {
	return &Poller{eng: eng, Core: core, pass: pass, again: again}
}

// Kick queues a pass unless one is already queued or still closing.
func (p *Poller) Kick() {
	if p.running {
		return
	}
	p.running = true
	p.eng.After(0, func() {
		if !p.pass() {
			p.running = false
			return
		}
		p.Core.Schedule(0, func(Time) {
			p.running = false
			if p.again() {
				p.Kick()
			}
		})
	})
}

// Take removes and returns up to budget items from the head of q, in FIFO
// order. The remainder is copied so a batch never aliases later appends.
func Take[T any](q *[]T, budget int) []T {
	n := min(len(*q), budget)
	batch := (*q)[:n:n]
	*q = append([]T(nil), (*q)[n:]...)
	return batch
}
