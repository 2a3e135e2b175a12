package dataplane

import (
	"fmt"
	"sort"

	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/sim"
)

// Tenant rebalancing (§4.3): when the control plane grows or shrinks the
// thread count, tenants and their connections move between threads. A
// tenant's scheduler state — token balance, grant history, queued
// requests — travels with it, and in-flight Flash operations complete on
// whichever thread submitted them, so no request is lost or reordered
// within a connection ("Rebalancing takes a few milliseconds and does not
// lead to packet dropping or reordering").

// MoveTenant migrates a tenant (and the connections bound to it) to the
// given thread. It must run from engine context, like all simulator
// mutations.
func (s *Server) MoveTenant(t *core.Tenant, to int) {
	if to < 0 || to >= len(s.threads) {
		panic(fmt.Sprintf("dataplane: MoveTenant to thread %d of %d", to, len(s.threads)))
	}
	from, ok := s.tenantAt[t]
	if !ok {
		panic("dataplane: MoveTenant of unregistered tenant")
	}
	if from == to {
		return
	}
	src, dst := s.threads[from], s.threads[to]
	src.sched.Unregister(t)
	src.tenants--
	dst.sched.Register(t)
	dst.tenants++
	s.tenantAt[t] = to

	// Connections follow their tenant.
	moved := s.connsOf(t)
	src.conns -= moved
	dst.conns += moved

	// The destination may need a pass for the tenant's queued requests.
	dst.kick()
}

// connsOf counts open connections bound to a tenant.
func (s *Server) connsOf(t *core.Tenant) int {
	n := 0
	for c := range s.conns {
		if c.tenant == t && !c.closed {
			n++
		}
	}
	return n
}

// Rebalance spreads tenants evenly across threads by registered count,
// moving as few tenants as possible. It returns the number of moves.
func (s *Server) Rebalance() int {
	type slot struct {
		thread  int
		tenants []*core.Tenant
	}
	slots := make([]slot, len(s.threads))
	for i := range slots {
		slots[i].thread = i
	}
	for t, th := range s.tenantAt {
		slots[th].tenants = append(slots[th].tenants, t)
	}
	for i := range slots {
		// Deterministic order for reproducible simulations.
		sort.Slice(slots[i].tenants, func(a, b int) bool {
			return slots[i].tenants[a].ID < slots[i].tenants[b].ID
		})
	}

	total := len(s.tenantAt)
	base := total / len(s.threads)
	extra := total % len(s.threads)
	quota := func(i int) int {
		if i < extra {
			return base + 1
		}
		return base
	}

	// Collect overflow from loaded threads, then fill underloaded ones.
	var overflow []*core.Tenant
	for i := range slots {
		for len(slots[i].tenants) > quota(i) {
			last := slots[i].tenants[len(slots[i].tenants)-1]
			slots[i].tenants = slots[i].tenants[:len(slots[i].tenants)-1]
			overflow = append(overflow, last)
		}
	}
	moves := 0
	for i := range slots {
		for len(slots[i].tenants) < quota(i) && len(overflow) > 0 {
			t := overflow[len(overflow)-1]
			overflow = overflow[:len(overflow)-1]
			slots[i].tenants = append(slots[i].tenants, t)
			s.MoveTenant(t, i)
			moves++
		}
	}
	return moves
}

// ThreadLoads returns per-thread core utilization, for control-plane
// scaling decisions (ctrl.ThreadScaler).
func (s *Server) ThreadLoads() []float64 {
	out := make([]float64, len(s.threads))
	for i, th := range s.threads {
		out[i] = th.poll.Core.Utilization()
	}
	return out
}

// ThreadBusy returns each thread's cumulative CPU busy time; control loops
// difference successive samples for windowed utilization.
func (s *Server) ThreadBusy() []sim.Time {
	out := make([]sim.Time, len(s.threads))
	for i, th := range s.threads {
		out[i] = th.poll.Core.BusyTime()
	}
	return out
}

// Tenants returns the registered tenants in deterministic (ID) order.
func (s *Server) Tenants() []*core.Tenant {
	out := make([]*core.Tenant, 0, len(s.tenantAt))
	for t := range s.tenantAt {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Repack distributes every tenant across threads [0, active), the §4.3
// "allocate resources for additional threads / deallocate threads and
// return them to Linux" move: shrinking concentrates tenants on fewer
// cores, growing spreads them out.
func (s *Server) Repack(active int) int {
	if active < 1 {
		active = 1
	}
	if active > len(s.threads) {
		active = len(s.threads)
	}
	moves := 0
	for i, t := range s.Tenants() {
		want := i % active
		if s.tenantAt[t] != want {
			s.MoveTenant(t, want)
			moves++
		}
	}
	return moves
}
