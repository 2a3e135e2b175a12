// Package blockdev models the client-side block device paths used by the
// legacy-application evaluation (§4.2, §5.6):
//
//   - Local: the kernel NVMe block driver over the local simulated device.
//   - Remote: the paper's remote block device driver — a blk-mq driver
//     with one hardware context per core, each owning a socket to a
//     ReFlex (or iSCSI/libaio) server and a kernel thread for receive
//     processing. Client-side CPU per message is what limits a context to
//     ~70K 4KB messages/s on the Linux stack (§4.2).
//
// Applications submit through a Device; the helper functions give
// process-style (blocking) access on top of the callback API.
package blockdev

import (
	"fmt"

	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/sim"
	"github.com/reflex-go/reflex/internal/workload"
)

// Device accepts block I/O and reports completion latency. Block addresses
// are in 4KB units.
type Device interface {
	Submit(op core.OpType, block uint64, size int, done func(lat sim.Time))
}

// Read blocks the calling process until a read completes.
func Read(p *sim.Proc, d Device, block uint64, size int) sim.Time {
	c := p.NewCompletion()
	var lat sim.Time
	d.Submit(core.OpRead, block, size, func(l sim.Time) {
		lat = l
		c.Complete()
	})
	c.Wait()
	return lat
}

// Write blocks the calling process until a write completes.
func Write(p *sim.Proc, d Device, block uint64, size int) sim.Time {
	c := p.NewCompletion()
	var lat sim.Time
	d.Submit(core.OpWrite, block, size, func(l sim.Time) {
		lat = l
		c.Complete()
	})
	c.Wait()
	return lat
}

// ReadMany fetches several blocks concurrently and blocks until all have
// completed (the driver issues each block without coalescing, §4.2).
func ReadMany(p *sim.Proc, d Device, blocks []uint64, size int) {
	if len(blocks) == 0 {
		return
	}
	wg := p.NewWaitGroup()
	wg.Add(len(blocks))
	for _, b := range blocks {
		d.Submit(core.OpRead, b, size, func(sim.Time) { wg.Done() })
	}
	wg.Wait()
}

// Local is the kernel NVMe block driver over a local device: a fixed
// driver/interrupt overhead around each I/O, no network.
type Local struct {
	eng *sim.Engine
	tgt workload.Target
	// Overhead is the block-layer + interrupt cost added to each I/O.
	Overhead sim.Time
}

// NewLocal wraps a local target (usually workload.DeviceTarget).
func NewLocal(eng *sim.Engine, tgt workload.Target) *Local {
	return &Local{eng: eng, tgt: tgt, Overhead: 12 * sim.Microsecond}
}

// Submit implements Device.
func (l *Local) Submit(op core.OpType, block uint64, size int, done func(lat sim.Time)) {
	start := l.eng.Now()
	l.eng.After(l.Overhead/2, func() {
		l.tgt.Issue(op, block, size, func(sim.Time) {
			l.eng.After(l.Overhead/2, func() {
				if done != nil {
					done(l.eng.Now() - start)
				}
			})
		})
	})
}

// Remote is the blk-mq remote block device driver: per-context kernel CPU
// cost around each message plus a remote connection per context.
type Remote struct {
	eng  *sim.Engine
	ctxs []*hwContext
	next int

	// TxCPU and RxCPU are per-message kernel costs on the context's core
	// (the Linux TCP stack's ~70K msgs/s/thread ceiling: ~14us round
	// trip, §4.2).
	TxCPU sim.Time
	RxCPU sim.Time
	// BlockLayer is the fixed bio-layer overhead per I/O.
	BlockLayer sim.Time
}

// hwContext is one blk-mq hardware context: a core and a connection. The
// core alternates bounded batches of transmissions and receptions (the
// kernel's softirq budget), so neither direction starves under overload.
type hwContext struct {
	r    *Remote
	poll *sim.Poller
	conn workload.Target
	txQ  []*bio
	rxQ  []*bio
}

// bio is one in-flight block I/O.
type bio struct {
	op    core.OpType
	block uint64
	size  int
	start sim.Time
	done  func(lat sim.Time)
}

const ctxBudget = 32 // NAPI-style per-pass budget

func (c *hwContext) pass() bool {
	for _, b := range sim.Take(&c.rxQ, ctxBudget) {
		b := b
		c.poll.Core.Schedule(c.r.RxCPU, func(at sim.Time) {
			if b.done != nil {
				b.done(at - b.start)
			}
		})
	}
	for _, b := range sim.Take(&c.txQ, ctxBudget) {
		b := b
		c.poll.Core.Schedule(c.r.TxCPU, func(sim.Time) {
			c.conn.Issue(b.op, b.block, b.size, func(sim.Time) {
				c.rxQ = append(c.rxQ, b)
				c.poll.Kick()
			})
		})
	}
	return true
}

func (c *hwContext) again() bool { return len(c.txQ) > 0 || len(c.rxQ) > 0 }

// NewRemote builds a remote block device over one connection per hardware
// context. conns typically come from dataplane.Server.Connect or
// baseline.Server.Connect, one per context.
func NewRemote(eng *sim.Engine, conns []workload.Target) *Remote {
	if len(conns) == 0 {
		panic("blockdev: NewRemote needs at least one connection")
	}
	r := &Remote{
		eng:        eng,
		TxCPU:      7 * sim.Microsecond,
		RxCPU:      7 * sim.Microsecond,
		BlockLayer: 3 * sim.Microsecond,
	}
	for i, c := range conns {
		ctx := &hwContext{r: r, conn: c}
		ctx.poll = sim.NewPoller(eng, sim.NewResource(eng, fmt.Sprintf("blkmq/ctx%d", i)), ctx.pass, ctx.again)
		r.ctxs = append(r.ctxs, ctx)
	}
	return r
}

// NewLocalMQ builds the kernel NVMe multi-queue driver over a local device
// target: the same blk-mq context structure as the remote driver but with
// the cheaper local submission/interrupt path (~7us of CPU per I/O, so one
// context sustains ~140K IOPS, matching the FIO local scaling of §5.6).
func NewLocalMQ(eng *sim.Engine, tgt workload.Target, contexts int) *Remote {
	if contexts <= 0 {
		panic("blockdev: NewLocalMQ needs at least one context")
	}
	conns := make([]workload.Target, contexts)
	for i := range conns {
		conns[i] = tgt
	}
	r := NewRemote(eng, conns)
	r.TxCPU = 3500
	r.RxCPU = 3500
	r.BlockLayer = 3 * sim.Microsecond
	return r
}

// Contexts returns the number of hardware contexts.
func (r *Remote) Contexts() int { return len(r.ctxs) }

// Submit implements Device, spreading I/Os across contexts round-robin the
// way blk-mq maps submitting CPUs to contexts.
func (r *Remote) Submit(op core.OpType, block uint64, size int, done func(lat sim.Time)) {
	ctx := r.ctxs[r.next%len(r.ctxs)]
	r.next++
	r.SubmitOn(ctx, op, block, size, done)
}

// Issue makes Remote satisfy workload.Target.
func (r *Remote) Issue(op core.OpType, block uint64, size int, done func(lat sim.Time)) {
	r.Submit(op, block, size, done)
}

// Context returns a Device view pinned to one hardware context (an
// application thread submitting from one CPU).
func (r *Remote) Context(i int) Device {
	return pinned{r: r, ctx: r.ctxs[i%len(r.ctxs)]}
}

type pinned struct {
	r   *Remote
	ctx *hwContext
}

// Submit implements Device.
func (p pinned) Submit(op core.OpType, block uint64, size int, done func(lat sim.Time)) {
	p.r.SubmitOn(p.ctx, op, block, size, done)
}

// Issue makes a pinned context satisfy workload.Target.
func (p pinned) Issue(op core.OpType, block uint64, size int, done func(lat sim.Time)) {
	p.Submit(op, block, size, done)
}

// Issue makes Local satisfy workload.Target.
func (l *Local) Issue(op core.OpType, block uint64, size int, done func(lat sim.Time)) {
	l.Submit(op, block, size, done)
}

// SubmitOn issues an I/O through a specific context.
func (r *Remote) SubmitOn(ctx *hwContext, op core.OpType, block uint64, size int, done func(lat sim.Time)) {
	b := &bio{op: op, block: block, size: size, start: r.eng.Now(), done: done}
	r.eng.After(r.BlockLayer, func() {
		ctx.txQ = append(ctx.txQ, b)
		ctx.poll.Kick()
	})
}
