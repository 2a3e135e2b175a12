// Package baseline implements the comparison systems of the paper's
// evaluation (§5.1):
//
//   - LocalNode: direct access to the NVMe device through SPDK-style
//     userspace queues — the best-case local configuration ("Local (SPDK)"
//     in Table 2, the "Local" curves of Figures 4 and 7a).
//   - Server with LibaioProfile: a lightweight remote storage server built
//     on Linux epoll/libevent + libaio — efficient for Linux, but
//     interrupt-driven and ~75K IOPS/core (§2.1, §5.3).
//   - Server with ISCSIProfile: the Linux iSCSI path, with heavyweight
//     protocol processing and data copies between socket, SCSI and
//     application buffers (§5.2).
//
// Both remote baselines run on the same simulated network and flash device
// as the ReFlex dataplane, so every comparison differs only in the
// architecture being modeled.
package baseline

import (
	"fmt"

	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/flashsim"
	"github.com/reflex-go/reflex/internal/netsim"
	"github.com/reflex-go/reflex/internal/sim"
)

// LocalNode models a host issuing I/O to its local NVMe device through
// userspace (SPDK-style) queues: no network, minimal per-request CPU. Each
// core runs a polling loop that alternates bounded batches of completions
// and submissions, exactly like a real SPDK reactor, so neither side
// starves under overload.
type LocalNode struct {
	eng   *sim.Engine
	dev   *flashsim.Device
	cores []*localCore

	// SubmitCPU and CompleteCPU are charged on the issuing core around
	// each device access; together they set the ~870K IOPS/core ceiling
	// of §5.3.
	SubmitCPU   sim.Time
	CompleteCPU sim.Time
	// MaxBatch caps how many queue entries one polling pass handles.
	MaxBatch int
}

type localOp struct {
	op    core.OpType
	block uint64
	size  int
	start sim.Time
	done  func(lat sim.Time)
}

type localCore struct {
	node *LocalNode
	poll *sim.Poller
	sq   []*localOp // submissions waiting for CPU
	cq   []*localOp // device completions waiting for CPU
}

// NewLocalNode creates a local SPDK-style node with the given core count.
func NewLocalNode(eng *sim.Engine, dev *flashsim.Device, cores int) *LocalNode {
	if cores <= 0 {
		panic("baseline: LocalNode needs at least one core")
	}
	n := &LocalNode{eng: eng, dev: dev, SubmitCPU: 600, CompleteCPU: 550, MaxBatch: 64}
	for i := 0; i < cores; i++ {
		c := &localCore{node: n}
		c.poll = sim.NewPoller(eng, sim.NewResource(eng, fmt.Sprintf("spdk/core%d", i)), c.pass, c.again)
		n.cores = append(n.cores, c)
	}
	return n
}

// Core returns a workload target bound to core i. Each target mimics one
// application thread polling its own NVMe queue pair.
func (n *LocalNode) Core(i int) CoreTarget {
	return CoreTarget{c: n.cores[i]}
}

// Cores returns the number of cores.
func (n *LocalNode) Cores() int { return len(n.cores) }

// CoreTarget issues I/O from one local core; it satisfies workload.Target.
type CoreTarget struct {
	c *localCore
}

// Issue submits one I/O through the local core.
func (t CoreTarget) Issue(op core.OpType, block uint64, size int, done func(lat sim.Time)) {
	lo := &localOp{op: op, block: block, size: size, start: t.c.node.eng.Now(), done: done}
	t.c.sq = append(t.c.sq, lo)
	t.c.poll.Kick()
}

func (c *localCore) pass() bool {
	n := c.node
	// Completions first, as polling loops drain the CQ before submitting.
	for _, lo := range sim.Take(&c.cq, n.MaxBatch) {
		lo := lo
		c.poll.Core.Schedule(n.CompleteCPU, func(at sim.Time) {
			if lo.done != nil {
				lo.done(at - lo.start)
			}
		})
	}
	for _, lo := range sim.Take(&c.sq, n.MaxBatch) {
		lo := lo
		c.poll.Core.Schedule(n.SubmitCPU, func(sim.Time) {
			n.dev.Submit(&flashsim.Request{
				Op:    flashsim.OpFor(lo.op),
				Block: lo.block,
				Size:  lo.size,
				OnComplete: func(sim.Time) {
					c.cq = append(c.cq, lo)
					c.poll.Kick()
				},
			})
		})
	}
	return true
}

func (c *localCore) again() bool { return len(c.sq) > 0 || len(c.cq) > 0 }

// ServerProfile parameterizes an interrupt-driven remote storage server.
type ServerProfile struct {
	Name    string
	Threads int

	// RxCPU/TxCPU are per-request processing costs on a server core; their
	// sum sets the per-core IOPS ceiling (13.3us -> 75K IOPS for libaio,
	// 14.3us -> 70K for iSCSI).
	RxCPU sim.Time
	TxCPU sim.Time
	// CopyCPUPerKB is extra CPU on the data-bearing direction (iSCSI
	// copies between socket, SCSI and application buffers).
	CopyCPUPerKB sim.Time
	// RxLatency/TxLatency are fixed non-CPU adders: interrupt delivery,
	// softirq scheduling, kernel block/SCSI layer traversal.
	RxLatency sim.Time
	TxLatency sim.Time
	// WriteExtraLatency is an additional write-path adder (iSCSI command
	// acknowledgement handling).
	WriteExtraLatency sim.Time
	// MaxBatch is how many events one epoll wakeup handles.
	MaxBatch int
}

// LibaioProfile returns the libevent+libaio server of §5.1: the fastest
// remote-Flash server Linux sockets support.
func LibaioProfile(threads int) ServerProfile {
	return ServerProfile{
		Name:      "libaio",
		Threads:   threads,
		RxCPU:     6650, // 13.3us total -> 75K IOPS/core
		TxCPU:     6650,
		RxLatency: 5 * sim.Microsecond,
		TxLatency: 5 * sim.Microsecond,
		MaxBatch:  16,
	}
}

// ISCSIProfile returns the Linux open-iscsi path of §5.1.
func ISCSIProfile(threads int) ServerProfile {
	return ServerProfile{
		Name:              "iscsi",
		Threads:           threads,
		RxCPU:             7150, // 14.3us total -> 70K IOPS/core
		TxCPU:             7150,
		CopyCPUPerKB:      2 * sim.Microsecond,
		RxLatency:         30 * sim.Microsecond,
		TxLatency:         30 * sim.Microsecond,
		WriteExtraLatency: 10 * sim.Microsecond,
		MaxBatch:          16,
	}
}

func (p *ServerProfile) validate() error {
	if p.Threads <= 0 {
		return fmt.Errorf("baseline: %s: Threads must be positive", p.Name)
	}
	if p.MaxBatch <= 0 {
		return fmt.Errorf("baseline: %s: MaxBatch must be positive", p.Name)
	}
	return nil
}

// Server is an interrupt-driven remote storage server without QoS
// scheduling: requests go to the device in FIFO order.
type Server struct {
	eng      *sim.Engine
	net      *netsim.Network
	endpoint *netsim.Endpoint
	dev      *flashsim.Device
	prof     ServerProfile
	threads  []*bthread
	next     int
}

type bthread struct {
	srv  *Server
	poll *sim.Poller
	rxQ  []*breq
	cqQ  []*breq
}

type breq struct {
	conn  *Conn
	op    core.OpType
	blk   uint64
	size  int
	start sim.Time
	done  func(lat sim.Time)
}

// NewServer creates a baseline server on the network and device.
func NewServer(eng *sim.Engine, net *netsim.Network, dev *flashsim.Device, prof ServerProfile) *Server {
	if err := prof.validate(); err != nil {
		panic(err)
	}
	s := &Server{
		eng:      eng,
		net:      net,
		endpoint: net.NewEndpoint(prof.Name, netsim.NullStack(), 9001),
		dev:      dev,
		prof:     prof,
	}
	for i := 0; i < prof.Threads; i++ {
		th := &bthread{srv: s}
		th.poll = sim.NewPoller(eng, sim.NewResource(eng, fmt.Sprintf("%s/core%d", prof.Name, i)), th.pass, th.again)
		s.threads = append(s.threads, th)
	}
	return s
}

// Endpoint returns the server's network endpoint.
func (s *Server) Endpoint() *netsim.Endpoint { return s.endpoint }

// Conn is one client connection, bound round-robin to a server thread.
type Conn struct {
	srv    *Server
	thread *bthread
	client *netsim.Endpoint
}

// Connect opens a connection from the client endpoint.
func (s *Server) Connect(client *netsim.Endpoint) *Conn {
	th := s.threads[s.next%len(s.threads)]
	s.next++
	return &Conn{srv: s, thread: th, client: client}
}

// Issue sends one I/O to the server; it satisfies workload.Target.
func (c *Conn) Issue(op core.OpType, block uint64, size int, done func(lat sim.Time)) {
	r := &breq{conn: c, op: op, blk: block, size: size, start: c.srv.eng.Now(), done: done}
	wire := 48 // iSCSI/libaio request PDU
	if op == core.OpWrite {
		wire += size
	}
	c.client.Send(c.srv.endpoint, wire, func(sim.Time) {
		// Interrupt delivery and wakeup before the server thread sees it.
		c.srv.eng.After(c.srv.prof.RxLatency, func() {
			c.thread.arrive(r)
		})
	})
}

func (th *bthread) arrive(r *breq) {
	th.rxQ = append(th.rxQ, r)
	th.poll.Kick()
}

func (th *bthread) complete(r *breq) {
	th.cqQ = append(th.cqQ, r)
	th.poll.Kick()
}

func (th *bthread) pass() bool {
	p := &th.srv.prof
	for _, r := range sim.Take(&th.rxQ, p.MaxBatch) {
		r := r
		cpu := p.RxCPU
		if r.op == core.OpWrite {
			cpu += sim.Time(r.size/1024) * p.CopyCPUPerKB
		}
		th.poll.Core.Schedule(cpu, func(sim.Time) { th.submit(r) })
	}
	for _, r := range sim.Take(&th.cqQ, p.MaxBatch) {
		r := r
		cpu := p.TxCPU
		if r.op == core.OpRead {
			cpu += sim.Time(r.size/1024) * p.CopyCPUPerKB
		}
		th.poll.Core.Schedule(cpu, func(sim.Time) { r.conn.respond(r) })
	}
	return true
}

func (th *bthread) again() bool { return len(th.rxQ) > 0 || len(th.cqQ) > 0 }

func (th *bthread) submit(r *breq) {
	th.srv.dev.Submit(&flashsim.Request{
		Op:    flashsim.OpFor(r.op),
		Block: r.blk,
		Size:  r.size,
		OnComplete: func(sim.Time) {
			th.complete(r)
		},
	})
}

func (c *Conn) respond(r *breq) {
	p := &c.srv.prof
	delay := p.TxLatency
	if r.op == core.OpWrite {
		delay += p.WriteExtraLatency
	}
	c.srv.eng.After(delay, func() {
		wire := 48
		if r.op == core.OpRead {
			wire += r.size
		}
		c.srv.endpoint.Send(c.client, wire, func(at sim.Time) {
			// Under a duplicated message only the first copy completes.
			if done := r.done; done != nil {
				r.done = nil
				done(at - r.start)
			}
		})
	})
}
