package dataplane

import (
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/netsim"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/sim"
)

// Conn is one client network connection bound to a tenant. Thousands of
// connections may share a tenant (§3.2); each connection is served by the
// tenant's thread.
type Conn struct {
	id     uint64
	srv    *Server
	tenant *core.Tenant
	client *netsim.Endpoint
	closed bool
}

// thread resolves the tenant's current thread; connections follow their
// tenant across rebalancing moves (§4.3).
func (c *Conn) thread() *thread {
	return c.srv.threads[c.srv.threadOf(c.tenant)]
}

// Connect opens a connection from a client endpoint to the server for the
// given tenant. The tenant must already be registered.
func (s *Server) Connect(client *netsim.Endpoint, tenant *core.Tenant) *Conn {
	ti := s.threadOf(tenant)
	if ti < 0 {
		panic("dataplane: Connect before RegisterTenant")
	}
	s.nextConn++
	s.threads[ti].conns++
	c := &Conn{
		id:     s.nextConn,
		srv:    s,
		tenant: tenant,
		client: client,
	}
	if s.conns == nil {
		s.conns = make(map[*Conn]struct{})
	}
	s.conns[c] = struct{}{}
	return c
}

// Close releases the connection's thread accounting. In-flight requests
// still complete.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.thread().conns--
	delete(c.srv.conns, c)
}

// Tenant returns the tenant this connection is bound to.
func (c *Conn) Tenant() *core.Tenant { return c.tenant }

// Read issues a remote read of size bytes at the given 4KB block address.
// done (optional) fires in engine context with the end-to-end latency seen
// by the client application.
func (c *Conn) Read(block uint64, size int, done func(lat sim.Time)) {
	c.issue(core.OpRead, block, size, done)
}

// Write issues a remote write.
func (c *Conn) Write(block uint64, size int, done func(lat sim.Time)) {
	c.issue(core.OpWrite, block, size, done)
}

// Issue dispatches on op; it makes Conn satisfy workload.Target.
func (c *Conn) Issue(op core.OpType, block uint64, size int, done func(lat sim.Time)) {
	c.issue(op, block, size, done)
}

func (c *Conn) issue(op core.OpType, block uint64, size int, done func(lat sim.Time)) {
	if c.closed {
		panic("dataplane: I/O on closed connection")
	}
	r := &ioRequest{conn: c, op: op, blk: block, size: size, issued: c.srv.eng.Now(), done: done}
	c.srv.reqSeq++
	r.span.ID = c.srv.reqSeq
	r.span.Tenant = c.tenant.ID
	r.span.Write = op == core.OpWrite
	r.span.Size = size
	wire := ReqHeaderBytes
	if op == core.OpWrite {
		wire += size
	}
	c.client.Send(c.srv.endpoint, wire, func(sim.Time) {
		c.thread().arrive(r)
	})
}

// respond sends the response back to the client (server side).
func (c *Conn) respond(r *ioRequest) {
	r.span.Mark(obs.StageTx, c.srv.eng.Now())
	c.srv.ring.Push(r.span)
	wire := RespHeaderBytes
	if r.op == core.OpRead && !r.shed {
		wire += r.size // shed responses carry no payload
	}
	c.srv.endpoint.Send(c.client, wire, func(at sim.Time) {
		// A duplicated message (netsim fault) lands here twice; only the
		// first copy completes the request.
		if done := r.done; done != nil {
			r.done = nil
			done(at - r.issued)
		}
	})
}
