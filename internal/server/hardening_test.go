package server

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/ctrl"
	"github.com/reflex-go/reflex/internal/protocol"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestIdleReapGoroutineRegression is the satellite regression test for the
// half-open connection leak: before deadlines existed, a peer that went
// silent pinned its reader goroutine and tenant registrations forever.
// Now the idle reaper must close such connections, unregister their
// tenants, count them in conns_reaped, and return the goroutine count to
// its baseline.
func TestIdleReapGoroutineRegression(t *testing.T) {
	srv, cl := startServer(t, func(c *Config) { c.IdleTimeout = 150 * time.Millisecond })
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	// Half-open peers: they connect, say nothing, and never hang up.
	var conns []net.Conn
	for i := 0; i < 8; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns = append(conns, c)
	}
	waitFor(t, time.Second, "connections accepted", func() bool {
		return srv.connCount.Load() >= 8
	})

	// All silent connections (including the client's) are reaped.
	waitFor(t, 5*time.Second, "idle connections reaped", func() bool {
		return srv.m.reaped.Value() >= 8
	})
	waitFor(t, 5*time.Second, "conn set drained", func() bool {
		return srv.connCount.Load() == 0
	})
	// The reaped connection's tenant is unregistered with it.
	waitFor(t, 5*time.Second, "tenant unregistered on reap", func() bool {
		_, ok := srv.lookup(h)
		return !ok
	})
	// No leaked reader goroutines: the count returns to (near) baseline.
	// The baseline included the live client; allow it plus slack.
	waitFor(t, 5*time.Second, "goroutines back to baseline", func() bool {
		return runtime.NumGoroutine() <= base+2
	})
}

// rawRegister registers a tenant over a raw connection.
func rawRegister(t *testing.T, c net.Conn, reg protocol.Registration) uint16 {
	t.Helper()
	frame, err := protocol.AppendMessage(nil, &protocol.Header{Opcode: protocol.OpRegister, Cookie: 1}, reg.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	m, err := protocol.ReadMessage(c)
	if err != nil || m.Header.Status != protocol.StatusOK {
		t.Fatalf("register: %v %v", err, m)
	}
	return m.Header.Handle
}

// serverSide finds the server's end of a client connection.
func serverSide(t *testing.T, srv *Server, c net.Conn) *srvConn {
	t.Helper()
	var found *srvConn
	waitFor(t, 5*time.Second, "connection adopted", func() bool {
		srv.connMu.Lock()
		defer srv.connMu.Unlock()
		for sc := range srv.conns {
			if sa, err := syscall.Getpeername(sc.fd); err == nil &&
				sa.(*syscall.SockaddrInet4).Port == c.LocalAddr().(*net.TCPAddr).Port {
				found = sc
			}
		}
		return found != nil
	})
	return found
}

// TestFlushFailureTearsDownConn: a writev that fails — the peer reset the
// connection (SO_LINGER 0) — tears the connection down: closed, removed
// from the server's set and its tenants unregistered, instead of leaving
// it half-dead. The reset and the writev run inside one loop callback, so
// the read path cannot notice the reset first.
func TestFlushFailureTearsDownConn(t *testing.T) {
	srv, _ := startServer(t, nil)
	peer, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	h := rawRegister(t, peer, beWritable())
	sc := serverSide(t, srv, peer)
	down := make(chan bool, 1)
	sc.core.post(inItem{fn: func() {
		peer.(*net.TCPConn).SetLinger(0)
		peer.Close() // RST
		for i := 0; i < 100 && !sc.down; i++ {
			sc.send(sc.core, protocol.Header{Opcode: protocol.OpPing, Flags: protocol.FlagResponse}, nil, nil)
			sc.core.flush(sc, srv.now())
			if !sc.down {
				time.Sleep(time.Millisecond) // the reset is still in flight
			}
		}
		down <- sc.down
	}})
	if !<-down {
		t.Fatal("writev to a reset peer did not tear the connection down")
	}
	waitFor(t, 5*time.Second, "conn removed from server set", func() bool {
		srv.connMu.Lock()
		defer srv.connMu.Unlock()
		_, stillThere := srv.conns[sc]
		return !stillThere
	})
	waitFor(t, 5*time.Second, "owned tenant unregistered", func() bool {
		_, ok := srv.lookup(h)
		return !ok
	})
}

// TestStalledReaderTornDownAtWriteTimeout: a client that stops reading
// while the server owes it 64 MiB of responses is torn down once its
// unsent tail has made no progress for WriteTimeout — and a second
// connection on the same core is served all the while: the loop never
// waits on a full socket.
func TestStalledReaderTornDownAtWriteTimeout(t *testing.T) {
	const wt = 300 * time.Millisecond
	srv, cl := startServer(t, func(c *Config) {
		c.Cores = 1
		c.WriteTimeout = wt
	})
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	stalled, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	rh := rawRegister(t, stalled, beWritable())
	var reqs []byte
	for i := 0; i < 64<<20/4096; i++ {
		reqs, _ = protocol.AppendMessage(reqs, &protocol.Header{Opcode: protocol.OpRead, Handle: rh, Cookie: uint64(i), Count: 4096}, nil)
	}
	if _, err := stalled.Write(reqs); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for srv.connCount.Load() > 1 {
		if _, err := cl.Read(h, 0, 4096); err != nil {
			t.Fatalf("the other connection was not served during the stall: %v", err)
		}
		if time.Since(start) > 20*time.Second {
			t.Fatal("the stalled reader was never torn down")
		}
	}
	if el := time.Since(start); el < wt {
		t.Fatalf("torn down after %v, before WriteTimeout %v", el, wt)
	}
	if _, err := cl.Read(h, 0, 4096); err != nil {
		t.Fatalf("read after the teardown: %v", err)
	}
}

// TestIdleLoopDoesNotSpin: an idle server with one open connection burns
// (almost) no CPU — its loops sleep in epoll_wait, waking only for the
// timeout sweep.
func TestIdleLoopDoesNotSpin(t *testing.T) {
	_, cl := startServer(t, nil)
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(h, 0, 512); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	before := cpu()
	time.Sleep(2 * time.Second)
	if used := cpu() - before; used > 20*time.Millisecond {
		t.Fatalf("idle server used %v of CPU in 2s, want < 20ms", used)
	}
}

// TestDeadConnReturnsLCReservation: when a connection dies, its tenants'
// unspent token reservations must return to the scheduler — otherwise a
// crashed LC tenant permanently eats device capacity.
func TestDeadConnReturnsLCReservation(t *testing.T) {
	srv, _ := startServer(t, func(c *Config) {
		c.TokenRate = 420_000 * core.TokenUnit
		c.IdleTimeout = -1 // isolate the teardown path under test
	})
	lc := protocol.Registration{
		Writable:    true,
		IOPS:        420_000, // consumes the whole device rate
		ReadPercent: 100,
		LatencyP95:  uint64(500 * time.Microsecond),
	}

	clA, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clA.Register(lc); err != nil {
		t.Fatal(err)
	}
	// Capacity exhausted: a second full-rate tenant is refused.
	clB, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	if _, err := clB.Register(lc); !errors.Is(err, client.ErrNoCapacity) {
		t.Fatalf("second full-rate LC register: %v, want ErrNoCapacity", err)
	}

	// A dies without unregistering. Teardown must give the rate back.
	clA.Close()
	waitFor(t, 5*time.Second, "LC reservation returned", func() bool {
		h, err := clB.Register(lc)
		if err != nil {
			return false
		}
		clB.Unregister(h)
		return true
	})
}

// TestUDPTruncatedDatagramRejected is the satellite bugfix test for the
// datagram-truncation bug: a datagram larger than the receive buffer used
// to be parsed as if complete, reading garbage as payload. The server must
// detect the full buffer and reply with StatusTruncated.
func TestUDPTruncatedDatagramRejected(t *testing.T) {
	srv, cl := startUDPServer(t, nil)
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}

	conn, err := netDialUDP(srv.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A write request claiming (and carrying) more payload than the
	// server's receive buffer: the kernel truncates it on read.
	payload := MaxUDPIO + 8192
	hdr := protocol.Header{
		Opcode: protocol.OpWrite,
		Handle: h,
		Cookie: 0xBEEF,
		Count:  uint32(payload),
		Len:    uint32(payload),
	}
	pkt := make([]byte, protocol.HeaderSize+payload)
	hdr.MarshalTo(pkt)
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64<<10)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no reply to truncated datagram: %v", err)
	}
	m, err := protocol.ReadMessage(bytes.NewReader(buf[:n]))
	if err != nil {
		t.Fatalf("parse reply: %v", err)
	}
	if m.Header.Status != protocol.StatusTruncated {
		t.Fatalf("status = %v, want %v", m.Header.Status, protocol.StatusTruncated)
	}
	if m.Header.Cookie != 0xBEEF {
		t.Fatalf("cookie = %#x, want the request's", m.Header.Cookie)
	}
	// The endpoint survives and still serves well-formed traffic.
	if _, err := cl.Read(h, 0, 512); err != nil {
		t.Fatalf("server broken after truncated datagram: %v", err)
	}
}

// TestBarrierMidDisconnectNoStuckWaiters is the satellite test for the
// barrier sequencer under client disconnect: a tenant dying mid-barrier
// (in-flight writes, pending barrier from another connection) must answer
// the barrier with a typed error — never leave the waiter stuck — and
// surviving tenants' ordering must keep working.
func TestBarrierMidDisconnectNoStuckWaiters(t *testing.T) {
	srv, clB := startServer(t, func(c *Config) { c.WriteLatency = 50 * time.Millisecond })

	clA, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	h, err := clA.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	// In-flight writes keep the tenant busy so the barrier must queue.
	data := bytes.Repeat([]byte{0x5A}, 4096)
	for i := 0; i < 4; i++ {
		if _, err := clA.GoWrite(h, uint32(i*8), data); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := srv.lookup(h)
	if !ok {
		t.Fatal("tenant vanished")
	}
	// The writes travel on clA's connection and the barrier on clB's: wait
	// until the server has the writes in flight so the barrier must queue
	// behind them rather than completing vacuously.
	waitFor(t, 2*time.Second, "writes in flight", func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.outstanding > 0
	})
	// The barrier waits on another connection sharing the handle (§3.2:
	// thousands of connections may share a tenant).
	call, err := clB.GoBarrier(h)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "barrier queued", func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return len(st.seq) > 0
	})

	// The owning connection dies mid-barrier.
	clA.Close()

	select {
	case <-call.Done:
		if !errors.Is(call.Err, client.ErrNoTenant) {
			t.Fatalf("barrier on dead tenant: %v, want ErrNoTenant", call.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("barrier waiter stuck on dead tenant")
	}

	// Survivor: a fresh tenant on the live connection still gets monotonic
	// barrier ordering (write -> barrier -> read observes the write).
	h2, err := clB.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xC3}, 4096)
	if _, err := clB.GoWrite(h2, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := clB.Barrier(h2); err != nil {
		t.Fatalf("survivor barrier: %v", err)
	}
	got, err := clB.Read(h2, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read after barrier did not observe the preceding write")
	}
}

// TestShedBestEffortNeverLC: over the connection limit, best-effort I/O is
// refused with StatusOverloaded while latency-critical I/O still flows.
func TestShedBestEffortNeverLC(t *testing.T) {
	srv, cl := startServer(t, func(c *Config) {
		c.Shed = ctrl.ShedConfig{ConnLimit: 1}
	})
	be, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	lc, err := cl.Register(protocol.Registration{
		Writable:    true,
		IOPS:        10_000,
		ReadPercent: 100,
		LatencyP95:  uint64(500 * time.Microsecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Requests flow while under the limit.
	if _, err := cl.Read(be, 0, 512); err != nil {
		t.Fatal(err)
	}

	// Push past the connection limit.
	extra, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	waitFor(t, time.Second, "second connection accepted", func() bool {
		return srv.connCount.Load() >= 2
	})

	if _, err := cl.Read(be, 0, 512); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("BE read over conn limit: %v, want ErrOverloaded", err)
	}
	if srv.m.shed.Value() < 1 {
		t.Fatal("requests_shed not incremented")
	}
	// LC is never shed.
	if _, err := cl.Read(lc, 0, 512); err != nil {
		t.Fatalf("LC read shed under overload: %v", err)
	}
}
