package server

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/ctrl"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/storage"
)

// TestHandleWrapProbesPastCollision is the handle-wrap starvation
// regression: after the allocation cursor wraps the uint16 space, a
// collision with a long-lived tenant used to return StatusNoCapacity even
// though almost every handle was free. Registration must probe past live
// handles (and skip the reserved handle 0) and only report exhaustion
// when the table is truly full.
func TestHandleWrapProbesPastCollision(t *testing.T) {
	srv, _ := startServer(t, nil)

	// Park a long-lived tenant at the very top of the handle space.
	srv.tenants.next.Store(65534) // next claim: 65534+1 = 65535
	hTop, st := srv.registerTenant(nil, beWritable(), -1)
	if st != protocol.StatusOK || hTop != 65535 {
		t.Fatalf("top registration: handle %d status %v, want 65535 OK", hTop, st)
	}

	// Rewind the cursor so the next claim collides with the live tenant,
	// then wraps through 0. The fixed allocator must deliver handle 1.
	srv.tenants.next.Store(65534)
	h, st := srv.registerTenant(nil, beWritable(), -1)
	if st != protocol.StatusOK {
		t.Fatalf("registration across the wrap: %v, want OK (old allocator starved here)", st)
	}
	if h != 1 {
		t.Fatalf("wrapped registration handle = %d, want 1 (probe past 65535, skip 0)", h)
	}

	// Churn across the wrap: register/unregister repeatedly with the
	// cursor pinned near the top so every iteration wraps and collides.
	for i := 0; i < 64; i++ {
		srv.tenants.next.Store(65534)
		hi, st := srv.registerTenant(nil, beWritable(), -1)
		if st != protocol.StatusOK {
			t.Fatalf("churn iteration %d: %v, want OK", i, st)
		}
		if st := srv.unregisterTenant(nil, hi); st != protocol.StatusOK {
			t.Fatalf("churn unregister %d: %v", i, st)
		}
	}

	// The long-lived tenant was never disturbed.
	if _, ok := srv.lookup(hTop); !ok {
		t.Fatal("long-lived tenant lost during wrap churn")
	}
}

// TestTenantTableExhaustion verifies the allocator's only refusal is true
// exhaustion: with every one of the 65535 usable handles claimed, claim
// fails; freeing a single slot makes it succeed again.
func TestTenantTableExhaustion(t *testing.T) {
	tt := &tenantTable{}
	for i := 0; i < handleSpace-1; i++ {
		if _, ok := tt.claim(); !ok {
			t.Fatalf("claim %d failed with free slots remaining", i)
		}
	}
	if h, ok := tt.claim(); ok {
		t.Fatalf("claim succeeded (%d) on a full table", h)
	}
	tt.unclaim(12345)
	h, ok := tt.claim()
	if !ok || h != 12345 {
		t.Fatalf("claim after freeing 12345: handle %d ok=%v, want 12345 true", h, ok)
	}
}

// recordResponder captures responses for drop-path assertions.
type recordResponder struct {
	mu   sync.Mutex
	hdrs []protocol.Header
}

func (r *recordResponder) send(_ *pcore, hdr protocol.Header, payload []byte, lease *bufpool.Buf) {
	r.mu.Lock()
	r.hdrs = append(r.hdrs, hdr)
	r.mu.Unlock()
	bufpool.ReleaseIf(lease)
}

// TestShutdownDropFailsRequest is the shutdown lease-leak regression: a
// request that reaches a core after its loop exited (a cross-core
// hand-off, a forward ack or a latency timer racing Close) must not vanish
// with its resources held. The closed inbox retires it: the payload lease
// is released (verified through recycle-time poisoning) and the tenant's
// in-flight count repaid, and it is not answered StatusOverloaded — its
// connection closes instead, so an LC tenant is never shed at shutdown.
func TestShutdownDropFailsRequest(t *testing.T) {
	bufpool.SetPoison(true)
	defer bufpool.SetPoison(false)

	cfg := Config{
		Addr:      "127.0.0.1:0",
		Cores:     1,
		Model:     modelA(),
		TokenRate: 1_000_000 * core.TokenUnit,
	}
	srv, err := New(cfg, storage.NewMem(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	h, st := srv.registerTenant(nil, beWritable(), -1)
	if st != protocol.StatusOK {
		t.Fatalf("register: %v", st)
	}
	ten, ok := srv.lookup(h)
	if !ok {
		t.Fatal("tenant missing")
	}
	srv.Close() // core loop gone; its inbox closed

	rr := &recordResponder{}
	lease := bufpool.Get(512)
	payload := lease.Bytes()
	for i := range payload {
		payload[i] = 0x5A
	}
	pc := srv.cores[0]
	c := pc.record()
	c.conn, c.ten, c.payload, c.lease = rr, ten, payload, lease
	c.hdr = protocol.Header{Opcode: protocol.OpWrite, Handle: h, Count: 512, Len: 512}
	c.Request = core.Request{Op: core.OpWrite, Size: 512, Context: c}
	ten.mu.Lock()
	ten.outstanding++ // what submitIO charges before the hand-off
	ten.mu.Unlock()
	c.phase = phaseQueue
	pc.post(inItem{ctx: c})

	if payload[0] != bufpool.Poison {
		t.Fatalf("payload byte %#x after drop, want poison %#x (lease never recycled)",
			payload[0], bufpool.Poison)
	}
	rr.mu.Lock()
	got := len(rr.hdrs)
	rr.mu.Unlock()
	if got != 0 {
		t.Fatalf("dropped request answered %d times, want 0 (its connection closes instead)", got)
	}
	ten.mu.Lock()
	outstanding := ten.outstanding
	ten.mu.Unlock()
	if outstanding != 0 {
		t.Fatalf("outstanding = %d after drop, want 0", outstanding)
	}
}

// TestShutdownNeverShedsLC is the Close-time half of "an LC tenant is
// never shed": reads queued behind an LC tenant's exhausted token bucket
// when Close runs are retired with their connection, so the client sees a
// connection error and never ErrOverloaded.
func TestShutdownNeverShedsLC(t *testing.T) {
	srv, err := New(Config{
		Addr:      "127.0.0.1:0",
		Cores:     1,
		Model:     modelA(),
		TokenRate: 10_000 * core.TokenUnit,
	}, storage.NewMem(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Register(protocol.Registration{IOPS: 1000, ReadPercent: 100, LatencyP95: uint64(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	var calls []*client.Call
	for i := 0; i < 300; i++ {
		call, err := cl.GoRead(h, 0, 512)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call)
	}
	waitFor(t, 5*time.Second, "reads queued behind the token bucket", func() bool {
		return srv.cores[0].backlog.Load() > 0
	})
	srv.Close()
	failed := 0
	for _, call := range calls {
		<-call.Done
		if errors.Is(call.Err, client.ErrOverloaded) {
			t.Fatal("an LC read was shed at shutdown")
		}
		if call.Err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no read was still queued at Close; the test proved nothing")
	}
}

// TestShutdownUnderLoadPoisoned closes a multi-core server while clients
// hammer the write path with pooled payload leases in flight and recycle
// poisoning armed: any request abandoned with its lease still referenced,
// double-released, or flushed after recycling trips the poison/refcount
// checks (panic) or the race detector.
func TestShutdownUnderLoadPoisoned(t *testing.T) {
	bufpool.SetPoison(true)
	defer bufpool.SetPoison(false)

	cfg := Config{
		Addr:      "127.0.0.1:0",
		Cores:     2,
		Model:     modelA(),
		TokenRate: 1_000_000 * core.TokenUnit,
	}
	srv, err := New(cfg, storage.NewMem(16<<20))
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(srv.Addr())
			if err != nil {
				return // accept may already be racing Close
			}
			defer cl.Close()
			h, err := cl.Register(beWritable())
			if err != nil {
				return
			}
			data := bytes.Repeat([]byte{byte(w + 1)}, 4096)
			for i := 0; ; i++ {
				// Errors are expected once Close lands; the test's
				// assertion is the absence of poison/refcount panics.
				if _, err := cl.GoWrite(h, uint32((i%64)*8), data); err != nil {
					return
				}
				if i%32 == 0 {
					if _, err := cl.Read(h, 0, 4096); err != nil {
						return
					}
				}
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond) // let the load reach steady state
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestShedQueueHighWatermark: the queue watermark reads the tenant
// core's scheduler backlog, which the loop publishes every pass. With
// best-effort reads piled up behind the token bucket past QueueHigh, the
// next best-effort request is refused while an LC tenant still gets in;
// an unset watermark defaults to DefaultShedQueueHigh.
func TestShedQueueHighWatermark(t *testing.T) {
	cfg := Config{}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.Shed.QueueHigh != DefaultShedQueueHigh {
		t.Fatalf("default QueueHigh = %d, want %d", cfg.Shed.QueueHigh, DefaultShedQueueHigh)
	}
	srv, cl := startServer(t, func(c *Config) {
		c.Cores = 1
		c.TokenRate = 1_000 * core.TokenUnit
		c.Shed = ctrl.ShedConfig{QueueHigh: 16}
	})
	be, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	lc, err := cl.Register(protocol.Registration{IOPS: 100, ReadPercent: 100, LatencyP95: uint64(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ { // about half a second of best-effort tokens
		if _, err := cl.GoRead(be, 0, 512); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "backlog past the watermark", func() bool {
		return srv.cores[0].backlog.Load() > 16
	})
	if _, err := cl.Read(be, 0, 512); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("best-effort read over the backlog watermark: %v, want ErrOverloaded", err)
	}
	if _, err := cl.Read(lc, 0, 512); err != nil {
		t.Fatalf("LC read shed over the backlog watermark: %v", err)
	}
}

// TestCorePinnedChurn exercises the shared-nothing invariants under
// -race: a multi-core server with connections spread across cores,
// tenants pinned to their connection's core, and concurrent
// register/unregister churn while other connections push ledgered writes.
// The race detector proves no cross-core scheduler access; the final
// read-back proves every acknowledged write landed.
func TestCorePinnedChurn(t *testing.T) {
	srv, _ := startServer(t, func(c *Config) {
		c.Cores = 4
	})
	if srv.Cores() != 4 {
		t.Fatalf("Cores() = %d, want 4", srv.Cores())
	}

	// Pinning rule: every tenant registered over one connection lands on
	// that connection's core.
	cl0, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl0.Close()
	var handles []uint16
	for i := 0; i < 3; i++ {
		h, err := cl0.Register(beWritable())
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	first, _ := srv.lookup(handles[0])
	for _, h := range handles[1:] {
		st, ok := srv.lookup(h)
		if !ok || st.coreID != first.coreID {
			t.Fatalf("tenants on one connection landed on cores %d and %d, want co-located",
				first.coreID, st.coreID)
		}
	}

	const (
		writers = 4
		churns  = 2
		blocks  = 32
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers+churns)

	// Ledgered writers: each owns a disjoint LBA range on its own
	// connection (= its own core) and must read back everything it wrote.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(srv.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			h, err := cl.Register(beWritable())
			if err != nil {
				errCh <- err
				return
			}
			base := uint32(w * blocks * 8) // disjoint 4KiB-block ranges
			for i := 0; i < blocks; i++ {
				data := bytes.Repeat([]byte{byte(w<<4 | i&0xF)}, 4096)
				if err := cl.Write(h, base+uint32(i*8), data); err != nil {
					errCh <- fmt.Errorf("writer %d block %d: %w", w, i, err)
					return
				}
			}
			for i := 0; i < blocks; i++ {
				want := bytes.Repeat([]byte{byte(w<<4 | i&0xF)}, 4096)
				got, err := cl.Read(h, base+uint32(i*8), 4096)
				if err != nil {
					errCh <- fmt.Errorf("writer %d readback %d: %w", w, i, err)
					return
				}
				if !bytes.Equal(got, want) {
					errCh <- fmt.Errorf("writer %d block %d: ledgered write lost", w, i)
					return
				}
			}
		}(w)
	}

	// Churners: register/unregister and small I/O on their own
	// connections, concurrently with the ledgered writers.
	for c := 0; c < churns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(srv.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 48; i++ {
				h, err := cl.Register(beWritable())
				if err != nil {
					errCh <- fmt.Errorf("churn %d register %d: %w", c, i, err)
					return
				}
				if _, err := cl.Read(h, uint32(1024+c*16), 512); err != nil {
					errCh <- fmt.Errorf("churn %d read %d: %w", c, i, err)
					return
				}
				if err := cl.Unregister(h); err != nil {
					errCh <- fmt.Errorf("churn %d unregister %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
