package server

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/ctrl"
	"github.com/reflex-go/reflex/internal/faults"
	"github.com/reflex-go/reflex/internal/protocol"
)

// TestChaosSoak drives the real TCP path through the fault injector on
// both sides — the server's core loops consult it at every connection read
// and write, the clients dial through a faulted dialer — for a few seconds
// of mixed read/write load, and then asserts the hardening invariants:
//
//   - every issued request resolves (success or typed error; none hang),
//   - latency-critical traffic is never shed,
//   - no goroutines leak once the clients are gone,
//   - faults were actually injected (the run exercised the error paths).
//
// The CI chaos-soak job runs exactly this test under -race.
func TestChaosSoak(t *testing.T) {
	dur := 3 * time.Second
	if testing.Short() {
		dur = time.Second
	}

	inj := faults.New(faults.Chaos(1))
	srv, _ := startServer(t, func(c *Config) {
		c.Faults = inj
		c.IdleTimeout = time.Second
		c.Shed = ctrl.ShedConfig{ConnLimit: 64}
	})
	base := runtime.NumGoroutine()

	deadline := time.Now().Add(dur)
	var issued, resolved, lcShed atomic.Uint64
	var wg sync.WaitGroup

	// Best-effort workers: faulted dialers, request timeouts, reconnect.
	// Every synchronous call that returns — whatever the error — counts
	// as resolved; a stuck call shows up as issued > resolved below.
	clientOpts := func(seed int64) client.Options {
		return client.Options{
			Timeout:     500 * time.Millisecond,
			Reconnect:   true,
			MaxAttempts: 4,
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  50 * time.Millisecond,
			Dialer:      faults.Dialer("tcp", srv.Addr(), faults.New(faults.Chaos(seed))),
		}
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var cl *client.Client
			var h uint16
			redial := func() bool {
				if cl != nil {
					cl.Close()
				}
				var err error
				cl, err = client.DialOptions(srv.Addr(), clientOpts(int64(100+w)))
				if err != nil {
					return false
				}
				h, err = cl.Register(beWritable())
				return err == nil
			}
			if !redial() {
				t.Error("chaos worker could not establish its first session")
				return
			}
			defer func() { cl.Close() }()
			buf := make([]byte, 4096)
			for time.Now().Before(deadline) {
				issued.Add(1)
				var err error
				if rng.Intn(100) < 80 {
					_, err = cl.Read(h, uint32(rng.Intn(1024)*8), 4096)
				} else {
					err = cl.Write(h, uint32(rng.Intn(1024)*8), buf)
				}
				resolved.Add(1)
				if errors.Is(err, client.ErrClosed) || errors.Is(err, client.ErrNoTenant) {
					// Reconnect gave up or the tenant was reaped: start a
					// fresh session and keep soaking.
					if !redial() {
						time.Sleep(20 * time.Millisecond)
					}
				}
			}
		}(w)
	}

	// The LC probe: its requests must never be shed, no matter what the
	// chaos around it does to the server. Device errors, timeouts and
	// resets can still hit it (the server injects on every connection) —
	// only ErrOverloaded violates the invariant.
	wg.Add(1)
	go func() {
		defer wg.Done()
		lcReg := protocol.Registration{
			Writable:    true,
			IOPS:        1000,
			ReadPercent: 100,
			LatencyP95:  uint64(time.Millisecond),
		}
		lcOpts := client.Options{
			Timeout:     500 * time.Millisecond,
			Reconnect:   true,
			MaxAttempts: 4,
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  50 * time.Millisecond,
		}
		var cl *client.Client
		var h uint16
		redial := func() bool {
			if cl != nil {
				cl.Close()
			}
			var err error
			cl, err = client.DialOptions(srv.Addr(), lcOpts)
			if err != nil {
				return false
			}
			h, err = cl.Register(lcReg)
			return err == nil
		}
		if !redial() {
			t.Error("LC probe could not establish its first session")
			return
		}
		defer func() { cl.Close() }()
		for time.Now().Before(deadline) {
			issued.Add(1)
			_, err := cl.Read(h, 0, 512)
			resolved.Add(1)
			if errors.Is(err, client.ErrOverloaded) {
				lcShed.Add(1)
			} else if errors.Is(err, client.ErrClosed) || errors.Is(err, client.ErrNoTenant) {
				if !redial() {
					time.Sleep(20 * time.Millisecond)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Every worker must come home: a missing one means a call hung.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(dur + 30*time.Second):
		t.Fatalf("soak workers stuck: %d of %d requests resolved",
			resolved.Load(), issued.Load())
	}

	if issued.Load() == 0 {
		t.Fatal("soak issued no requests")
	}
	if resolved.Load() != issued.Load() {
		t.Fatalf("unresolved requests: issued %d, resolved %d",
			issued.Load(), resolved.Load())
	}
	if lcShed.Load() != 0 {
		t.Fatalf("%d latency-critical requests were shed", lcShed.Load())
	}
	if inj.Injected() == 0 {
		t.Fatal("server-side injector fired no faults — the soak proved nothing")
	}
	// All clients are closed: reader goroutines, reapers' per-conn state
	// and barrier waiters must all unwind.
	waitFor(t, 10*time.Second, "goroutines back to baseline", func() bool {
		return runtime.NumGoroutine() <= base+2
	})
	t.Logf("soak: %d requests, %d faults injected, %.0f conns reaped, %.0f shed",
		issued.Load(), inj.Injected(), srv.m.reaped.Value(), srv.m.shed.Value())
}
