package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/faults"
	"github.com/reflex-go/reflex/internal/protocol"
)

// chaosConfig parameterizes one soak run.
type chaosConfig struct {
	addr    string
	rate    float64
	conns   int
	readPct int
	size    int
	span    int64
	dur     time.Duration
	seed    int64
	timeout time.Duration
}

// outcome tally: every issued request lands in exactly one bucket.
type tally struct {
	issued     atomic.Int64
	ok         atomic.Int64
	device     atomic.Int64 // typed device error (retryable)
	overloaded atomic.Int64 // BE request shed by the server
	timeout    atomic.Int64 // per-request deadline expired
	connErr    atomic.Int64 // connection-level failures (reset, closed)
	other      atomic.Int64
	unresolved atomic.Int64 // Done never closed — the failure mode the soak exists to catch
	lcShed     atomic.Int64 // LC probe refused with overload — must stay zero
}

func classify(t *tally, err error) {
	switch {
	case err == nil:
		t.ok.Add(1)
	case errors.Is(err, client.ErrDevice):
		t.device.Add(1)
	case errors.Is(err, client.ErrOverloaded):
		t.overloaded.Add(1)
	case errors.Is(err, client.ErrTimeout):
		t.timeout.Add(1)
	case errors.Is(err, client.ErrClosed):
		t.connErr.Add(1)
	default:
		t.other.Add(1)
	}
}

// runChaos is the -chaos soak: faulted, reconnecting load connections with
// per-connection best-effort tenants, an LC probe that must never be shed,
// and strict all-requests-resolved accounting. Returns a process exit code.
func runChaos(cfg chaosConfig) int {
	fmt.Printf("chaos soak: %v at %.0f IOPS over %d conns, seed %d\n",
		cfg.dur, cfg.rate, cfg.conns, cfg.seed)
	baseGoroutines := runtime.NumGoroutine()

	// Client-side fault injector shared by all load connections. The
	// injector only consults connection-level probabilities here; device
	// faults are the server's business.
	inj := faults.New(faults.Chaos(cfg.seed))
	opts := client.Options{
		Timeout:   cfg.timeout,
		Reconnect: true,
		Dialer:    faults.Dialer("tcp", cfg.addr, inj),
	}

	// Admin connection: preload the span so reads return data. Its dialer
	// is un-faulted, but when the server itself runs -chaos every accepted
	// connection is wrapped server-side — so the admin must reconnect and
	// tolerate per-write device errors (a skipped block just stays zero).
	admin, err := client.DialOptions(cfg.addr, client.Options{
		Timeout:   cfg.timeout,
		Reconnect: true,
	})
	if err != nil {
		fmt.Printf("chaos: dial admin: %v\n", err)
		return 1
	}
	adminH, err := admin.Register(protocol.Registration{Writable: true, BestEffort: true})
	if err != nil {
		fmt.Printf("chaos: register admin tenant: %v\n", err)
		return 1
	}
	buf := make([]byte, cfg.size)
	var preloadErrs, consecTimeouts int
	for lba := int64(0); lba < cfg.span; lba += int64(cfg.size / 512) {
		err := admin.Write(adminH, uint32(lba), buf)
		if err == nil {
			consecTimeouts = 0
			continue
		}
		preloadErrs++
		if errors.Is(err, client.ErrTimeout) {
			consecTimeouts++
		} else {
			consecTimeouts = 0
		}
		// ErrClosed: reconnect gave up. Consecutive timeouts: the conn is
		// blackholed (a half-open peer never errors, every call just times
		// out). Either way the session is dead — start a fresh one.
		if errors.Is(err, client.ErrClosed) || consecTimeouts >= 2 {
			admin.Close()
			admin, err = client.DialOptions(cfg.addr, client.Options{
				Timeout:   cfg.timeout,
				Reconnect: true,
			})
			if err != nil {
				fmt.Printf("chaos: re-dial admin: %v\n", err)
				return 1
			}
			if adminH, err = admin.Register(protocol.Registration{Writable: true, BestEffort: true}); err != nil {
				fmt.Printf("chaos: re-register admin tenant: %v\n", err)
				return 1
			}
			consecTimeouts = 0
		}
	}
	if preloadErrs > 0 {
		fmt.Printf("chaos: preload: %d writes failed under injected faults (blocks left zero)\n", preloadErrs)
	}
	admin.Unregister(adminH)
	admin.Close()

	var t tally
	var reconnects, replays atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup       // load + probe goroutines
	var inflight sync.WaitGroup // one unit per issued async call

	// Load connections: open-loop over faulted, reconnecting clients. Each
	// registers its own tenant, so a reconnect's re-registration stays
	// connection-local.
	perConn := cfg.rate / float64(cfg.conns)
	for i := 0; i < cfg.conns; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cl *client.Client
			var h uint16
			// consecTimeouts counts back-to-back ErrTimeout resolutions. A
			// blackholed (half-open) connection never errors outright — every
			// call just times out — so a run of timeouts is the only signal
			// the transport is dead. Past the threshold the worker redials.
			var consecTimeouts atomic.Int64
			retire := func() {
				if cl != nil {
					reconnects.Add(cl.Reconnects())
					replays.Add(cl.Replayed())
					cl.Close()
					cl = nil
				}
			}
			redial := func() bool {
				retire()
				var err error
				cl, err = client.DialOptions(cfg.addr, opts)
				if err != nil {
					return false
				}
				h, err = cl.Register(protocol.Registration{Writable: true, BestEffort: true})
				if err != nil {
					return false
				}
				consecTimeouts.Store(0)
				return true
			}
			if !redial() {
				fmt.Printf("chaos: conn %d: no initial session\n", i)
				retire()
				return
			}
			defer retire()
			rng := rand.New(rand.NewSource(cfg.seed ^ int64(i)*7919))
			ticker := time.NewTicker(time.Millisecond)
			defer ticker.Stop()
			begin := time.Now()
			sent := 0.0
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
				}
				if cl == nil || consecTimeouts.Load() >= 8 {
					if !redial() {
						retire()
						continue // try again next tick
					}
				}
				due := perConn * time.Since(begin).Seconds()
				for ; sent < due; sent++ {
					lba := uint32(rng.Int63n(cfg.span) / int64(cfg.size/512) * int64(cfg.size/512))
					t.issued.Add(1)
					var call *client.Call
					var err error
					if rng.Intn(100) < cfg.readPct {
						call, err = cl.GoRead(h, lba, cfg.size)
					} else {
						call, err = cl.GoWrite(h, lba, buf)
					}
					if err != nil {
						classify(&t, err)
						continue
					}
					inflight.Add(1)
					go func() {
						defer inflight.Done()
						<-call.Done
						classify(&t, call.Err)
						if errors.Is(call.Err, client.ErrTimeout) {
							consecTimeouts.Add(1)
						} else {
							consecTimeouts.Store(0)
						}
					}()
				}
			}
		}()
	}

	// LC probe: a latency-critical tenant issuing one request at a time
	// through the same faulted dialer. Overload must never touch it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		lcReg := protocol.Registration{
			Writable:    true,
			IOPS:        1000,
			ReadPercent: 100,
			LatencyP95:  uint64(time.Millisecond.Nanoseconds()),
		}
		var cl *client.Client
		var h uint16
		redial := func() bool {
			if cl != nil {
				cl.Close()
				cl = nil
			}
			var err error
			cl, err = client.DialOptions(cfg.addr, opts)
			if err != nil {
				return false
			}
			h, err = cl.Register(lcReg)
			return err == nil
		}
		if !redial() {
			fmt.Printf("chaos: probe: no initial session\n")
			if cl != nil {
				cl.Close()
			}
			return
		}
		defer func() { cl.Close() }()
		rng := rand.New(rand.NewSource(cfg.seed * 4242))
		consecTimeouts := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			lba := uint32(rng.Int63n(cfg.span) / int64(cfg.size/512) * int64(cfg.size/512))
			_, err := cl.Read(h, lba, cfg.size)
			switch {
			case errors.Is(err, client.ErrOverloaded):
				t.lcShed.Add(1)
				consecTimeouts = 0
			case errors.Is(err, client.ErrTimeout):
				// The probe is synchronous: two straight timeouts mean the
				// transport is blackholed, not slow. Redial.
				if consecTimeouts++; consecTimeouts >= 2 && redial() {
					consecTimeouts = 0
				}
			case errors.Is(err, client.ErrClosed), errors.Is(err, client.ErrNoTenant):
				if redial() {
					consecTimeouts = 0
				}
			default:
				consecTimeouts = 0
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(cfg.dur)
	close(stop)
	wg.Wait()

	// All in-flight calls must resolve: a correct client completes every
	// call with success, a typed error, or ErrTimeout — never leaves it
	// hanging. Give stragglers one timeout's grace, then count them.
	settled := make(chan struct{})
	go func() { inflight.Wait(); close(settled) }()
	select {
	case <-settled:
	case <-time.After(cfg.timeout + 5*time.Second):
		resolved := t.ok.Load() + t.device.Load() + t.overloaded.Load() +
			t.timeout.Load() + t.connErr.Load() + t.other.Load()
		t.unresolved.Store(t.issued.Load() - resolved)
	}

	// Leaked-goroutine check: after everything is closed, the count must
	// return to (near) the baseline. Allow brief runtime noise to settle.
	var after int
	for i := 0; i < 50; i++ {
		time.Sleep(100 * time.Millisecond)
		if after = runtime.NumGoroutine(); after <= baseGoroutines+2 {
			break
		}
	}

	resolved := t.ok.Load() + t.device.Load() + t.overloaded.Load() +
		t.timeout.Load() + t.connErr.Load() + t.other.Load()
	fmt.Printf("issued %d resolved %d: ok %d, device-err %d, shed %d, timeout %d, conn-err %d, other %d\n",
		t.issued.Load(), resolved, t.ok.Load(), t.device.Load(),
		t.overloaded.Load(), t.timeout.Load(), t.connErr.Load(), t.other.Load())
	fmt.Printf("client faults injected %d, reconnects %d, replayed %d\n",
		inj.Injected(), reconnects.Load(), replays.Load())
	fmt.Printf("goroutines %d -> %d, LC shed %d, unresolved %d\n",
		baseGoroutines, after, t.lcShed.Load(), t.unresolved.Load())

	fail := false
	if t.unresolved.Load() > 0 {
		fmt.Println("FAIL: requests left unresolved (hung calls)")
		fail = true
	}
	if t.lcShed.Load() > 0 {
		fmt.Println("FAIL: latency-critical probe was shed")
		fail = true
	}
	if after > baseGoroutines+2 {
		fmt.Printf("FAIL: goroutine leak (%d -> %d)\n", baseGoroutines, after)
		fail = true
	}
	if fail {
		return 1
	}
	fmt.Println("chaos soak PASS")
	return 0
}
