package blockdev

import (
	"testing"

	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/flashsim"
	"github.com/reflex-go/reflex/internal/sim"
	"github.com/reflex-go/reflex/internal/workload"
)

// instant completes everything immediately.
func instant(eng *sim.Engine) workload.Target {
	return workload.TargetFunc(func(op core.OpType, b uint64, s int, done func(sim.Time)) {
		eng.After(0, func() { done(0) })
	})
}

func TestLocalAddsOverhead(t *testing.T) {
	eng := sim.NewEngine()
	dev := flashsim.New(eng, flashsim.DeviceA(), 31)
	local := NewLocal(eng, workload.DeviceTarget(eng, dev))
	var lat sim.Time
	eng.Spawn("app", func(p *sim.Proc) {
		lat = Read(p, local, 42, 4096)
	})
	eng.Run()
	// Device ~78us + 12us driver overhead.
	if lat < 75*sim.Microsecond || lat > 110*sim.Microsecond {
		t.Fatalf("local read latency = %dus, want ~90us", lat/1000)
	}
}

func TestProcBlockingHelpers(t *testing.T) {
	eng := sim.NewEngine()
	local := NewLocal(eng, instant(eng))
	local.Overhead = 10 * sim.Microsecond
	var rl, wl sim.Time
	eng.Spawn("app", func(p *sim.Proc) {
		rl = Read(p, local, 0, 4096)
		wl = Write(p, local, 1, 4096)
		ReadMany(p, local, []uint64{1, 2, 3, 4}, 4096)
	})
	eng.Run()
	if rl != 10*sim.Microsecond || wl != 10*sim.Microsecond {
		t.Fatalf("latencies %d, %d", rl, wl)
	}
}

func TestReadManyParallel(t *testing.T) {
	// 8 blocks on an unlimited target with 50us latency: ReadMany takes
	// ~50us, not 400us.
	eng := sim.NewEngine()
	tgt := workload.TargetFunc(func(op core.OpType, b uint64, s int, done func(sim.Time)) {
		eng.After(50*sim.Microsecond, func() { done(50 * sim.Microsecond) })
	})
	local := NewLocal(eng, tgt)
	local.Overhead = 0
	var elapsed sim.Time
	eng.Spawn("app", func(p *sim.Proc) {
		start := p.Now()
		blocks := make([]uint64, 8)
		for i := range blocks {
			blocks[i] = uint64(i)
		}
		ReadMany(p, local, blocks, 4096)
		elapsed = p.Now() - start
	})
	eng.Run()
	if elapsed != 50*sim.Microsecond {
		t.Fatalf("ReadMany of 8 blocks took %dus, want 50 (parallel)", elapsed/1000)
	}
}

func TestRemoteContextCPUCeiling(t *testing.T) {
	// One context at 14us round-trip CPU -> ~70K IOPS ceiling (§4.2).
	eng := sim.NewEngine()
	r := NewRemote(eng, []workload.Target{instant(eng)})
	res := workload.OpenLoop{
		IOPS:     150_000,
		Mix:      workload.Mix{ReadPercent: 100, Size: 4096, Blocks: 1000},
		Warmup:   10 * sim.Millisecond,
		Duration: 200 * sim.Millisecond,
		Seed:     1,
	}.Start(eng, r)
	eng.Run()
	if iops := res.IOPS(); iops < 62_000 || iops > 80_000 {
		t.Fatalf("single-context ceiling = %.0f IOPS, want ~71K", iops)
	}
}

func TestRemoteScalesWithContexts(t *testing.T) {
	run := func(n int) float64 {
		eng := sim.NewEngine()
		conns := make([]workload.Target, n)
		for i := range conns {
			conns[i] = instant(eng)
		}
		r := NewRemote(eng, conns)
		res := workload.OpenLoop{
			IOPS:     500_000,
			Mix:      workload.Mix{ReadPercent: 100, Size: 4096, Blocks: 1000},
			Warmup:   10 * sim.Millisecond,
			Duration: 100 * sim.Millisecond,
			Seed:     2,
		}.Start(eng, r)
		eng.Run()
		return res.IOPS()
	}
	one, four := run(1), run(4)
	if four < 3.2*one {
		t.Fatalf("4 contexts (%.0f) not ~4x one context (%.0f)", four, one)
	}
}

func TestContextPinning(t *testing.T) {
	eng := sim.NewEngine()
	conns := []workload.Target{instant(eng), instant(eng)}
	r := NewRemote(eng, conns)
	if r.Contexts() != 2 {
		t.Fatal("Contexts()")
	}
	d0 := r.Context(0)
	n := 0
	eng.At(0, func() {
		for i := 0; i < 100; i++ {
			d0.Submit(core.OpRead, 0, 4096, func(sim.Time) { n++ })
		}
	})
	eng.Run()
	if n != 100 {
		t.Fatalf("completed %d", n)
	}
	// All work landed on context 0's core.
	if r.ctxs[0].poll.Core.Jobs() == 0 || r.ctxs[1].poll.Core.Jobs() != 0 {
		t.Fatalf("pinning failed: ctx0=%d ctx1=%d jobs",
			r.ctxs[0].poll.Core.Jobs(), r.ctxs[1].poll.Core.Jobs())
	}
}

func TestRemoteValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty conns accepted")
		}
	}()
	NewRemote(sim.NewEngine(), nil)
}
