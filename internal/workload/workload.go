// Package workload provides the load generators used by the evaluation: an
// open-loop Poisson generator in the style of mutilate (§5.1 — a target
// throughput is offered regardless of completions, so queueing shows up as
// latency) and a closed-loop generator (fixed queue depth, as FIO uses).
//
// Generators drive any Target: a remote ReFlex connection, a baseline
// server, or the raw simulated device for local experiments.
package workload

import (
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/flashsim"
	"github.com/reflex-go/reflex/internal/hist"
	"github.com/reflex-go/reflex/internal/sim"
)

// Target accepts I/O operations and reports their completion latency.
type Target interface {
	Issue(op core.OpType, block uint64, size int, done func(lat sim.Time))
}

// TargetFunc adapts a function to the Target interface.
type TargetFunc func(op core.OpType, block uint64, size int, done func(lat sim.Time))

// Issue implements Target.
func (f TargetFunc) Issue(op core.OpType, block uint64, size int, done func(lat sim.Time)) {
	f(op, block, size, done)
}

// DeviceTarget adapts a simulated flash device to the Target interface for
// local-access experiments (Figure 1, Figure 3, the SPDK-like baseline).
func DeviceTarget(eng *sim.Engine, dev *flashsim.Device) Target {
	return TargetFunc(func(op core.OpType, block uint64, size int, done func(lat sim.Time)) {
		start := eng.Now()
		dev.Submit(&flashsim.Request{
			Op:    flashsim.OpFor(op),
			Block: block,
			Size:  size,
			OnComplete: func(at sim.Time) {
				if done != nil {
					done(at - start)
				}
			},
		})
	})
}

// Mix describes the request population.
type Mix struct {
	// ReadPercent of requests are reads; the rest are writes.
	ReadPercent int
	// Size is the request size in bytes.
	Size int
	// Blocks is the address range; block addresses are uniform random in
	// [0, Blocks). Random writes trigger worst-case device GC (§3.2.1).
	Blocks uint64
	// ZipfSkew, when > 1, draws block addresses from a Zipf distribution
	// with that skew instead of uniformly — the hot-spot access pattern
	// of skewed key-value and web workloads.
	ZipfSkew float64
}

// blockPicker returns a deterministic address sampler for the mix.
func (m Mix) blockPicker(rng *sim.RNG) func() uint64 {
	if m.ZipfSkew > 1 {
		z := rng.NewZipf(m.ZipfSkew, m.Blocks)
		return z.Uint64
	}
	n := int64(m.Blocks)
	return func() uint64 { return uint64(rng.Int63n(n)) }
}

// Result accumulates measurements. Latencies and counts cover only the
// measurement window (after warmup).
type Result struct {
	ReadLat  *hist.Hist
	WriteLat *hist.Hist
	// Issued counts every request offered, including warmup.
	Issued uint64
	// Completed counts in-window completions.
	Completed uint64
	// CompletedBytes is the in-window completed payload volume.
	CompletedBytes uint64
	// Window is the measurement window duration.
	Window sim.Time
}

func newResult(window sim.Time) *Result {
	return &Result{ReadLat: hist.New(), WriteLat: hist.New(), Window: window}
}

// IOPS returns in-window completed operations per second.
func (r *Result) IOPS() float64 {
	if r.Window <= 0 {
		return 0
	}
	return float64(r.Completed) * float64(sim.Second) / float64(r.Window)
}

// MBps returns in-window completed payload megabytes per second.
func (r *Result) MBps() float64 {
	if r.Window <= 0 {
		return 0
	}
	return float64(r.CompletedBytes) / 1e6 * float64(sim.Second) / float64(r.Window)
}

// Merge folds other into r (for aggregating per-tenant results).
func (r *Result) Merge(other *Result) {
	r.ReadLat.Merge(other.ReadLat)
	r.WriteLat.Merge(other.WriteLat)
	r.Issued += other.Issued
	r.Completed += other.Completed
	r.CompletedBytes += other.CompletedBytes
}

// OpenLoop is an open-loop arrival generator targeting a fixed offered
// load: Poisson by default, or uniformly paced like mutilate's fixed-rate
// mode (§5.1).
type OpenLoop struct {
	// IOPS is the offered arrival rate.
	IOPS float64
	// Mix is the request population.
	Mix Mix
	// Uniform paces arrivals deterministically at 1/IOPS instead of
	// exponential (Poisson) inter-arrival times.
	Uniform bool
	// EvenMix interleaves reads and writes deterministically at the exact
	// ratio (every Nth request is a write) instead of sampling each op,
	// as fixed-pattern load generators do. Without it, random runs of
	// expensive writes make the token demand bursty.
	EvenMix bool
	// Warmup is discarded before measurements begin.
	Warmup sim.Time
	// Duration is the measurement window; arrivals stop at Warmup+Duration.
	Duration sim.Time
	// Seed makes the generator deterministic.
	Seed int64
}

// Start schedules the generator on eng against target and returns the
// Result, which is complete once the engine has drained.
func (g OpenLoop) Start(eng *sim.Engine, target Target) *Result {
	if g.IOPS <= 0 {
		panic("workload: OpenLoop.IOPS must be positive")
	}
	if g.Mix.Blocks == 0 {
		panic("workload: Mix.Blocks must be positive")
	}
	res := newResult(g.Duration)
	rng := sim.NewRNG(g.Seed)
	pick := g.Mix.blockPicker(rng)
	mean := sim.Time(float64(sim.Second) / g.IOPS)
	measureFrom := eng.Now() + g.Warmup
	stopAt := measureFrom + g.Duration
	mixAcc := 0

	var arrive func()
	arrive = func() {
		if eng.Now() >= stopAt {
			return
		}
		op := core.OpRead
		if g.EvenMix {
			mixAcc += 100 - g.Mix.ReadPercent
			if mixAcc >= 100 {
				mixAcc -= 100
				op = core.OpWrite
			}
		} else if rng.Intn(100) >= g.Mix.ReadPercent {
			op = core.OpWrite
		}
		res.Issued++
		size := g.Mix.Size
		target.Issue(op, pick(), size, func(lat sim.Time) {
			// Count completions that land inside the measurement window:
			// delivered throughput equals the service rate even when the
			// offered load exceeds it and queues grow without bound.
			now := eng.Now()
			if now < measureFrom || now > stopAt {
				return
			}
			res.Completed++
			res.CompletedBytes += uint64(size)
			if op == core.OpRead {
				res.ReadLat.Record(lat)
			} else {
				res.WriteLat.Record(lat)
			}
		})
		if g.Uniform {
			eng.After(mean, arrive)
		} else {
			eng.After(rng.Exp(mean), arrive)
		}
	}
	eng.After(0, arrive)
	return res
}

// ClosedLoop keeps a fixed number of requests outstanding (queue depth),
// as FIO and the unloaded-latency measurements do (§5.2: QD 1).
type ClosedLoop struct {
	// Depth is the number of outstanding requests.
	Depth int
	// ThinkTime is an optional delay between a completion and the next
	// issue on that slot.
	ThinkTime sim.Time
	Mix       Mix
	Warmup    sim.Time
	Duration  sim.Time
	Seed      int64
}

// Start schedules the generator on eng against target.
func (g ClosedLoop) Start(eng *sim.Engine, target Target) *Result {
	if g.Depth <= 0 {
		panic("workload: ClosedLoop.Depth must be positive")
	}
	if g.Mix.Blocks == 0 {
		panic("workload: Mix.Blocks must be positive")
	}
	res := newResult(g.Duration)
	rng := sim.NewRNG(g.Seed)
	pick := g.Mix.blockPicker(rng)
	measureFrom := eng.Now() + g.Warmup
	stopAt := measureFrom + g.Duration

	var issue func()
	issue = func() {
		if eng.Now() >= stopAt {
			return
		}
		op := core.OpRead
		if rng.Intn(100) >= g.Mix.ReadPercent {
			op = core.OpWrite
		}
		res.Issued++
		size := g.Mix.Size
		arrival := eng.Now()
		target.Issue(op, pick(), size, func(lat sim.Time) {
			if arrival >= measureFrom && eng.Now() <= stopAt {
				res.Completed++
				res.CompletedBytes += uint64(size)
				if op == core.OpRead {
					res.ReadLat.Record(lat)
				} else {
					res.WriteLat.Record(lat)
				}
			}
			if g.ThinkTime > 0 {
				eng.After(g.ThinkTime, issue)
			} else {
				eng.After(0, issue)
			}
		})
	}
	for i := 0; i < g.Depth; i++ {
		eng.After(0, issue)
	}
	return res
}
