package sim

import "math/rand"

// RNG is a deterministic random source for a single simulation component.
// Every stochastic component owns its own RNG so that adding or removing one
// component never perturbs the random stream of another.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns an RNG seeded deterministically from seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform value in [0, n).
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Exp returns an exponentially distributed duration with the given mean,
// used for Poisson (open-loop) arrival processes. The result is at least 1ns
// so that arrival events always advance the schedule.
func (g *RNG) Exp(mean Time) Time {
	d := Time(g.r.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// NewZipf returns a deterministic Zipf sampler over [0, n) with skew s
// (s > 1; larger is more skewed), for hot-spot workload generation.
func (g *RNG) NewZipf(s float64, n uint64) *rand.Zipf {
	return rand.NewZipf(g.r, s, 1, n-1)
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
