package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/hist"
	"github.com/reflex-go/reflex/internal/obs"
)

const (
	ioSize       = 4096
	lbasPerBlock = ioSize / 512
)

// verLedger is the verification ledger: one (issued, acked) version pair
// per block. A write bumps issued before it is sent and stores acked once
// its response has been seen; a read samples acked before it is sent and
// issued after its response, and the version stamped in the returned
// payload must lie between the two — never older than a write acked
// before the read was issued, never newer than anything sent.
type verLedger struct {
	salt   uint64
	issued []atomic.Uint32
	acked  []atomic.Uint32
}

// newLedger covers a working set of blocks 4 KiB blocks.
func newLedger(seed int64, blocks int) *verLedger {
	return &verLedger{
		salt:   splitmix(uint64(seed)),
		issued: make([]atomic.Uint32, blocks),
		acked:  make([]atomic.Uint32, blocks),
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

const stampStride = 0x9E3779B97F4A7C15

// stamp fills buf with the pattern of (blk, ver): word 0 names the pair,
// every later word is derived from it, so a torn or misplaced payload
// cannot verify.
func (l *verLedger) stamp(buf []byte, blk, ver uint32) {
	id := uint64(blk)<<32 | uint64(ver)
	binary.LittleEndian.PutUint64(buf, id)
	w := splitmix(id ^ l.salt)
	for i := 8; i < len(buf); i += 8 {
		w += stampStride
		binary.LittleEndian.PutUint64(buf[i:], w)
	}
}

// check verifies a read payload for blk and returns the version it holds.
func (l *verLedger) check(buf []byte, blk uint32) (uint32, bool) {
	if len(buf) != ioSize {
		return 0, false
	}
	id := binary.LittleEndian.Uint64(buf)
	if uint32(id>>32) != blk {
		return 0, false
	}
	w := splitmix(id ^ l.salt)
	for i := 8; i < len(buf); i += 8 {
		w += stampStride
		if binary.LittleEndian.Uint64(buf[i:]) != w {
			return 0, false
		}
	}
	return uint32(id), true
}

// picker chooses the next block index.
type picker func(r *rand.Rand) uint32

func uniformPicker(blocks int) picker {
	return func(r *rand.Rand) uint32 { return uint32(r.Intn(blocks)) }
}

// zipfPicker draws ranks from Zipf(theta) over blocks by inverting a
// precomputed CDF (math/rand's Zipf needs an exponent above 1) and maps
// rank to block through a seeded permutation, so the hot set is scattered
// over the volume's extents and differs per seed. The permutation keeps
// parity: the load connection writes the even blocks at twenty times the
// rate at which the probe writes the odd ones, and the hottest block
// takes a tenth of all requests, so with a free permutation its parity
// alone decided how often the cache lost it (hit ratio 73 % with one
// seed, 77 % with another, and ops_per_s with it).
func zipfPicker(theta float64, blocks int, seed int64) picker {
	cdf := make([]float64, blocks)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	r := rand.New(rand.NewSource(seed))
	var perm [writers][]int
	for class := range perm {
		perm[class] = r.Perm(blocks / writers)
	}
	return func(r *rand.Rand) uint32 {
		rank := sort.SearchFloat64s(cdf, r.Float64()*sum)
		return uint32(perm[rank%writers][rank/writers]*writers + rank%writers)
	}
}

// slot is one position of a connection's closed-loop window.
type slot struct {
	call  *client.Call
	write bool
	blk   uint32
	ver   uint32 // write: version sent; read: acked version sampled at issue
	start time.Time
	buf   []byte
}

// segSamples holds one segment's probe latencies in nanoseconds.
type segSamples struct {
	reads, writes []int64
}

// gen drives one connection as a closed loop: window requests in flight,
// the next one issued only when the oldest completes. ReFlex's callers
// are a block layer with a bounded queue depth, so closed is their shape;
// and on this host a paced open loop measures the timer (README.md). One
// goroutine per connection; nothing on the request path sleeps or arms a
// timer.
type gen struct {
	cl      *client.Client
	handle  uint16
	window  int
	readPct int
	// Writes go only to blocks with blk%writers == class, so each block
	// has one writer and its version order is unambiguous.
	class uint32
	rng   *rand.Rand
	pick  picker
	led   *verLedger

	slots []slot

	ok, failed atomic.Uint64
	mismatch   atomic.Uint64

	// Measured-pass state, set by measure() before run starts.
	t0      time.Time
	segDur  time.Duration
	segs    []segSamples // probe only: exact per-segment samples
	loadLat *hist.Hist   // load only: issue→completion as seen by the loop
	roots   *obs.Ring    // traced pass, probe only: one root span per call

	errMu    sync.Mutex
	firstErr error
}

// writers is how many connections write: the load (class 0, even blocks)
// and the probe (class 1, odd blocks). Working sets are multiples of it.
const writers = 2

func newGen(cl *client.Client, handle uint16, window, readPct int, class uint32, seed int64, pick picker, led *verLedger) *gen {
	g := &gen{
		cl: cl, handle: handle, window: window, readPct: readPct,
		class: class,
		rng:   rand.New(rand.NewSource(seed)),
		pick:  pick, led: led,
		slots: make([]slot, window),
	}
	for i := range g.slots {
		g.slots[i].buf = make([]byte, ioSize)
	}
	return g
}

func (g *gen) fail(err error) {
	g.failed.Add(1)
	g.errMu.Lock()
	if g.firstErr == nil {
		g.firstErr = err
	}
	g.errMu.Unlock()
}

func (g *gen) err() error {
	g.errMu.Lock()
	defer g.errMu.Unlock()
	return g.firstErr
}

// issue sends the next request of the mix into s.
func (g *gen) issue(s *slot) {
	blk := g.pick(g.rng)
	write := g.rng.Intn(100) >= g.readPct
	if write {
		blk = blk - blk%writers + g.class
		// A second write to a block whose first is still in flight would
		// make the final version depend on server ordering; read instead.
		if g.led.issued[blk].Load() != g.led.acked[blk].Load() {
			write = false
		}
	}
	g.issueAt(s, blk, write)
}

func (g *gen) issueAt(s *slot, blk uint32, write bool) {
	s.blk, s.write = blk, write
	var err error
	if write {
		s.ver = g.led.issued[blk].Add(1)
		g.led.stamp(s.buf, blk, s.ver)
		s.start = time.Now()
		s.call, err = g.cl.GoWrite(g.handle, blk*lbasPerBlock, s.buf)
	} else {
		s.ver = g.led.acked[blk].Load()
		s.start = time.Now()
		s.call, err = g.cl.GoRead(g.handle, blk*lbasPerBlock, ioSize)
	}
	if err != nil {
		s.call = nil
		g.fail(fmt.Errorf("issue blk %d: %w", blk, err))
	}
}

// complete waits for s's response, verifies it and records its latency.
func (g *gen) complete(s *slot) {
	<-s.call.Done
	end := time.Now()
	call := s.call
	s.call = nil
	switch {
	case call.Err != nil:
		g.fail(fmt.Errorf("blk %d write=%v: %w", s.blk, s.write, call.Err))
		return
	case s.write:
		g.led.acked[s.blk].Store(s.ver)
	default:
		ver, ok := g.led.check(call.Data, s.blk)
		if !ok || ver < s.ver || ver > g.led.issued[s.blk].Load() {
			g.mismatch.Add(1)
			g.fail(fmt.Errorf("verify blk %d: payload ok=%v version %d, acked %d at issue, %d issued",
				s.blk, ok, ver, s.ver, g.led.issued[s.blk].Load()))
			return
		}
	}
	g.ok.Add(1)
	if g.segDur == 0 {
		return
	}
	lat := end.Sub(s.start)
	if g.roots != nil && call.TraceID != 0 {
		sp := obs.Span{ID: call.TraceID, Trace: call.TraceID, Node: "bench", Hop: obs.HopClient, Write: s.write, Size: ioSize}
		sp.Mark(obs.StageArrival, int64(s.start.Sub(g.t0)))
		sp.Mark(obs.StageTx, int64(end.Sub(g.t0)))
		g.roots.Push(sp)
	}
	if g.loadLat != nil {
		g.loadLat.Record(int64(lat))
		return
	}
	if seg := int(end.Sub(g.t0) / g.segDur); seg >= 0 && seg < len(g.segs) {
		if s.write {
			g.segs[seg].writes = append(g.segs[seg].writes, int64(lat))
		} else {
			g.segs[seg].reads = append(g.segs[seg].reads, int64(lat))
		}
	}
}

// run keeps the window full until stop is set or, when ops > 0, until
// that many requests have been issued; then it drains the window.
func (g *gen) run(ops int, stop *atomic.Bool) {
	issued, head := 0, 0
	for {
		if ops > 0 && issued >= ops || stop != nil && stop.Load() || g.failed.Load() > 1000 {
			break
		}
		s := &g.slots[head]
		if s.call != nil {
			g.complete(s)
		}
		g.issue(s)
		issued++
		head = (head + 1) % g.window
	}
	g.drain()
}

func (g *gen) drain() {
	for i := range g.slots {
		if g.slots[i].call != nil {
			g.complete(&g.slots[i])
		}
	}
}

// fill writes version 1 of every block of the working set and reads each
// back, window-deep. The measured mix never meets an unwritten block.
func (g *gen) fill() {
	for pass := 0; pass < 2; pass++ {
		head := 0
		for blk := uint32(0); blk < uint32(len(g.led.issued)); blk++ {
			s := &g.slots[head]
			if s.call != nil {
				g.complete(s)
			}
			g.issueAt(s, blk, pass == 0)
			head = (head + 1) % g.window
		}
		g.drain()
	}
}

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	slices.Sort(s)
	return s
}
