// Package flashsim simulates NVMe Flash devices in virtual time.
//
// The model reproduces the phenomena that motivate ReFlex's QoS scheduler
// (paper §2.2, Figures 1 and 3):
//
//   - Tail read latency is a function of total weighted load (IOPS weighted
//     by request cost) and of the read/write ratio.
//   - Writes complete quickly to a DRAM buffer but consume large amounts of
//     device bandwidth in the background (program + amortized garbage
//     collection), which is what delays concurrently queued reads.
//   - Occasional erase/GC pulses block a channel for milliseconds, producing
//     the long tail at write-heavy mixes.
//   - Some devices serve read-only loads at roughly double the IOPS
//     (C(read, r=100%) = 1/2 token on device A).
//
// Internally a device is a set of independent channels, each a FIFO serial
// resource. A request is split into 4KB pages striped across channels by
// logical block address; cost therefore scales linearly with request size
// above 4KB and is constant at or below 4KB, matching §3.2.1.
//
// The simulator models time only; it stores no data. Data placement is the
// concern of the storage backends in the real server.
package flashsim

import (
	"fmt"

	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/faults"
	"github.com/reflex-go/reflex/internal/sim"
)

// Op is the I/O operation type.
type Op uint8

const (
	// OpRead is a logical block read.
	OpRead Op = iota
	// OpWrite is a logical block write.
	OpWrite
)

// OpFor maps the scheduler's operation type onto the device's.
func OpFor(op core.OpType) Op {
	if op == core.OpWrite {
		return OpWrite
	}
	return OpRead
}

// String returns "read" or "write".
func (o Op) String() string {
	if o == OpWrite {
		return "write"
	}
	return "read"
}

// PageSize is the device's internal access granularity. Requests smaller
// than a page cost a full page (§3.2.1: "Cost is constant for requests 4KB
// and smaller").
const PageSize = 4096

// Request is one I/O submitted to a device.
type Request struct {
	Op Op
	// Block is the logical block address in PageSize units.
	Block uint64
	// Size is the transfer size in bytes; 0 is treated as one page.
	Size int
	// OnComplete fires in engine context when the device completes the I/O
	// (for writes: when the write is acknowledged from the DRAM buffer).
	OnComplete func(completeAt sim.Time)
	// OnError fires instead of OnComplete when a fault injector fails the
	// request (media error / controller reset pulse). When nil, injected
	// errors fall back to OnComplete so legacy callers never hang.
	OnError func(at sim.Time)
	// Stream is the FDP-style placement stream tag for writes, used only
	// when the device runs the erase-unit placement model
	// (Spec.EraseUnitPages > 0). Callers tag by tenant class or client
	// lifetime hint; out-of-range tags clamp. Ignored for reads.
	Stream int

	submitAt sim.Time
	// extra is injected per-request stall (timeout pulse), added to the
	// host-visible completion latency.
	extra sim.Time
}

// Pages returns the number of device pages the request touches.
func (r *Request) Pages() int {
	if r.Size <= PageSize {
		return 1
	}
	return (r.Size + PageSize - 1) / PageSize
}

// Spec describes the performance characteristics of a device model. All
// durations are in nanoseconds.
type Spec struct {
	Name     string
	Channels int
	// Blocks is the device capacity in PageSize units.
	Blocks uint64

	// UnitService is the channel occupancy of one token (one 4KB read at
	// the normal read cost). Token capacity = Channels / UnitService.
	UnitService sim.Time
	// ReadArray is the flash array access latency pipelined off-channel;
	// it sets the unloaded read latency floor together with UnitService.
	ReadArray sim.Time
	// ReadArrayJitterMean adds an exponential jitter to ReadArray,
	// producing the measured gap between average and p95 unloaded latency.
	ReadArrayJitterMean sim.Time

	// WriteBuffer is the host-visible write latency (DRAM buffer hit).
	WriteBuffer sim.Time
	// WriteBufferJitterMean adds exponential jitter to WriteBuffer.
	WriteBufferJitterMean sim.Time
	// WriteBufferSlack is how much background program work (per channel)
	// the DRAM write buffer absorbs before host write completions are
	// delayed to the program rate — sustained write floods become
	// device-throughput-bound instead of completing at buffer speed.
	// Zero disables backpressure.
	WriteBufferSlack sim.Time

	// WriteCost is the cost of a 4KB write in tokens (§3.2.1: 10, 20 and 16
	// for devices A, B and C).
	WriteCost int
	// EraseProb is the per-written-page probability of a GC/erase pulse
	// (legacy GC model; ignored when EraseUnitPages > 0).
	EraseProb float64
	// EraseDuration is the channel occupancy of one erase pulse. In the
	// legacy model the steady-state background cost of a write page is
	// kept equal to WriteCost tokens: the per-page program occupancy is
	// reduced by the expected erase contribution. In the placement model
	// it is the cost of reclaiming one erase unit.
	EraseDuration sim.Time

	// EraseUnitPages switches the device from the per-page erase coin
	// flip to explicit erase units of this many pages with FDP-style
	// placement streams (see placement.go). Zero keeps the legacy model.
	EraseUnitPages int
	// PlacementStreams is the number of placement streams writes may be
	// tagged with (Request.Stream); 0 defaults to 1 when placement is on.
	PlacementStreams int
	// UnitsPerChannel is the physical erase-unit count per channel; the
	// device's physical capacity is Channels × UnitsPerChannel ×
	// EraseUnitPages pages. 0 defaults to 8 when placement is on.
	UnitsPerChannel int

	// WearPagesScale models flash wear-out: every WearPagesScale pages
	// written slow the device's service times by another 100% (§3.2.1:
	// "the model can be re-calibrated after deployment to account for
	// performance degradation due to Flash wear-out"). Zero disables
	// aging. PreAgedPages starts the device with write history, for
	// calibrating a worn device.
	WearPagesScale uint64
	PreAgedPages   uint64

	// ProgramChunkTokens splits a page's background program occupancy into
	// chunks of this many tokens, submitted back-to-back as each chunk
	// finishes. Reads arriving between chunks are served in between
	// (program suspend/resume), which bounds how long one write blocks
	// queued reads. Zero means the program occupies the channel in one
	// piece.
	ProgramChunkTokens int

	// ReadOnlyHalf halves the read cost when the device has seen no write
	// within ReadOnlyWindow (C(read, r=100%) = 1/2, device A).
	ReadOnlyHalf   bool
	ReadOnlyWindow sim.Time
}

// TokenCapacityPerSec returns the device's service capacity in tokens per
// second at the normal (r < 100%) read cost.
func (s *Spec) TokenCapacityPerSec() float64 {
	return float64(s.Channels) * float64(sim.Second) / float64(s.UnitService)
}

// programOccupancy returns the background channel occupancy of one written
// page. In the legacy GC model it is net of the expected erase-pulse
// contribution (so program + amortized erase = WriteCost tokens); in the
// placement model erases are explicit events charged when a unit is
// reclaimed, so the full program cost applies.
func (s *Spec) programOccupancy() sim.Time {
	total := sim.Time(s.WriteCost) * s.UnitService
	if s.EraseUnitPages > 0 {
		return total
	}
	erase := sim.Time(s.EraseProb * float64(s.EraseDuration))
	if erase >= total {
		// Validate rejects this spec (the device would write for free);
		// kept only as a floor for specs built without New.
		return 0
	}
	return total - erase
}

// Validate reports configuration errors.
func (s *Spec) Validate() error {
	switch {
	case s.Channels <= 0:
		return fmt.Errorf("flashsim: %s: Channels must be positive", s.Name)
	case s.UnitService <= 0:
		return fmt.Errorf("flashsim: %s: UnitService must be positive", s.Name)
	case s.WriteCost <= 0:
		return fmt.Errorf("flashsim: %s: WriteCost must be positive", s.Name)
	case s.EraseProb < 0 || s.EraseProb > 1:
		return fmt.Errorf("flashsim: %s: EraseProb out of range", s.Name)
	case s.Blocks == 0:
		return fmt.Errorf("flashsim: %s: Blocks must be positive", s.Name)
	case s.EraseUnitPages < 0:
		return fmt.Errorf("flashsim: %s: EraseUnitPages must be non-negative", s.Name)
	}
	if s.EraseUnitPages == 0 {
		// Legacy GC model: the expected erase contribution must leave real
		// program work, or writes cost nothing in the background and the
		// device "writes for free" — a silently miscalibrated spec.
		if erase := sim.Time(s.EraseProb * float64(s.EraseDuration)); s.EraseProb > 0 && erase >= sim.Time(s.WriteCost)*s.UnitService {
			return fmt.Errorf(
				"flashsim: %s: EraseProb×EraseDuration (%v) >= WriteCost×UnitService (%v): expected erase work swallows the whole program budget, writes would cost nothing in the background; lower EraseProb/EraseDuration or raise WriteCost",
				s.Name, erase, sim.Time(s.WriteCost)*s.UnitService)
		}
		return nil
	}
	switch {
	case s.PlacementStreams < 1 || s.PlacementStreams > 16:
		return fmt.Errorf("flashsim: %s: PlacementStreams must be in [1,16]", s.Name)
	case s.UnitsPerChannel < 3:
		return fmt.Errorf("flashsim: %s: UnitsPerChannel must be at least 3 (open + spare + GC victim)", s.Name)
	case s.PlacementStreams > s.UnitsPerChannel-2:
		return fmt.Errorf("flashsim: %s: PlacementStreams (%d) needs UnitsPerChannel >= streams+2 (got %d)",
			s.Name, s.PlacementStreams, s.UnitsPerChannel)
	case s.EraseDuration <= 0:
		return fmt.Errorf("flashsim: %s: placement model needs a positive EraseDuration", s.Name)
	}
	return nil
}

// Stats are cumulative device counters.
type Stats struct {
	Reads      uint64
	Writes     uint64
	ReadPages  uint64
	WritePages uint64
	Erases     uint64
	// TrimmedPages counts pages invalidated by Trim (placement model).
	TrimmedPages uint64
	// Errors counts requests failed by the fault injector.
	Errors uint64
	// Stalls counts requests delayed by an injected timeout pulse.
	Stalls uint64
}

// Device is a simulated NVMe Flash device.
type Device struct {
	eng      *sim.Engine
	spec     Spec
	channels []*sim.Resource
	rng      *sim.RNG

	lastWrite sim.Time // most recent write arrival; -1 when none ever
	// pendingProg is the background program work scheduled but not yet
	// performed, summed across channels (drives write backpressure).
	pendingProg sim.Time
	stats       Stats
	// inj optionally injects per-request I/O errors and timeout pulses.
	inj *faults.Injector
	// pl is the erase-unit placement state; nil in the legacy GC model.
	pl *placer
}

// SetFaults installs a fault injector: per-request I/O errors (OnError)
// and timeout pulses (extra completion latency). Pass nil to disable.
func (d *Device) SetFaults(in *faults.Injector) { d.inj = in }

// New creates a device from spec. It panics on an invalid spec; device
// specs are program constants, not user input.
func New(eng *sim.Engine, spec Spec, seed int64) *Device {
	if spec.EraseUnitPages > 0 {
		if spec.PlacementStreams == 0 {
			spec.PlacementStreams = 1
		}
		if spec.UnitsPerChannel == 0 {
			spec.UnitsPerChannel = 8
		}
	}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	d := &Device{
		eng:       eng,
		spec:      spec,
		rng:       sim.NewRNG(seed),
		lastWrite: -1,
	}
	d.stats.WritePages = spec.PreAgedPages
	for i := 0; i < spec.Channels; i++ {
		d.channels = append(d.channels, sim.NewResource(eng, fmt.Sprintf("%s/ch%d", spec.Name, i)))
	}
	if spec.EraseUnitPages > 0 {
		d.pl = newPlacer(d)
	}
	return d
}

// Spec returns the device's spec.
func (d *Device) Spec() Spec { return d.spec }

// Stats returns a copy of the cumulative counters.
func (d *Device) Stats() Stats { return d.stats }

// ReadOnlyMode reports whether the device is currently in the read-only
// fast mode (no writes within the configured window).
func (d *Device) ReadOnlyMode() bool {
	if !d.spec.ReadOnlyHalf {
		return false
	}
	return d.lastWrite < 0 || d.eng.Now()-d.lastWrite > d.spec.ReadOnlyWindow
}

// wearMultiplier returns the current service-time inflation from
// accumulated writes (1.0 on a fresh device or when aging is disabled).
func (d *Device) wearMultiplier() float64 {
	if d.spec.WearPagesScale == 0 {
		return 1
	}
	return 1 + float64(d.stats.WritePages)/float64(d.spec.WearPagesScale)
}

// WearMultiplier exposes the device's current wear factor.
func (d *Device) WearMultiplier() float64 { return d.wearMultiplier() }

// channelOf maps a device page to its channel (LBA striping).
func (d *Device) channelOf(block uint64) *sim.Resource {
	return d.channels[block%uint64(len(d.channels))]
}

// Submit issues a request. The completion callback fires in engine context.
func (d *Device) Submit(r *Request) {
	r.submitAt = d.eng.Now()
	if d.inj.DeviceError() {
		// Injected media error / controller reset: fail after the
		// unloaded access latency (errors are not free), without touching
		// channel state.
		d.stats.Errors++
		lat := d.spec.ReadArray
		if r.Op == OpWrite {
			lat = d.spec.WriteBuffer
		}
		cb := r.OnError
		if cb == nil {
			cb = r.OnComplete
		}
		if cb != nil {
			d.eng.After(lat, func() { cb(d.eng.Now()) })
		}
		return
	}
	if extra := d.inj.DeviceStallSim(); extra > 0 {
		d.stats.Stalls++
		r.extra = extra
	}
	switch r.Op {
	case OpRead:
		d.submitRead(r)
	case OpWrite:
		d.submitWrite(r)
	default:
		panic(fmt.Sprintf("flashsim: unknown op %d", r.Op))
	}
}

func (d *Device) submitRead(r *Request) {
	pages := r.Pages()
	d.stats.Reads++
	d.stats.ReadPages += uint64(pages)

	service := sim.Time(float64(d.spec.UnitService) * d.wearMultiplier())
	if d.ReadOnlyMode() {
		service /= 2
	}

	// Each page occupies its channel for the service time; the array access
	// completes off-channel afterwards. The request completes when its last
	// page does.
	var last sim.Time
	for p := 0; p < pages; p++ {
		ch := d.channelOf(r.Block + uint64(p))
		_, end := ch.Schedule(service, nil)
		array := d.spec.ReadArray
		if d.spec.ReadArrayJitterMean > 0 {
			array += d.rng.Exp(d.spec.ReadArrayJitterMean)
		}
		doneAt := end + array
		if doneAt > last {
			last = doneAt
		}
	}
	last += r.extra // injected timeout pulse
	if r.OnComplete != nil {
		d.eng.At(last, func() { r.OnComplete(last) })
	}
}

func (d *Device) submitWrite(r *Request) {
	pages := r.Pages()
	d.stats.Writes++
	d.stats.WritePages += uint64(pages)
	d.lastWrite = d.eng.Now()

	// Host-visible completion: DRAM buffer, plus backpressure once the
	// buffered program backlog exceeds the buffer's slack.
	lat := d.spec.WriteBuffer + r.extra // extra: injected timeout pulse
	if d.spec.WriteBufferJitterMean > 0 {
		lat += d.rng.Exp(d.spec.WriteBufferJitterMean)
	}
	if d.spec.WriteBufferSlack > 0 {
		backlog := d.pendingProg / sim.Time(len(d.channels))
		if over := backlog - d.spec.WriteBufferSlack; over > 0 {
			lat += over
		}
	}
	if r.OnComplete != nil {
		d.eng.After(lat, func() { r.OnComplete(d.eng.Now()) })
	}

	// Background program work per page, plus GC: explicit erase-unit
	// bookkeeping under the placement model, the legacy per-page erase
	// coin flip otherwise.
	occ := sim.Time(float64(d.spec.programOccupancy()) * d.wearMultiplier())
	for p := 0; p < pages; p++ {
		ch := d.channelOf(r.Block + uint64(p))
		d.pendingProg += occ
		d.program(ch, occ)
		if d.pl != nil {
			d.pl.hostWrite(r.Block+uint64(p), r.Stream)
		} else if d.spec.EraseProb > 0 && d.rng.Float64() < d.spec.EraseProb {
			d.stats.Erases++
			ch.Occupy(d.spec.EraseDuration)
		}
	}
}

// program occupies the channel for total background work, in chunks chained
// completion-to-submission so that concurrently queued reads interleave.
func (d *Device) program(ch *sim.Resource, remaining sim.Time) {
	if remaining <= 0 {
		return
	}
	chunk := sim.Time(d.spec.ProgramChunkTokens) * d.spec.UnitService
	if chunk <= 0 || chunk >= remaining {
		chunk = remaining
	}
	ch.Schedule(chunk, func(sim.Time) {
		d.pendingProg -= chunk
		d.program(ch, remaining-chunk)
	})
}

// Trim discards pages [block, block+pages): each page's current flash
// location is marked invalid, so GC stops relocating it — a trimmed page
// costs zero program operations when its erase unit is reclaimed, which
// is exactly how discard lowers write amplification. Only meaningful
// under the placement model (EraseUnitPages > 0); the legacy coin-flip
// GC has no notion of page liveness, so Trim is a no-op there. Returns
// the number of pages that were actually mapped.
func (d *Device) Trim(block uint64, pages int) int {
	if d.pl == nil {
		return 0
	}
	n := 0
	for p := 0; p < pages; p++ {
		if d.pl.trim(block + uint64(p)) {
			n++
		}
	}
	d.stats.TrimmedPages += uint64(n)
	return n
}

// BusyChannels returns how many channels are occupied right now — the
// instantaneous channel occupancy a time-series sampler records.
func (d *Device) BusyChannels() int {
	n := 0
	for _, ch := range d.channels {
		if !ch.Idle() {
			n++
		}
	}
	return n
}

// Channels returns the number of channels.
func (d *Device) Channels() int { return len(d.channels) }

// MaxChannelBacklog returns the largest per-channel booking horizon — how
// far ahead of the clock the busiest channel is committed.
func (d *Device) MaxChannelBacklog() sim.Time {
	var m sim.Time
	for _, ch := range d.channels {
		if b := ch.Backlog(); b > m {
			m = b
		}
	}
	return m
}

// Utilization returns the mean channel utilization since simulation start.
func (d *Device) Utilization() float64 {
	var u float64
	for _, ch := range d.channels {
		u += ch.Utilization()
	}
	return u / float64(len(d.channels))
}
