// Package faults is a deterministic, seedable fault-injection subsystem
// shared by both halves of the repo: the wall-clock TCP/UDP path
// (internal/server, internal/client) and the virtual-time simulators
// (internal/netsim, internal/flashsim).
//
// One Injector holds every fault probability and a single seeded PRNG, so
// a chaos run is reproducible from its seed alone. Consumers pull
// decisions through small, nil-safe methods:
//
//   - net.Conn wrappers (WrapConn, WrapListener) inject drops (half-open
//     blackholes), stalls, partial reads/writes, resets and jitter on the
//     real socket path; an event loop that cannot sleep per operation
//     draws the same decisions from ConnOp, Partial and CorruptAt;
//   - netsim consults MessageFate for message loss, duplication and extra
//     delay;
//   - flashsim and the real server's device path consult DeviceError and
//     DeviceStall for per-request I/O error and timeout pulses.
//
// Every injected fault is counted (total and per kind) and optionally
// reported through an observer callback, which the server wires to the
// obs registry as the faults_injected counter. A nil *Injector is valid
// and injects nothing, so call sites need no guards.
package faults

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/sim"
)

// Fault kinds reported to the observer and counted per kind.
const (
	KindDrop        = "drop"         // connection blackholed (half-open peer)
	KindStall       = "stall"        // connection I/O stalled
	KindPartial     = "partial"      // partial read/write
	KindReset       = "reset"        // abrupt connection close
	KindJitter      = "jitter"       // per-op latency jitter
	KindMsgLoss     = "msg-loss"     // simulated message dropped
	KindMsgDup      = "msg-dup"      // simulated message duplicated
	KindMsgDelay    = "msg-delay"    // simulated message delayed
	KindDeviceErr   = "device-err"   // per-request device I/O error
	KindDeviceStall = "device-stall" // per-request device timeout pulse
	KindCorrupt     = "corrupt"      // payload byte flipped in flight
)

// Config holds every fault probability and bound. Zero values inject
// nothing; probabilities are per decision point (per Read/Write call, per
// message, per device request).
type Config struct {
	// Seed makes the run reproducible. Two injectors with the same seed
	// and the same decision sequence make the same choices.
	Seed int64

	// Connection-level faults (wall-clock net.Conn wrappers).

	// DropProb blackholes the connection: subsequent reads hang (until
	// the reader's deadline) and writes vanish — a half-open peer.
	DropProb float64
	// StallProb stalls one Read/Write for up to StallDur.
	StallProb float64
	StallDur  time.Duration
	// PartialProb truncates one Read (short read, legal for io.Reader) or
	// one Write (short write, surfaces as bufio flush errors).
	PartialProb float64
	// ResetProb abruptly closes the connection mid-operation.
	ResetProb float64
	// JitterMax adds a uniform [0, JitterMax) delay to every Read/Write.
	JitterMax time.Duration
	// CorruptProb flips one payload byte per affected message — in the
	// wrapped conn's Write (beyond the fixed header, so framing survives
	// and the corruption lands in data covered by FlagChecksum), and at
	// the server's CorruptPayload call sites. This is the fault class
	// end-to-end checksums exist to catch.
	CorruptProb float64

	// Device faults (flashsim and the real server's backend path).

	// DeviceErrProb fails one device request with an I/O error.
	DeviceErrProb float64
	// DeviceStallProb delays one device request by up to DeviceStallDur —
	// the "timeout pulse" a GC-stalled or resetting device produces.
	DeviceStallProb float64
	DeviceStallDur  time.Duration

	// Message faults (netsim, virtual time).

	// MsgLossProb drops one simulated message.
	MsgLossProb float64
	// MsgDupProb duplicates one simulated message.
	MsgDupProb float64
	// MsgDelayProb delays one simulated message by up to MsgDelayMax.
	MsgDelayProb float64
	MsgDelayMax  sim.Time
}

// Chaos returns a soak-test profile with every fault class enabled at
// rates high enough to exercise all error paths within seconds but low
// enough that most traffic still completes.
func Chaos(seed int64) Config {
	return Config{
		Seed:            seed,
		DropProb:        0.0002,
		StallProb:       0.002,
		StallDur:        50 * time.Millisecond,
		PartialProb:     0.002,
		ResetProb:       0.0005,
		JitterMax:       200 * time.Microsecond,
		DeviceErrProb:   0.005,
		DeviceStallProb: 0.002,
		DeviceStallDur:  5 * time.Millisecond,
		MsgLossProb:     0.002,
		MsgDupProb:      0.002,
		MsgDelayProb:    0.01,
		MsgDelayMax:     2 * sim.Millisecond,
	}
}

// Injector makes seeded fault decisions and counts what it injects. All
// methods are safe for concurrent use and safe on a nil receiver (a nil
// injector injects nothing).
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	injected atomic.Uint64
	kinds    sync.Map // kind -> *atomic.Uint64

	observer atomic.Value // func(kind string)
}

// New creates an injector from cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Config returns the injector's configuration (zero Config when nil).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// SetObserver registers a callback invoked once per injected fault with
// the fault kind. Used to bridge into a metrics registry.
func (in *Injector) SetObserver(fn func(kind string)) {
	if in == nil {
		return
	}
	in.observer.Store(fn)
}

// Injected returns the total number of faults injected so far.
func (in *Injector) Injected() uint64 {
	if in == nil {
		return 0
	}
	return in.injected.Load()
}

// Count returns how many faults of one kind were injected.
func (in *Injector) Count(kind string) uint64 {
	if in == nil {
		return 0
	}
	v, ok := in.kinds.Load(kind)
	if !ok {
		return 0
	}
	return v.(*atomic.Uint64).Load()
}

// note records one injected fault.
func (in *Injector) note(kind string) {
	in.injected.Add(1)
	v, ok := in.kinds.Load(kind)
	if !ok {
		v, _ = in.kinds.LoadOrStore(kind, new(atomic.Uint64))
	}
	v.(*atomic.Uint64).Add(1)
	if fn, ok := in.observer.Load().(func(string)); ok && fn != nil {
		fn(kind)
	}
}

// hit draws one Bernoulli decision from the seeded PRNG.
func (in *Injector) hit(p float64) bool {
	if in == nil || p <= 0 {
		return false
	}
	in.mu.Lock()
	v := in.rng.Float64()
	in.mu.Unlock()
	return v < p
}

// dur draws a uniform duration in [max/2, max) — long enough to matter,
// bounded so soaks terminate.
func (in *Injector) dur(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	in.mu.Lock()
	v := in.rng.Int63n(int64(max)/2 + 1)
	in.mu.Unlock()
	return max/2 + time.Duration(v)
}

// DeviceError reports whether this device request should fail.
func (in *Injector) DeviceError() bool {
	if in == nil || !in.hit(in.cfg.DeviceErrProb) {
		return false
	}
	in.note(KindDeviceErr)
	return true
}

// DeviceStall returns the wall-clock timeout pulse to add to this device
// request (0 = none).
func (in *Injector) DeviceStall() time.Duration {
	if in == nil || !in.hit(in.cfg.DeviceStallProb) {
		return 0
	}
	in.note(KindDeviceStall)
	return in.dur(in.cfg.DeviceStallDur)
}

// DeviceStallSim is DeviceStall in virtual time for the simulators.
func (in *Injector) DeviceStallSim() sim.Time {
	return sim.Time(in.DeviceStall())
}

// CorruptPayload flips one random byte of p with probability CorruptProb
// and reports whether it did. Nil-safe; a nil or empty p is never touched.
// Callers apply it to payload bytes *after* any checksum trailer has been
// computed, so the flip is exactly what the verifier must catch.
func (in *Injector) CorruptPayload(p []byte) bool {
	if in == nil || len(p) == 0 || !in.hit(in.cfg.CorruptProb) {
		return false
	}
	in.mu.Lock()
	i := in.rng.Intn(len(p))
	in.mu.Unlock()
	p[i] ^= 0xA5
	in.note(KindCorrupt)
	return true
}

// MessageFate decides a simulated message's fate: dropped, duplicated,
// and/or delayed by extra virtual time. Drop wins over the others.
func (in *Injector) MessageFate() (drop, dup bool, delay sim.Time) {
	if in == nil {
		return false, false, 0
	}
	if in.hit(in.cfg.MsgLossProb) {
		in.note(KindMsgLoss)
		return true, false, 0
	}
	if in.hit(in.cfg.MsgDupProb) {
		in.note(KindMsgDup)
		dup = true
	}
	if in.hit(in.cfg.MsgDelayProb) && in.cfg.MsgDelayMax > 0 {
		in.note(KindMsgDelay)
		in.mu.Lock()
		delay = sim.Time(in.rng.Int63n(int64(in.cfg.MsgDelayMax)))
		in.mu.Unlock()
	}
	return false, dup, delay
}
