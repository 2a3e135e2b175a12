package experiments

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/server"
	"github.com/reflex-go/reflex/internal/sim"
	"github.com/reflex-go/reflex/internal/storage"
)

// ExtVolume is the volume-layer extension experiment (DESIGN.md §18).
// Like ext-failover it runs the real TCP server wall-clock, because the
// subjects under test — the extent map on the pcore fast path, the CoW
// snapshot barrier, and the self-paced diff-restore stream — live in the
// real stack.
//
// Two phases over the same mixed-tenant load (an LC reader with a
// latency SLO plus a best-effort writer hammering verifiable records
// into a thin volume):
//
//   - "baseline": the load alone; the LC read percentiles are the
//     reference tail.
//   - "snapshot": mid-run, a management client takes a CoW snapshot,
//     cuts a writable clone, and pulls the full diff stream (0, gen]
//     into a local image over a dedicated connection — all while the
//     load keeps running.
//
// The phase-2 claims: the diff-restored image is crash-consistent (no
// torn records, every record's sequence number inside the write-ledger
// bracket taken around the snapshot), the live volume loses no acked
// write, and the LC read p95 stays within 2x of baseline while the
// snapshot machinery runs.
type VolumeBenchResult struct {
	LCReadP95Base time.Duration // baseline LC read p95
	LCReadP95Snap time.Duration // LC read p95 with snapshot+clone+restore mid-run
	SnapshotLat   time.Duration // VolSnapshot call latency under load
	RestoredMiB   float64       // bytes shipped by the diff stream
	RestoredGen   uint64        // generation the restore reached
	TornBlocks    int           // torn records in the restored image (must be 0)
	StaleSlots    int           // restored records outside the ledger bracket (must be 0)
	LostAcked     int           // acked writes missing from the live volume (must be 0)
}

// P95Ratio is the snapshot-phase LC tail expansion over baseline.
func (r VolumeBenchResult) P95Ratio() float64 {
	if r.LCReadP95Base <= 0 {
		return 0
	}
	return float64(r.LCReadP95Snap) / float64(r.LCReadP95Base)
}

const (
	volName      = "tenants/fig5"
	volSlots     = 16   // write slots, one 4KB record each
	volRecBytes  = 4096 // record size
	volRecBlocks = volRecBytes / protocol.BlockSize
)

// volRecord fills a 4KB record with (seq, slot) stamped every 16 bytes,
// so a torn write (mixed generations inside one record) is detectable.
func volRecord(buf []byte, slot int, seq uint64) {
	for off := 0; off < len(buf); off += 16 {
		binary.BigEndian.PutUint64(buf[off:], seq)
		binary.BigEndian.PutUint64(buf[off+8:], uint64(slot))
	}
}

// volDecode returns the record's sequence number and whether any stamp
// disagrees (a torn record). An all-zero record decodes as (0, false).
func volDecode(buf []byte, slot int) (uint64, bool) {
	seq := binary.BigEndian.Uint64(buf)
	for off := 0; off < len(buf); off += 16 {
		if binary.BigEndian.Uint64(buf[off:]) != seq {
			return seq, true
		}
		s := binary.BigEndian.Uint64(buf[off+8:])
		if seq != 0 && s != uint64(slot) {
			return seq, true
		}
	}
	return seq, false
}

type volPhase struct {
	reads, writes int
	p50, p95, p99 time.Duration
	snapLat       time.Duration
	restoredMiB   float64
	gen           uint64
	torn, stale   int
	lost          int
	err           error
}

// ExtVolume runs both phases and tabulates them.
func ExtVolume(scale Scale) *Table {
	_, t := VolumeBench(scale)
	return t
}

// VolumeBench runs ext-volume and returns both the gateable numbers and
// the human-readable table.
func VolumeBench(scale Scale) (VolumeBenchResult, *Table) {
	t := &Table{
		ID:    "ext-volume",
		Title: "Volume layer: CoW snapshot + clone + diff-restore under mixed-tenant load",
		Columns: []string{
			"phase", "lc_reads", "be_writes", "p50_us", "p95_us", "p99_us",
			"snap_us", "restore_mib", "torn", "stale", "lost_acked",
		},
		Notes: "gates: restored image crash-consistent (torn=0, stale=0), lost_acked=0, snapshot-phase LC p95 <= 2x baseline",
	}
	dur := time.Duration(scale.dur(2 * sim.Second))

	base := runVolumePhase(false, dur)
	snap := runVolumePhase(true, dur)
	for _, ph := range []struct {
		name string
		p    volPhase
	}{{"baseline", base}, {"snapshot", snap}} {
		p := ph.p
		snapUS, restore := "-", "-"
		if ph.name == "snapshot" {
			snapUS = us(int64(p.snapLat))
			restore = fmt.Sprintf("%.2f", p.restoredMiB)
		}
		t.Add(ph.name, p.reads, p.writes,
			us(int64(p.p50)), us(int64(p.p95)), us(int64(p.p99)),
			snapUS, restore, p.torn, p.stale, p.lost)
	}

	return VolumeBenchResult{
		LCReadP95Base: base.p95,
		LCReadP95Snap: snap.p95,
		SnapshotLat:   snap.snapLat,
		RestoredMiB:   snap.restoredMiB,
		RestoredGen:   snap.gen,
		TornBlocks:    base.torn + snap.torn,
		StaleSlots:    base.stale + snap.stale,
		LostAcked:     base.lost + snap.lost,
	}, t
}

type volSnapOutcome struct {
	snapLat time.Duration
	gen     uint64
	floor   [volSlots]uint64
	ceil    [volSlots]uint64
	image   []byte
	bytes   int64
	err     error
}

// runVolumePhase runs one load window against a fresh server and, when
// doSnap is set, drives the snapshot/clone/restore sequence at the
// half-way point while the load continues.
func runVolumePhase(doSnap bool, dur time.Duration) volPhase {
	fail := func(err error) volPhase { return volPhase{err: err} }
	srv, err := server.New(server.Config{
		Addr:  "127.0.0.1:0",
		Cores: 2,
		Model: core.CostModel{
			ReadCost:         core.TokenUnit,
			ReadOnlyReadCost: core.TokenUnit / 2,
			WriteCost:        10 * core.TokenUnit,
		},
		TokenRate:   400_000 * core.TokenUnit,
		VolumeBytes: 32 << 20,
	}, storage.NewMem(64<<20))
	if err != nil {
		return fail(err)
	}
	defer srv.Close()

	cl, err := client.Dial(srv.Addr())
	if err != nil {
		return fail(err)
	}
	defer cl.Close()
	vol, err := cl.VolCreate(volName, 4096) // 2 MiB logical, thin
	if err != nil {
		return fail(err)
	}
	wh, err := cl.OpenVolume(protocol.Registration{BestEffort: true, Writable: true}, vol)
	if err != nil {
		return fail(err)
	}
	lch, err := cl.OpenVolume(protocol.Registration{
		ReadPercent: 100,
		IOPS:        20_000,
		LatencyP95:  uint64(2 * time.Millisecond),
	}, vol)
	if err != nil {
		return fail(err)
	}

	// Best-effort writer: verifiable records round-robin over the slots.
	// The per-slot ledger entry is stored only after the ack, so the
	// ledger is a lower bound on what the volume durably holds.
	var acked [volSlots]atomic.Uint64
	var writes atomic.Int64
	stopWriter := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, volRecBytes)
		var seq uint64
		for {
			select {
			case <-stopWriter:
				return
			default:
			}
			seq++
			slot := int(seq % volSlots)
			volRecord(buf, slot, seq)
			if err := cl.Write(wh, uint32(slot*volRecBlocks), buf); err != nil {
				return
			}
			acked[slot].Store(seq)
			writes.Add(1)
		}
	}()

	// Mid-run management sequence on its own goroutine: ledger bracket
	// around the snapshot, writable clone, and a full diff restore over a
	// dedicated stream connection. floor is read before the snapshot
	// request (every ack observed then is durably pre-snapshot); ceil
	// after it returns, plus one write-in-flight allowance per slot (the
	// writer is synchronous, so at most one unacked write exists, and
	// per-slot sequence numbers step by volSlots).
	snapDone := make(chan volSnapOutcome, 1)
	launchSnap := func() {
		go func() {
			var out volSnapOutcome
			for i := range out.floor {
				out.floor[i] = acked[i].Load()
			}
			t0 := time.Now()
			gen, err := cl.VolSnapshot(volName)
			out.snapLat = time.Since(t0)
			if err != nil {
				out.err = err
				snapDone <- out
				return
			}
			out.gen = gen
			for i := range out.ceil {
				out.ceil[i] = acked[i].Load() + volSlots
			}
			if _, err := cl.VolClone(volName, gen, volName+"-r"); err != nil {
				out.err = err
				snapDone <- out
				return
			}
			out.image = make([]byte, volSlots*volRecBytes)
			_, err = client.VolRestore(srv.Addr(), volName, 0, gen, func(off int64, data []byte) error {
				out.bytes += int64(len(data))
				if off < int64(len(out.image)) {
					copy(out.image[off:], data)
				}
				return nil
			})
			out.err = err
			snapDone <- out
		}()
	}

	// LC reader: synchronous 4KB reads over the slot range; every latency
	// sample lands in the phase percentiles.
	var lat []time.Duration
	deadline := time.Now().Add(dur)
	snapAt := time.Now().Add(dur / 2)
	snapped := false
	slot := 0
	for time.Now().Before(deadline) {
		if doSnap && !snapped && time.Now().After(snapAt) {
			snapped = true
			launchSnap()
		}
		t0 := time.Now()
		if _, err := cl.Read(lch, uint32(slot*volRecBlocks), volRecBytes); err != nil {
			close(stopWriter)
			wg.Wait()
			return fail(err)
		}
		lat = append(lat, time.Since(t0))
		slot = (slot + 1) % volSlots
	}
	close(stopWriter)
	wg.Wait()

	ph := volPhase{reads: len(lat), writes: int(writes.Load())}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ph.p50, ph.p95, ph.p99 = pct(lat, 0.50), pct(lat, 0.95), pct(lat, 0.99)

	// Zero-lost-acked check: the writer is joined, so the live volume
	// must hold exactly the last acked record in every slot.
	for i := 0; i < volSlots; i++ {
		want := acked[i].Load()
		if want == 0 {
			continue
		}
		b, err := cl.Read(wh, uint32(i*volRecBlocks), volRecBytes)
		if err != nil {
			ph.lost++
			continue
		}
		seq, torn := volDecode(b, i)
		if torn || seq != want {
			ph.lost++
		}
	}

	if doSnap {
		if !snapped {
			return fail(fmt.Errorf("ext-volume: window too short to reach the snapshot point"))
		}
		out := <-snapDone
		if out.err != nil {
			return fail(out.err)
		}
		ph.snapLat = out.snapLat
		ph.gen = out.gen
		ph.restoredMiB = float64(out.bytes) / (1 << 20)
		// Crash-consistency of the diff-restored image: every slot record
		// untorn and inside the ledger bracket (all-zero only if the slot
		// had never been acked when the bracket opened).
		for i := 0; i < volSlots; i++ {
			rec := out.image[i*volRecBytes : (i+1)*volRecBytes]
			seq, torn := volDecode(rec, i)
			if torn {
				ph.torn++
				continue
			}
			if seq == 0 {
				if out.floor[i] != 0 {
					ph.stale++
				}
				continue
			}
			if seq < out.floor[i] || seq > out.ceil[i] || int(seq%volSlots) != i {
				ph.stale++
			}
		}
	}
	return ph
}
