package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/cluster"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/hist"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/readcache"
	"github.com/reflex-go/reflex/internal/storage"
	"github.com/reflex-go/reflex/internal/volume"
)

// The cost ledger times calls into each layer's public functions from
// outside the program: one goroutine, fixed iteration counts, the
// fastest of a few rounds (the rounds differ only by what else the host
// ran). It prices the calls a request makes; what the end-to-end CPU
// figure holds beyond their sum is the residual nobody has named yet.

const (
	ledgerRounds = 5
	ledgerIters  = 20000
)

// timeNS returns the best per-iteration time of fn over ledgerRounds
// rounds of iters calls each. fn runs one iteration.
func timeNS(iters int, fn func(i int)) float64 {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < ledgerRounds; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best) / float64(iters)
}

// timeBatchNS times only the timed half of each batch: prep runs
// untimed, then run is called batch times under the clock.
func timeBatchNS(batches, batch int, prep func(b int), run func(b, i int)) float64 {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < ledgerRounds; r++ {
		var total time.Duration
		for b := 0; b < batches; b++ {
			prep(r*batches + b)
			start := time.Now()
			for i := 0; i < batch; i++ {
				run(r*batches+b, i)
			}
			total += time.Since(start)
		}
		if total < best {
			best = total
		}
	}
	return float64(best) / float64(batches*batch)
}

// allocsPer returns heap allocations per call of fn.
func allocsPer(iters int, fn func(i int)) float64 {
	fn(0) // first-use growth is not steady state
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < iters; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(iters)
}

type discardSender struct{ last uint64 }

func (d *discardSender) SendToReplica(hdr *protocol.Header, _ []byte, lease *bufpool.Buf) {
	d.last = hdr.Cookie
	bufpool.ReleaseIf(lease)
}

// runLedger fills out with the ledger metrics.
func runLedger(out map[string]float64) error {
	payload := make([]byte, ioSize)
	for i := range payload {
		payload[i] = byte(i)
	}

	// protocol: a 4 KiB write frame encoded and decoded, and the
	// header-only codec a read request and its response header cost.
	hdr := protocol.Header{Opcode: protocol.OpWrite, Handle: 1, Cookie: 7, LBA: 8, Count: ioSize}
	frame := make([]byte, 0, protocol.HeaderSize+ioSize)
	var encErr error
	encode := func(int) { frame, encErr = protocol.AppendMessage(frame[:0], &hdr, payload) }
	out["protocol.encode_4k_ns"] = timeNS(ledgerIters, encode)
	if encErr != nil {
		return encErr
	}
	var msg protocol.Message
	rd := bytes.NewReader(frame)
	scratch := make([]byte, ioSize)
	alloc := func(n int) []byte { return scratch[:n] }
	var decErr error
	decode := func(int) {
		rd.Reset(frame)
		if err := protocol.ReadMessageInto(rd, &msg, alloc); err != nil {
			decErr = err
		}
	}
	out["protocol.decode_4k_ns"] = timeNS(ledgerIters, decode)
	out["protocol.roundtrip_allocs"] = allocsPer(ledgerIters, func(i int) { encode(i); decode(i) })
	rhdr := protocol.Header{Opcode: protocol.OpRead, Handle: 1, Cookie: 7, LBA: 8, Count: ioSize}
	hb := make([]byte, protocol.HeaderSize)
	out["protocol.header_codec_ns"] = timeNS(ledgerIters, func(int) {
		rhdr.MarshalTo(hb)
		rd.Reset(hb)
		if err := protocol.ReadMessageInto(rd, &msg, alloc); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return decErr
	}

	out["bufpool.get_release_ns"] = timeNS(ledgerIters, func(int) { bufpool.Get(ioSize).Release() })

	// core: one best-effort tenant with tokens to spare, 16 requests per
	// round as a loaded pcore sees them.
	model := core.CostModel{ReadCost: core.TokenUnit, ReadOnlyReadCost: core.TokenUnit / 2, WriteCost: 10 * core.TokenUnit}
	sched := core.NewScheduler(model, 0, core.NewSharedState(1, 100_000_000*core.TokenUnit))
	ten, err := core.NewTenant(1, "ledger", core.BestEffort, core.SLO{})
	if err != nil {
		return err
	}
	sched.Register(ten)
	const round = 16
	reqs := make([]core.Request, round)
	now, submitted := int64(0), 0
	submit := func(*core.Request) { submitted++ }
	var enq, sch time.Duration
	coreRound := func(timed bool) {
		t0 := time.Now()
		for i := range reqs {
			reqs[i] = core.Request{Op: core.OpRead, Size: ioSize}
			sched.Enqueue(ten, &reqs[i])
		}
		t1 := time.Now()
		now += int64(time.Millisecond)
		sched.Schedule(now, submit)
		if timed {
			enq += t1.Sub(t0)
			sch += time.Since(t1)
		}
	}
	coreRound(false)
	bestEnq, bestSch := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for r := 0; r < ledgerRounds; r++ {
		enq, sch = 0, 0
		for i := 0; i < ledgerIters/round; i++ {
			coreRound(true)
		}
		bestEnq, bestSch = min(bestEnq, enq), min(bestSch, sch)
	}
	perReq := float64(ledgerIters / round * round)
	out["core.enqueue_ns"] = float64(bestEnq) / perReq
	out["core.schedule_ns_per_req"] = float64(bestSch) / perReq
	out["core.schedule_allocs"] = allocsPer(ledgerIters/round, func(int) { coreRound(false) }) / round
	if want := (ledgerRounds+1)*(ledgerIters/round)*round + 2*round; submitted != want {
		return fmt.Errorf("ledger: scheduler admitted %d of %d requests", submitted, want)
	}

	// storage: the in-memory backend the server runs on, over 64 MiB so
	// that the copies miss cache the way the server's do.
	const memBlocks = 64 << 20 / ioSize
	mem := storage.NewMem(memBlocks * ioSize)
	var ioErr error
	out["storage.mem_write_4k_ns"] = timeNS(ledgerIters, func(i int) {
		if _, err := mem.WriteAt(payload, int64(i*7919%memBlocks)*ioSize); err != nil {
			ioErr = err
		}
	})
	out["storage.mem_read_4k_ns"] = timeNS(ledgerIters, func(i int) {
		if _, err := mem.ReadAt(scratch, int64(i*7919%memBlocks)*ioSize); err != nil {
			ioErr = err
		}
	})

	h := hist.New()
	out["hist.record_ns"] = timeNS(ledgerIters, func(i int) { h.Record(int64(50000 + i)) })
	ring := obs.NewRing(4096, 16)
	sp := obs.Span{ID: 1, Tenant: 1, Size: ioSize, Hop: obs.HopServe}
	sp.Mark(obs.StageArrival, 1)
	out["obs.ring_push_ns"] = timeNS(ledgerIters, func(i int) {
		sp.Mark(obs.StageTx, int64(2+i%977))
		ring.Push(sp)
	})

	// readcache: hits, fills and invalidations on an always-admit cache
	// (so that every probe leads to a fill); misses on a cost-admission
	// cache, the server's mode, where a miss also keeps the ghost table.
	// A quarter as many keys as capacity, so that no lock stripe overflows
	// and evicts behind the ledger's back.
	const cacheBlocks, cacheKeys = 8192, 2048
	always, err := readcache.New(readcache.Config{Blocks: cacheBlocks, Mode: readcache.ModeAlways})
	if err != nil {
		return err
	}
	const batch = 64
	epochs := make([]uint64, batch)
	key := func(b, i int) uint64 { return readcache.Key(0, uint64((b*batch+i)%cacheKeys)) }
	probeAll := func(b int) {
		for i := 0; i < batch; i++ {
			_, _, epochs[i] = always.Probe(key(b, i), 0, scratch)
		}
	}
	fills := 0
	out["readcache.commit_fill_ns"] = timeBatchNS(cacheKeys/batch, batch,
		func(b int) {
			for i := 0; i < batch; i++ {
				always.Invalidate(key(b, i), 1)
			}
			probeAll(b)
		},
		func(b, i int) {
			if always.CommitFill(key(b, i), epochs[i], payload) {
				fills++
			}
		})
	if fills != ledgerRounds*cacheKeys {
		return fmt.Errorf("ledger: %d of %d cache fills committed", fills, ledgerRounds*cacheKeys)
	}
	hits := 0
	out["readcache.probe_hit_ns"] = timeNS(ledgerIters, func(i int) {
		if hit, _, _ := always.Probe(readcache.Key(0, uint64(i*31%cacheKeys)), 0, scratch); hit {
			hits++
		}
	})
	if hits != ledgerRounds*ledgerIters {
		return fmt.Errorf("ledger: %d of %d cache probes hit", hits, ledgerRounds*ledgerIters)
	}
	out["readcache.invalidate_ns"] = timeBatchNS(cacheKeys/batch, batch,
		func(b int) {
			probeAll(b)
			for i := 0; i < batch; i++ {
				always.CommitFill(key(b, i), epochs[i], payload)
			}
		},
		func(b, i int) { always.Invalidate(key(b, i), 1) })
	cost, err := readcache.New(readcache.Config{Blocks: cacheBlocks, Mode: readcache.ModeCost,
		ReadCost: model.ReadCost, HitCost: model.CacheServeCost()})
	if err != nil {
		return err
	}
	out["readcache.probe_miss_ns"] = timeNS(ledgerIters, func(i int) {
		cost.Probe(readcache.Key(0, uint64(1<<20+i*64)), 0, scratch)
	})

	// volume: an 8 MiB thin volume. In-place writes land in extents of the
	// live generation; after a snapshot the first write to each extent
	// copies it. The pool holds the volume once per round: a deleted
	// snapshot's layer stays in the live volume's chain, so the extents it
	// shadows do not come back.
	const volBytes, poolBytes = 8 << 20, (ledgerRounds + 2) * 8 << 20
	mgr, err := volume.NewManager(volume.Config{Backend: storage.NewMem(poolBytes), Blocks: poolBytes / protocol.BlockSize})
	if err != nil {
		return err
	}
	vol, err := mgr.Create("ledger", volBytes/protocol.BlockSize)
	if err != nil {
		return err
	}
	extBytes := int64(vol.ExtentBlocks()) * protocol.BlockSize
	extents := int(volBytes / extBytes)
	for off := int64(0); off < volBytes; off += ioSize {
		if err := vol.WriteAt(payload, off); err != nil {
			return err
		}
	}
	out["volume.write_inplace_ns"] = timeNS(ledgerIters, func(i int) {
		if err := vol.WriteAt(payload, int64(i*7919%(volBytes/ioSize))*ioSize); err != nil {
			ioErr = err
		}
	})
	translated := 0
	out["volume.translate_ns"] = timeNS(ledgerIters, func(i int) {
		if _, ok := vol.Translate(int64(i*7919%(volBytes/ioSize))*ioSize, ioSize); ok {
			translated++
		}
	})
	if translated != ledgerRounds*ledgerIters {
		return fmt.Errorf("ledger: %d of %d translations mapped", translated, ledgerRounds*ledgerIters)
	}
	var snap uint64
	out["volume.write_cow_ns"] = timeBatchNS(1, extents,
		func(int) {
			gen, err := mgr.Snapshot("ledger")
			if err != nil {
				ioErr = err
				return
			}
			if snap != 0 {
				if _, err := mgr.Delete("ledger", snap); err != nil {
					ioErr = err
				}
			}
			snap = gen
		},
		func(_, i int) {
			if err := vol.WriteAt(payload, int64(i)*extBytes); err != nil {
				ioErr = err
			}
		})
	if ioErr != nil {
		return fmt.Errorf("ledger: %w", ioErr)
	}

	// cluster: one write forwarded to a replica and its ack handled,
	// against a sender that drops the frame. No workload replicates, so
	// no end-to-end metric answers to this one yet.
	sender := &discardSender{}
	repl := cluster.NewReplicator(cluster.ReplicatorConfig{Epoch: func() uint16 { return 1 }})
	repl.Attach(sender)
	acked := 0
	onAck := func(protocol.Status) { acked++ }
	ack := protocol.Header{Opcode: protocol.OpReplicate, Flags: protocol.FlagResponse}
	forward := func(int) {
		if repl.Forward(8, payload, nil, 0, 0, onAck) {
			ack.Cookie = sender.last
			repl.HandleAck(&ack)
		}
	}
	out["cluster.forward_ack_ns"] = timeNS(ledgerIters, forward)
	out["cluster.forward_allocs"] = allocsPer(ledgerIters, forward)
	if want := (ledgerRounds+1)*ledgerIters + 1; acked != want {
		return fmt.Errorf("ledger: %d of %d forwards acked", acked, want)
	}
	return nil
}

// serverReadPath lists the ledger entries one raw 4 KiB read executes on
// the server, with how many times each: request header decoded and
// response header encoded (one codec round), ring hand-off priced as an
// enqueue, one scheduling decision, one pooled response buffer, one
// backend read, the latency histogram plus its share of the two batch
// histograms, and the span pushed into the trace ring.
var serverReadPath = []struct {
	metric string
	times  float64
}{
	{"protocol.header_codec_ns", 1},
	{"core.enqueue_ns", 1},
	{"core.schedule_ns_per_req", 1},
	{"bufpool.get_release_ns", 1},
	{"storage.mem_read_4k_ns", 1},
	{"hist.record_ns", 1.25},
	{"obs.ring_push_ns", 1},
}

// reconcile sets the ledger's sum and residual against a measured
// server CPU cost per operation, and prints the table: layers sorted by
// share, their sum, the end-to-end figure, the residual.
func reconcile(w io.Writer, workload string, out map[string]float64, srvCPUus float64) {
	type row struct {
		name string
		us   float64
	}
	var rows []row
	var sum float64
	for _, e := range serverReadPath {
		us := out[e.metric] * e.times / 1e3
		rows = append(rows, row{e.metric, us})
		sum += us
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].us > rows[j].us })
	out["ledger.server_sum_us"] = sum
	out["ledger.residual_us"] = srvCPUus - sum
	out["ledger.residual_pct"] = 0
	if srvCPUus > 0 {
		out["ledger.residual_pct"] = 100 * (srvCPUus - sum) / srvCPUus
	}
	fmt.Fprintf(w, "\nledger reconciliation against %s srv_cpu_us_per_op (server-side calls of one raw 4 KiB read)\n", workload)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-30s %8.3f us %6.1f%%\n", r.name, r.us, 100*r.us/srvCPUus)
	}
	fmt.Fprintf(w, "  %-30s %8.3f us %6.1f%%\n", "sum of named layers", sum, 100*sum/srvCPUus)
	fmt.Fprintf(w, "  %-30s %8.3f us\n", "srv_cpu_us_per_op", srvCPUus)
	fmt.Fprintf(w, "  %-30s %8.3f us %6.1f%%  (syscalls, runtime, goroutine hand-offs: not yet named)\n",
		"residual", out["ledger.residual_us"], out["ledger.residual_pct"])
}
