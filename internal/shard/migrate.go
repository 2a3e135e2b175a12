package shard

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
)

// Live shard migration (DESIGN.md §13). The move reuses the replication
// machinery end to end — no separate bulk-copy path to keep correct:
//
//  1. Dual-ownership map (v+1): Migrating[shard] = dest is installed on
//     the DESTINATION FIRST, then the source, then everyone else. From
//     here the destination accepts writes for the shard, which is what
//     authorizes the sink's relayed traffic.
//  2. The sink attaches to the source primary with a ranged OpJoin. The
//     source's migration replicator streams the shard's blocks
//     (serialized against live forwards under the session's sendMu, so
//     a stale chunk can never overwrite a newer write) and forwards
//     every acked write intersecting the window — each with the client
//     ack DEFERRED until the sink has applied it at the destination and
//     acked back. "Acked" therefore means "on both nodes" for the whole
//     window, which is the zero-lost-acked-writes invariant.
//  3. The catch-up marker (a non-response OpJoin echoing the window)
//     tells the sink every block is across; the coordinator cuts over:
//     map v+2 (Assign = dest, Migrating cleared) installs on the
//     destination first, then the source — whose shard-map enforcement
//     now answers StatusWrongShard for the range, fencing new I/O off
//     the old owner exactly like an epoch fence, while clients refetch
//     and re-route.
//  4. Drain: writes admitted at the source before its v+2 install may
//     still be in its scheduler; they apply locally and forward to the
//     still-attached sink. The coordinator polls the source's OpPing
//     pending count until it reads zero for settleRounds consecutive
//     polls, then detaches the sink.
//
// A sink failure before the cutover rolls the map back (Migrating
// cleared at v+2) and the move reports the error; acked data was never
// only on the sink, so nothing is lost.

// Migration pacing knobs.
const (
	// settleRounds is how many consecutive zero-pending OpPing polls end
	// the drain (spaced settleEvery apart, comfortably longer than the
	// source's admit→forward scheduling latency).
	settleRounds = 3
	settleEvery  = 50 * time.Millisecond
	// applyRetries bounds per-write retries at the destination on
	// transient refusals (shed/timeout) before the sink gives up.
	applyRetries = 8
)

// MoveShard live-migrates one shard from its current owner to destName
// with zero lost acked writes. Blocks until the move completes, the
// sink fails, or timeout expires (0 = 60s). Concurrent MoveShard calls
// are serialized per coordinator.
func (c *Coordinator) MoveShard(shardIdx int, destName string, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	c.moveMu.Lock()
	defer c.moveMu.Unlock()
	if c.stopped() {
		return fmt.Errorf("shard: move %d: coordinator stopped", shardIdx)
	}

	m := c.Map()
	if shardIdx < 0 || shardIdx >= len(m.Assign) {
		return fmt.Errorf("shard: shard %d out of range [0,%d)", shardIdx, len(m.Assign))
	}
	destIdx := m.NodeIndex(destName)
	if destIdx < 0 {
		return fmt.Errorf("shard: unknown destination node %q", destName)
	}
	srcIdx := int(m.Assign[shardIdx])
	if srcIdx == destIdx {
		return nil // already there
	}
	if srcIdx < 0 || srcIdx >= len(m.Nodes) {
		return fmt.Errorf("shard: shard %d has no live owner", shardIdx)
	}
	srcName := m.Nodes[srcIdx].Name

	// Phase 1: dual-ownership map, destination first. The edit re-checks
	// ownership under editMu: a dead-node reassignment racing in from the
	// membership goroutine may have moved the shard off srcIdx already.
	rec := EditRecord{Kind: EditMovePrepare, Shard: shardIdx, Src: srcName, Dest: destName,
		Detail: "dual-ownership window opened"}
	m1 := c.edit(rec, func(cur *Map) *Map {
		if int(cur.Assign[shardIdx]) != srcIdx {
			return nil
		}
		nm := cur.Clone()
		nm.Migrating[shardIdx] = int32(destIdx)
		return nm
	})
	if m1 == nil {
		return fmt.Errorf("shard: move %d: owner changed or commit refused (was %s)", shardIdx, srcName)
	}
	if err := c.installOn(m1, destName); err != nil {
		c.abortMove(shardIdx, destName, srcName, "dest install failed: %v", err)
		return fmt.Errorf("shard: move %d: dest install: %w", shardIdx, err)
	}
	if err := c.installOn(m1, srcName); err != nil {
		c.abortMove(shardIdx, destName, srcName, "source install failed: %v", err)
		return fmt.Errorf("shard: move %d: source install: %w", shardIdx, err)
	}
	c.installRest(m1, destName, srcName)
	c.cfg.Journal.Record(obs.EvMovePrepare, srcName, shardIdx,
		"dual-ownership map v%d installed, moving to %s", m1.Version, destName)

	return c.driveMove(shardIdx, srcName, destName, m1, timeout)
}

// ResumeMove re-drives an in-flight move recorded in the replicated log
// after a leadership change: a follower that wins the lease either
// finishes the move (re-attaching a fresh sink and re-running catch-up —
// idempotent, the stream is content-addressed by LBA) or rolls its
// window back. phase is the replicated move phase: MovePrepared (the
// dual-ownership window was committed but no cutover) or MoveCutover
// (the destination is already authoritative; only reconcile + drain
// bookkeeping remain). The committed map is re-installed first — servers
// already holding it answer StatusStaleEpoch, which installMap treats
// as success, so resume is idempotent against whatever the dead leader
// managed to push.
func (c *Coordinator) ResumeMove(shardIdx int, destName string, phase MovePhase, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	c.moveMu.Lock()
	defer c.moveMu.Unlock()
	if c.stopped() {
		return fmt.Errorf("shard: resume %d: coordinator stopped", shardIdx)
	}

	m := c.Map()
	if shardIdx < 0 || shardIdx >= len(m.Assign) {
		return fmt.Errorf("shard: resume %d: out of range [0,%d)", shardIdx, len(m.Assign))
	}
	destIdx := m.NodeIndex(destName)
	if destIdx < 0 {
		return fmt.Errorf("shard: resume %d: unknown destination %q", shardIdx, destName)
	}
	c.cfg.Journal.Record(obs.EvMoveResume, destName, shardIdx,
		"resuming move at phase %d (map v%d)", phase, m.Version)

	// Cutover already committed: the destination owns the shard; the old
	// leader just never finished reconciling/draining. Converge installs
	// and mark the move done.
	if phase == MoveCutover || int(m.Assign[shardIdx]) == destIdx {
		c.installAllOf(m)
		if err := c.commit(EditRecord{Kind: EditMoveDone, Shard: shardIdx, Dest: destName,
			Detail: "resumed post-cutover: installs reconciled"}); err != nil {
			return fmt.Errorf("shard: resume %d: done commit: %w", shardIdx, err)
		}
		c.cfg.Journal.Record(obs.EvMoveDone, destName, shardIdx,
			"resumed move finished post-cutover (map v%d)", m.Version)
		return nil
	}

	// The committed map no longer shows the window (a rollback or
	// reassignment won the race): clear the stale move record and stop.
	if int(m.Migrating[shardIdx]) != destIdx {
		if err := c.commit(EditRecord{Kind: EditMoveDone, Shard: shardIdx, Dest: destName,
			Detail: "stale move record: window not in committed map"}); err != nil {
			return fmt.Errorf("shard: resume %d: stale-record commit: %w", shardIdx, err)
		}
		return nil
	}

	srcIdx := int(m.Assign[shardIdx])
	if srcIdx < 0 || srcIdx >= len(m.Nodes) {
		return fmt.Errorf("shard: resume %d: no live owner", shardIdx)
	}
	srcName := m.Nodes[srcIdx].Name

	// Re-install the committed dual-ownership map (idempotent) before
	// re-driving phases 2-4 with a fresh sink.
	if err := c.installOn(m, destName); err != nil {
		c.abortMove(shardIdx, destName, srcName, "resume dest install failed: %v", err)
		return fmt.Errorf("shard: resume %d: dest install: %w", shardIdx, err)
	}
	if err := c.installOn(m, srcName); err != nil {
		c.abortMove(shardIdx, destName, srcName, "resume source install failed: %v", err)
		return fmt.Errorf("shard: resume %d: source install: %w", shardIdx, err)
	}
	c.installRest(m, destName, srcName)
	return c.driveMove(shardIdx, srcName, destName, m, timeout)
}

// driveMove runs phases 2-4 of a move whose dual-ownership map m1 is
// committed and installed: sink catch-up, cutover, drain. Callers hold
// moveMu.
func (c *Coordinator) driveMove(shardIdx int, srcName, destName string, m1 *Map, timeout time.Duration) error {
	destIdx := m1.NodeIndex(destName)
	srcIdx := m1.NodeIndex(srcName)
	if destIdx < 0 || srcIdx < 0 {
		return fmt.Errorf("shard: move %d: nodes %q/%q not in map", shardIdx, srcName, destName)
	}
	firstLBA := uint32(shardIdx) * m1.ShardBlocks

	// Phase 2: attach the sink and wait for the catch-up marker.
	srcAddr, err := c.primaryAddr(m1, srcIdx)
	if err != nil {
		c.abortMove(shardIdx, destName, srcName, "no answering source primary: %v", err)
		return err
	}
	sink, err := c.startSink(srcAddr, m1.Nodes[destIdx].Addrs, firstLBA, m1.ShardBlocks)
	if err != nil {
		c.abortMove(shardIdx, destName, srcName, "sink attach failed: %v", err)
		return fmt.Errorf("shard: move %d: sink: %w", shardIdx, err)
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case <-sink.caught:
	case err := <-sink.errCh:
		sink.close()
		c.abortMove(shardIdx, destName, srcName, "catch-up failed: %v", err)
		return fmt.Errorf("shard: move %d: catch-up: %w", shardIdx, err)
	case <-deadline.C:
		sink.close()
		c.abortMove(shardIdx, destName, srcName, "catch-up timed out after %v", timeout)
		return fmt.Errorf("shard: move %d: catch-up timed out after %v", shardIdx, timeout)
	case <-c.stopCh:
		sink.close()
		c.abortMove(shardIdx, destName, srcName, "coordinator stopped mid-catch-up")
		return fmt.Errorf("shard: move %d: coordinator stopped mid-catch-up", shardIdx)
	}
	c.logf("shard: move %d %s->%s: caught up (%d writes relayed), cutting over",
		shardIdx, srcName, destName, sink.applied.Load())
	c.cfg.Journal.Record(obs.EvMoveCatchup, srcName, shardIdx,
		"catch-up complete, %d writes relayed so far", sink.applied.Load())

	// The sink can fail AFTER signalling caught-up — a live forward relayed
	// to the destination may be refused there (the sink acks the source
	// non-OK and dies). Re-check immediately before making the destination
	// authoritative: cutting over now would install an owner that is
	// missing a write. With forwardWrite propagating the non-OK ack, that
	// write was never acked StatusOK to the client — so rolling back here
	// keeps the zero-lost-acked-writes invariant airtight: either the
	// write is on both nodes (sink healthy, cutover proceeds) or the
	// client saw the failure and the source stays authoritative.
	select {
	case err := <-sink.errCh:
		sink.close()
		c.abortMove(shardIdx, destName, srcName, "sink failed before cutover: %v", err)
		return fmt.Errorf("shard: move %d: sink failed before cutover: %w", shardIdx, err)
	default:
	}

	// Phase 3: cutover, destination first; the source install fences the
	// range off the old owner (StatusWrongShard redirects from here on).
	// A refused commit here means we were deposed between catch-up and
	// cutover: the source stays authoritative in the committed map, the
	// new leader resumes or rolls back, and nothing was lost (the window
	// map is still what every server holds).
	cutRec := EditRecord{Kind: EditMoveCutover, Shard: shardIdx, Src: srcName, Dest: destName,
		Detail: "destination authoritative"}
	m2 := c.edit(cutRec, func(cur *Map) *Map {
		nm := cur.Clone()
		nm.Assign[shardIdx] = int32(destIdx)
		nm.Migrating[shardIdx] = Unassigned
		return nm
	})
	if m2 == nil {
		sink.close()
		c.cfg.Journal.Record(obs.EvMoveAbort, srcName, shardIdx,
			"cutover commit refused (deposed?); leaving window to the next leader")
		return fmt.Errorf("shard: move %d: cutover commit refused", shardIdx)
	}
	if err := c.installOn(m2, destName); err != nil {
		sink.close()
		return fmt.Errorf("shard: move %d: cutover dest install: %w", shardIdx, err)
	}
	if err := c.installOn(m2, srcName); err != nil {
		sink.close()
		return fmt.Errorf("shard: move %d: cutover source install: %w", shardIdx, err)
	}
	c.installRest(m2, destName, srcName)
	c.cfg.Journal.Record(obs.EvMoveCutover, destName, shardIdx,
		"cutover map v%d installed, %s now authoritative", m2.Version, destName)

	// Phase 4: drain writes admitted at the source before its cutover
	// install; they still forward to the attached sink.
	if err := c.drainSource(srcAddr, timeout); err != nil {
		sink.close()
		c.cfg.Journal.Record(obs.EvMoveAbort, srcName, shardIdx, "drain failed: %v", err)
		return fmt.Errorf("shard: move %d: %w", shardIdx, err)
	}
	c.cfg.Journal.Record(obs.EvMoveDrain, srcName, shardIdx, "source drained (pending quiesced)")
	sink.close()
	select {
	case err := <-sink.errCh:
		return fmt.Errorf("shard: move %d: sink failed during drain: %w", shardIdx, err)
	default:
	}
	if err := c.commit(EditRecord{Kind: EditMoveDone, Shard: shardIdx, Src: srcName, Dest: destName,
		Detail: "move complete"}); err != nil {
		// The data move is finished and safe (cutover committed earlier);
		// only the in-flight-move bookkeeping failed to clear. The next
		// leader sees phase=cutover and re-runs the trivial finish path.
		return fmt.Errorf("shard: move %d: done commit: %w", shardIdx, err)
	}
	c.logf("shard: move %d %s->%s: done (map v%d, %d writes relayed)",
		shardIdx, srcName, destName, m2.Version, sink.applied.Load())
	c.cfg.Journal.Record(obs.EvMoveDone, destName, shardIdx,
		"move %s->%s done (map v%d, %d writes relayed)", srcName, destName, m2.Version, sink.applied.Load())
	return nil
}

// abortMove rolls back a failed move's dual-ownership window and records
// the abort in the journal.
func (c *Coordinator) abortMove(shardIdx int, destName, srcName, format string, args ...any) {
	c.cfg.Journal.Record(obs.EvMoveAbort, srcName, shardIdx, format, args...)
	c.rollbackMigrating(shardIdx, destName, srcName)
}

// rollbackMigrating clears a failed move's dual-ownership window with a
// fresh map version. A refused commit (this coordinator was deposed)
// leaves the window to the new leader, which resumes or rolls it back
// from the replicated log — a deposed leader installing its own
// rollback would be minting a map version it no longer owns.
func (c *Coordinator) rollbackMigrating(shardIdx int, destName, srcName string) {
	rec := EditRecord{Kind: EditMoveRollback, Shard: shardIdx, Src: srcName, Dest: destName,
		Detail: "dual-ownership window rolled back"}
	nm := c.edit(rec, func(cur *Map) *Map {
		n := cur.Clone()
		n.Migrating[shardIdx] = Unassigned
		return n
	})
	if nm == nil {
		c.logf("shard: move %d: rollback commit refused; deferring to the next leader", shardIdx)
		return
	}
	c.installOn(nm, srcName)
	c.installOn(nm, destName)
	c.installRest(nm, destName, srcName)
}

// MovePhase is the replicated control plane's record of how far an
// in-flight MoveShard got before its leader died (ResumeMove input).
type MovePhase uint8

const (
	// MovePrepared: the dual-ownership window was committed; catch-up
	// and cutover still pending. Resume re-drives the whole move.
	MovePrepared MovePhase = 1
	// MoveCutover: the cutover map was committed; the destination is
	// authoritative and only install reconciliation remains.
	MoveCutover MovePhase = 2
)

// installAllOf pushes m to every non-dead node (best-effort).
func (c *Coordinator) installAllOf(m *Map) {
	for _, n := range m.Nodes {
		if n.State == StateDead {
			continue
		}
		c.installOn(m, n.Name)
	}
}

// installRest pushes m to every node except the two named (best-effort;
// stale nodes redirect their clients into a refetch anyway).
func (c *Coordinator) installRest(m *Map, a, b string) {
	for _, n := range m.Nodes {
		if n.Name == a || n.Name == b || n.State == StateDead {
			continue
		}
		c.installOn(m, n.Name)
	}
}

// primaryAddr probes a node's addresses and returns the one serving as
// unfenced primary.
func (c *Coordinator) primaryAddr(m *Map, idx int) (string, error) {
	for _, addr := range m.Nodes[idx].Addrs {
		r := probe(c.cfg.Dialer, addr, c.cfg.InstallTimeout)
		if r.err == nil && r.role&(protocol.RoleBackupBit|protocol.RoleFencedBit) == 0 {
			return addr, nil
		}
	}
	return "", fmt.Errorf("shard: node %s has no answering primary", m.Nodes[idx].Name)
}

// drainSource polls the source's migration-pending count (OpPing
// response LBA) until it stays zero for settleRounds consecutive polls.
func (c *Coordinator) drainSource(srcAddr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	zeros := 0
	for zeros < settleRounds {
		if c.stopped() {
			// The cutover is committed and installed — the move is decided;
			// stopping here only skips the courtesy drain wait. Pending
			// source forwards still flow to the attached sink until the
			// caller closes it.
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("drain timed out after %v", timeout)
		}
		r := probe(c.cfg.Dialer, srcAddr, c.cfg.InstallTimeout)
		if r.err != nil {
			// The source died mid-drain; its pending forwards degrade to
			// standalone acks on teardown and the pair's backup (which saw
			// every one of those writes over its own session) takes over.
			return nil
		}
		if r.pending == 0 {
			zeros++
		} else {
			zeros = 0
		}
		time.Sleep(settleEvery)
	}
	return nil
}

// migrationSink is the coordinator-side receiver of one shard's
// migration stream: it relays every OpReplicate frame to the
// destination as an ordinary write (authorized by the dual-ownership
// map) and acks the source only after the destination acked — the
// deferred-ack chain that makes migration lossless.
type migrationSink struct {
	c      *Coordinator
	src    net.Conn
	dst    *client.Client
	handle uint16

	caught  chan struct{}
	errCh   chan error // buffered; first terminal error wins
	applied atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	caughtOn sync.Once
}

// startSink dials the source, performs the ranged join handshake, and
// starts the relay loop.
func (c *Coordinator) startSink(srcAddr string, destAddrs []string, firstLBA, blockCount uint32) (*migrationSink, error) {
	dst, err := client.DialCluster(destAddrs, client.Options{Timeout: c.cfg.InstallTimeout})
	if err != nil {
		return nil, fmt.Errorf("dial destination: %w", err)
	}
	handle, err := dst.Register(protocol.Registration{BestEffort: true, Writable: true})
	if err != nil {
		dst.Close()
		return nil, fmt.Errorf("register at destination: %w", err)
	}

	src, err := c.cfg.dial(srcAddr, c.cfg.InstallTimeout)
	if err != nil {
		dst.Close()
		return nil, fmt.Errorf("dial source: %w", err)
	}
	join := protocol.Header{Opcode: protocol.OpJoin, LBA: firstLBA, Count: blockCount}
	frame, _ := protocol.AppendMessage(nil, &join, nil)
	if _, err := src.Write(frame); err != nil {
		src.Close()
		dst.Close()
		return nil, fmt.Errorf("ranged join: %w", err)
	}
	s := &migrationSink{
		c:      c,
		src:    src,
		dst:    dst,
		handle: handle,
		caught: make(chan struct{}),
		errCh:  make(chan error, 1),
		stop:   make(chan struct{}),
	}
	go s.loop()
	return s, nil
}

func (s *migrationSink) close() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.src.Close()
		s.dst.Close()
	})
}

func (s *migrationSink) fail(err error) {
	select {
	case s.errCh <- err:
	default:
	}
}

func (s *migrationSink) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// loop reads the join channel: the handshake response, catch-up chunks
// and live forwards (OpReplicate requests, relayed then acked), and the
// catch-up marker (non-response OpJoin; a non-OK one fails the move).
func (s *migrationSink) loop() {
	br := bufio.NewReaderSize(s.src, 256<<10)
	var msg protocol.Message
	var ackBuf []byte
	first := true
	for {
		if err := protocol.ReadMessageInto(br, &msg, nil); err != nil {
			if !s.stopped() {
				s.fail(err)
			}
			return
		}
		hdr := msg.Header
		switch {
		case first && hdr.Opcode == protocol.OpJoin && hdr.IsResponse():
			if hdr.Status != protocol.StatusOK {
				s.fail(fmt.Errorf("join refused: %s", hdr.Status))
				return
			}
			first = false
		case hdr.Opcode == protocol.OpJoin && !hdr.IsResponse():
			// Catch-up marker: StatusOK means every block of the window is
			// across; anything else is the source aborting (backend read
			// error, refused chunk) with blocks still missing.
			if hdr.Status != protocol.StatusOK {
				s.fail(fmt.Errorf("catch-up aborted by source: %s", hdr.Status))
				return
			}
			s.caughtOn.Do(func() { close(s.caught) })
		case hdr.Opcode == protocol.OpReplicate && !hdr.IsResponse():
			// A traced forward parents the destination's serve span to a
			// fresh relay span here, keeping the hop visible: client ->
			// source serve -> sink relay -> destination serve.
			var relayID uint64
			relayStart := time.Now().UnixNano()
			if msg.TraceID != 0 {
				relayID = s.c.spanID()
			}
			st := s.apply(hdr.LBA, msg.Payload, msg.TraceID, relayID)
			if msg.TraceID != 0 {
				sp := obs.Span{
					ID:     relayID,
					Trace:  msg.TraceID,
					Parent: msg.ParentSpan,
					Node:   "coord",
					Hop:    obs.HopRelay,
					Write:  true,
					Size:   len(msg.Payload),
				}
				sp.Mark(obs.StageArrival, relayStart)
				sp.Mark(obs.StageTx, time.Now().UnixNano())
				s.c.cfg.TraceRing.Push(sp)
			}
			ack := protocol.Header{
				Opcode: protocol.OpReplicate,
				Flags:  protocol.FlagResponse,
				Cookie: hdr.Cookie,
				Epoch:  hdr.Epoch,
				LBA:    hdr.LBA,
				Status: st,
			}
			var err error
			ackBuf, err = protocol.AppendMessage(ackBuf[:0], &ack, nil)
			if err == nil {
				_, err = s.src.Write(ackBuf)
			}
			if err != nil {
				if !s.stopped() {
					s.fail(err)
				}
				return
			}
			if st != protocol.StatusOK {
				s.fail(fmt.Errorf("apply at destination failed: %s", st))
				return
			}
			s.applied.Add(1)
		default:
			// Tolerate anything else (keep-alives, stray responses).
		}
	}
}

// apply writes one relayed frame at the destination, retrying transient
// refusals (shed, timeout) — the destination is a live server taking
// client traffic of its own. A non-zero trace relays the originating
// request's trace context, with the sink's relay span as parent.
func (s *migrationSink) apply(lba uint32, payload []byte, trace, relayID uint64) protocol.Status {
	if len(payload) == 0 {
		return protocol.StatusBadRequest
	}
	var err error
	for attempt := 0; attempt < applyRetries; attempt++ {
		if trace != 0 {
			err = s.dst.WriteTraced(s.handle, lba, payload, trace, relayID)
		} else {
			err = s.dst.Write(s.handle, lba, payload)
		}
		if err == nil {
			return protocol.StatusOK
		}
		switch err {
		case client.ErrOverloaded, client.ErrTimeout:
			time.Sleep(time.Duration(attempt+1) * 5 * time.Millisecond)
			continue
		}
		break
	}
	return protocol.StatusDeviceError
}
