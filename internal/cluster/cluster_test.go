package cluster

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/storage"
)

// fakeSender records everything the replicator sends to the "backup".
type fakeSender struct {
	mu   sync.Mutex
	hdrs []protocol.Header
	data [][]byte
}

func (f *fakeSender) SendToReplica(hdr *protocol.Header, payload []byte, lease *bufpool.Buf) {
	bufpool.ReleaseIf(lease)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hdrs = append(f.hdrs, *hdr)
	f.data = append(f.data, append([]byte(nil), payload...))
}

func (f *fakeSender) sent() []protocol.Header {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]protocol.Header(nil), f.hdrs...)
}

func newTestReplicator(backend storage.Backend) (*Replicator, *uint16) {
	var staleSeen uint16
	r := NewReplicator(ReplicatorConfig{
		Backend:    backend,
		Epoch:      func() uint16 { return 3 },
		OnStale:    func(e uint16) { staleSeen = e },
		ChunkBytes: 1024,
	})
	return r, &staleSeen
}

func TestNilReplicatorSafe(t *testing.T) {
	var r *Replicator
	if r.Forward(0, []byte{1}, nil, 0, 0, nil) {
		t.Fatal("nil replicator forwarded")
	}
	if r.Live() || r.CaughtUp() {
		t.Fatal("nil replicator live")
	}
	r.HandleAck(&protocol.Header{})
	r.Detach(r.Attach(nil), protocol.StatusOK)
	if r.Forwarded() != 0 || r.Acked() != 0 {
		t.Fatal("nil replicator counted")
	}
}

func TestForwardWithoutBackupDegrades(t *testing.T) {
	r, _ := newTestReplicator(nil)
	if r.Forward(1, []byte{1}, nil, 0, 0, func(protocol.Status) { t.Fatal("done called") }) {
		t.Fatal("Forward reported true with no session")
	}
}

func TestForwardAckCompletesOnce(t *testing.T) {
	fs := &fakeSender{}
	r, _ := newTestReplicator(nil)
	tok := r.Attach(fs)
	defer r.Detach(tok, protocol.StatusOK)
	if !r.Live() {
		t.Fatal("not live after attach")
	}

	got := make(chan protocol.Status, 2)
	if !r.Forward(7, []byte{0xAB}, nil, 0, 0, func(st protocol.Status) { got <- st }) {
		t.Fatal("Forward refused with live session")
	}
	sent := fs.sent()
	if len(sent) != 1 || sent[0].Opcode != protocol.OpReplicate ||
		sent[0].LBA != 7 || sent[0].Epoch != 3 {
		t.Fatalf("bad forward header: %+v", sent)
	}

	ack := sent[0]
	ack.Flags = protocol.FlagResponse
	ack.Status = protocol.StatusOK
	r.HandleAck(&ack)
	select {
	case st := <-got:
		if st != protocol.StatusOK {
			t.Fatalf("ack status %v", st)
		}
	case <-time.After(time.Second):
		t.Fatal("done never called")
	}
	r.HandleAck(&ack) // duplicate ack must be ignored
	select {
	case <-got:
		t.Fatal("done called twice")
	case <-time.After(20 * time.Millisecond):
	}
	if r.Forwarded() != 1 || r.Acked() != 1 {
		t.Fatalf("counters %d/%d, want 1/1", r.Forwarded(), r.Acked())
	}
}

// TestRangedForwardClipsToWindow covers the straddling-write case: a
// ranged session (migration sink) must receive ONLY in-window blocks —
// the destination owns exactly the window and refuses any frame that
// reaches past it with StatusWrongShard, which would kill the sink and
// abort the move.
func TestRangedForwardClipsToWindow(t *testing.T) {
	const bs = protocol.BlockSize
	mk := func(blocks int, first byte) []byte {
		b := make([]byte, blocks*bs)
		for i := range b {
			b[i] = first + byte(i/bs)
		}
		return b
	}
	fs := &fakeSender{}
	r, _ := newTestReplicator(nil)
	// Window: blocks [100, 110).
	tok := r.AttachRange(fs, 100, 10)
	defer r.Detach(tok, protocol.StatusOK)

	cases := []struct {
		lba       uint32
		blocks    int
		wantLBA   uint32
		wantBlk   int
		wantFirst byte // expected first payload byte (block tag)
		forwarded bool
	}{
		{lba: 96, blocks: 2, forwarded: false},                                        // entirely below
		{lba: 110, blocks: 3, forwarded: false},                                       // entirely above
		{lba: 98, blocks: 4, wantLBA: 100, wantBlk: 2, wantFirst: 2, forwarded: true}, // straddles the low edge
		{lba: 108, blocks: 4, wantLBA: 108, wantBlk: 2, wantFirst: 0, forwarded: true},
		{lba: 99, blocks: 12, wantLBA: 100, wantBlk: 10, wantFirst: 1, forwarded: true}, // spans the whole window
		{lba: 103, blocks: 2, wantLBA: 103, wantBlk: 2, wantFirst: 0, forwarded: true},  // fully inside, untouched
	}
	// The (empty) catch-up's marker is the first frame; let it land so the
	// counts below see forwards only.
	eventually(t, "the catch-up marker", func() bool { return len(fs.sent()) == 1 })
	sentBefore := 1
	for i, tc := range cases {
		fwd := r.Forward(tc.lba, mk(tc.blocks, 0), nil, 0, 0, func(protocol.Status) {})
		if fwd != tc.forwarded {
			t.Fatalf("case %d: forwarded = %v, want %v", i, fwd, tc.forwarded)
		}
		sent := fs.sent()
		if !tc.forwarded {
			if len(sent) != sentBefore {
				t.Fatalf("case %d: out-of-window write reached the sink: %+v", i, sent[len(sent)-1])
			}
			continue
		}
		sentBefore++
		h := sent[len(sent)-1]
		if h.LBA != tc.wantLBA || int(h.Count) != tc.wantBlk*bs {
			t.Fatalf("case %d: relayed [lba %d, %d bytes], want [lba %d, %d bytes]",
				i, h.LBA, h.Count, tc.wantLBA, tc.wantBlk*bs)
		}
		fs.mu.Lock()
		data := fs.data[len(fs.data)-1]
		fs.mu.Unlock()
		if len(data) != tc.wantBlk*bs || data[0] != tc.wantFirst {
			t.Fatalf("case %d: payload len %d first %d, want len %d first %d",
				i, len(data), data[0], tc.wantBlk*bs, tc.wantFirst)
		}
	}
}

func TestStaleAckDeposesAndFailsPending(t *testing.T) {
	fs := &fakeSender{}
	r, stale := newTestReplicator(nil)
	r.Attach(fs)

	st1 := make(chan protocol.Status, 1)
	st2 := make(chan protocol.Status, 1)
	r.Forward(1, []byte{1}, nil, 0, 0, func(s protocol.Status) { st1 <- s })
	r.Forward(2, []byte{2}, nil, 0, 0, func(s protocol.Status) { st2 <- s })

	// Backup acks the first forward with StaleEpoch at a higher epoch.
	ack := fs.sent()[0]
	ack.Flags = protocol.FlagResponse
	ack.Status = protocol.StatusStaleEpoch
	ack.Epoch = 9
	r.HandleAck(&ack)

	if got := <-st1; got != protocol.StatusStaleEpoch {
		t.Fatalf("first forward status %v", got)
	}
	// The whole session closes stale: the second pending forward fails
	// the same way rather than hanging.
	select {
	case got := <-st2:
		if got != protocol.StatusStaleEpoch {
			t.Fatalf("second forward status %v", got)
		}
	case <-time.After(time.Second):
		t.Fatal("second pending forward hung after deposition")
	}
	if *stale != 9 {
		t.Fatalf("OnStale saw epoch %d, want 9", *stale)
	}
	if r.Live() {
		t.Fatal("session still live after deposition")
	}
	// Post-deposition forwards degrade to standalone.
	if r.Forward(3, []byte{3}, nil, 0, 0, nil) {
		t.Fatal("forwarded after deposition")
	}
}

func TestDetachDegradesPendingToStandaloneAck(t *testing.T) {
	fs := &fakeSender{}
	r, _ := newTestReplicator(nil)
	tok := r.Attach(fs)

	got := make(chan protocol.Status, 1)
	r.Forward(1, []byte{1}, nil, 0, 0, func(s protocol.Status) { got <- s })
	r.Detach(tok, protocol.StatusOK)
	if st := <-got; st != protocol.StatusOK {
		t.Fatalf("detach completed pending with %v, want OK (degraded ack)", st)
	}
	if r.Live() {
		t.Fatal("live after detach")
	}
	// Stale token: a second detach must be a no-op.
	r.Detach(tok, protocol.StatusStaleEpoch)
}

func TestAttachSupersedesOldSession(t *testing.T) {
	fs1, fs2 := &fakeSender{}, &fakeSender{}
	r, _ := newTestReplicator(nil)
	tok1 := r.Attach(fs1)
	got := make(chan protocol.Status, 1)
	r.Forward(1, []byte{1}, nil, 0, 0, func(s protocol.Status) { got <- s })

	tok2 := r.Attach(fs2)
	// Old session's pending forward degrades, not hangs.
	if st := <-got; st != protocol.StatusOK {
		t.Fatalf("superseded pending status %v", st)
	}
	// Detaching the stale token must not kill the new session.
	r.Detach(tok1, protocol.StatusOK)
	if !r.Live() {
		t.Fatal("new session killed by stale detach")
	}
	r.Detach(tok2, protocol.StatusOK)
}

// TestCatchupStreamsWholeDeviceSelfPaced drives the catch-up stream with a
// fake sender that acks each chunk, and verifies full coverage in order.
func TestCatchupStreamsWholeDeviceSelfPaced(t *testing.T) {
	const size = 4096 // 4 chunks of 1024
	backend := storage.NewMem(size)
	pattern := make([]byte, size)
	for i := range pattern {
		pattern[i] = byte(i % 251)
	}
	if _, err := backend.WriteAt(pattern, 0); err != nil {
		t.Fatal(err)
	}

	r, _ := newTestReplicator(backend)
	rebuilt := make([]byte, size)
	acker := &ackingSender{r: r, rebuilt: rebuilt}
	r.Attach(acker)

	deadline := time.Now().Add(5 * time.Second)
	for !r.CaughtUp() {
		if time.Now().After(deadline) {
			t.Fatal("catch-up never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	acker.mu.Lock()
	defer acker.mu.Unlock()
	for i := range pattern {
		if rebuilt[i] != pattern[i] {
			t.Fatalf("catch-up byte %d = %d, want %d", i, rebuilt[i], pattern[i])
		}
	}
	if acker.chunks != 4 {
		t.Fatalf("catch-up used %d chunks, want 4", acker.chunks)
	}
}

// ackingSender plays the backup role for catch-up: applies each chunk to
// the rebuilt image and acks it (asynchronously, as the real ack path is).
type ackingSender struct {
	r       *Replicator
	mu      sync.Mutex
	rebuilt []byte
	chunks  int
}

func (a *ackingSender) SendToReplica(hdr *protocol.Header, payload []byte, lease *bufpool.Buf) {
	bufpool.ReleaseIf(lease)
	a.mu.Lock()
	off := int64(hdr.LBA) * protocol.BlockSize
	copy(a.rebuilt[off:], payload)
	a.chunks++
	a.mu.Unlock()
	ack := *hdr
	ack.Flags = protocol.FlagResponse
	ack.Status = protocol.StatusOK
	go a.r.HandleAck(&ack)
}

// applierStub implements Applier over a byte slice for Backup loop tests.
type applierStub struct {
	mu      sync.Mutex
	data    []byte
	epoch   uint16
	backup  bool
	applied int
}

func (a *applierStub) ApplyReplicate(lba uint32, payload []byte, epoch uint16) protocol.Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.backup {
		return protocol.StatusStaleEpoch
	}
	if epoch < a.epoch {
		return protocol.StatusStaleEpoch
	}
	if epoch > a.epoch {
		a.epoch = epoch
	}
	off := int64(lba) * protocol.BlockSize
	if off+int64(len(payload)) > int64(len(a.data)) {
		return protocol.StatusBadRequest
	}
	copy(a.data[off:], payload)
	a.applied++
	return protocol.StatusOK
}
func (a *applierStub) AdoptEpoch(e uint16) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e > a.epoch {
		a.epoch = e
	}
}
func (a *applierStub) ClusterEpoch() uint16 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}
func (a *applierStub) IsBackupRole() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.backup
}

// TestBackupJoinAppliesStream runs a real Backup loop against a fake
// primary listener speaking the join + replicate protocol.
func TestBackupJoinAppliesStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	app := &applierStub{data: make([]byte, 4096), epoch: 1, backup: true}
	serve := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			serve <- err
			return
		}
		defer c.Close()
		// Expect OpJoin; answer OK at epoch 5.
		m, err := protocol.ReadMessage(c)
		if err != nil || m.Header.Opcode != protocol.OpJoin {
			serve <- err
			return
		}
		rsp := protocol.Header{Opcode: protocol.OpJoin, Flags: protocol.FlagResponse, Epoch: 5}
		if err := protocol.WriteMessage(c, &rsp, nil); err != nil {
			serve <- err
			return
		}
		// Push one replicated write, read the ack.
		rep := protocol.Header{Opcode: protocol.OpReplicate, Epoch: 5, Cookie: 77, LBA: 2, Count: protocol.BlockSize}
		payload := make([]byte, protocol.BlockSize)
		payload[0] = 0xEE
		if err := protocol.WriteMessage(c, &rep, payload); err != nil {
			serve <- err
			return
		}
		ack, err := protocol.ReadMessage(c)
		if err != nil {
			serve <- err
			return
		}
		if ack.Header.Cookie != 77 || ack.Header.Status != protocol.StatusOK ||
			!ack.Header.IsResponse() {
			t.Errorf("bad ack: %+v", ack.Header)
		}
		serve <- nil
	}()

	bk := StartBackup(ln.Addr().String(), app, BackupOptions{})
	defer bk.Stop()
	if err := <-serve; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for bk.Applied() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("backup never applied the replicated write")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if app.ClusterEpoch() != 5 {
		t.Fatalf("backup epoch %d after join, want 5 (adopted)", app.ClusterEpoch())
	}
	if app.data[2*protocol.BlockSize] != 0xEE {
		t.Fatal("replicated write not applied at the right offset")
	}
	if bk.Joins() != 1 {
		t.Fatalf("joins %d, want 1", bk.Joins())
	}
}

// TestBackupStopsWhenPromoted: flipping the role off ends the join loop.
func TestBackupStopsWhenPromoted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			m, err := protocol.ReadMessage(c)
			if err == nil && m.Header.Opcode == protocol.OpJoin {
				rsp := protocol.Header{Opcode: protocol.OpJoin, Flags: protocol.FlagResponse, Epoch: 1}
				protocol.WriteMessage(c, &rsp, nil)
			}
			c.Close() // drop the session; backup will retry while still backup
		}
	}()

	app := &applierStub{data: make([]byte, 512), epoch: 1, backup: true}
	bk := StartBackup(ln.Addr().String(), app, BackupOptions{RetryBase: 5 * time.Millisecond})
	time.Sleep(30 * time.Millisecond)
	app.mu.Lock()
	app.backup = false // promotion
	app.mu.Unlock()
	done := make(chan struct{})
	go func() { bk.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("backup loop did not stop after promotion")
	}
}
