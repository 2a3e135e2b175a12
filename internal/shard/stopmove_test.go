package shard

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
)

// destEndpoint is a minimal real-TCP server speaking just enough client
// protocol for the migration sink's destination leg (client.DialCluster
// bypasses the coordinator's dial seam): cluster handshake (OpPing as an
// unfenced primary), registration, and OK acks for everything else.
func destEndpoint(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				var wmu sync.Mutex
				for {
					m, err := protocol.ReadMessage(br)
					if err != nil {
						return
					}
					h := protocol.Header{
						Opcode: m.Header.Opcode,
						Flags:  protocol.FlagResponse,
						Cookie: m.Header.Cookie,
						Handle: 1,
						Epoch:  1,
					}
					if m.Header.Opcode == protocol.OpPing {
						h.Count = 0 // primary, unfenced
					}
					wmu.Lock()
					protocol.WriteMessage(c, &h, nil)
					wmu.Unlock()
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestCoordinatorStopAbortsInFlightMove parks a MoveShard in its
// catch-up phase (the fake source accepts the ranged join but never
// streams) and stops the coordinator: Stop must return only after the
// move unwound, and the dual-ownership window must be rolled back — no
// Migrating entry survives a stop.
func TestCoordinatorStopAbortsInFlightMove(t *testing.T) {
	fc := newFakeCluster()
	src := fc.add("s:1")
	destAddr := destEndpoint(t)
	// The destination's control-plane traffic (installs, probes) rides the
	// dial seam like everyone else; only the sink's data leg hits the real
	// listener address.
	fc.add(destAddr)

	c, err := NewCoordinator(CoordinatorConfig{
		Nodes: []Node{
			{Name: "nsrc", Addrs: []string{"s:1"}},
			{Name: "ndst", Addrs: []string{destAddr}},
		},
		NumShards:      4,
		ShardBlocks:    64,
		InstallTimeout: 2 * time.Second,
		Dialer:         fc.dial,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallAll(); err != nil {
		t.Fatal(err)
	}
	m := c.Map()
	moveShard := -1
	for s := range m.Assign {
		if m.Nodes[m.Assign[s]].Name == "nsrc" {
			moveShard = s
			break
		}
	}
	if moveShard < 0 {
		t.Skip("nsrc owns nothing (improbable)")
	}

	moveErr := make(chan error, 1)
	go func() { moveErr <- c.MoveShard(moveShard, "ndst", 30*time.Second) }()

	// Wait until the sink is attached (the source answered the ranged
	// join) — the move is now parked in phase 2.
	deadline := time.Now().Add(5 * time.Second)
	for {
		src.mu.Lock()
		joined := src.joins > 0
		src.mu.Unlock()
		if joined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sink never attached")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Stop blocks until the move goroutine has fully unwound (moveMu).
	stopDone := make(chan struct{})
	go func() { c.Stop(); close(stopDone) }()
	select {
	case <-stopDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return: in-flight move not aborted")
	}
	var err2 error
	select {
	case err2 = <-moveErr:
	case <-time.After(time.Second):
		t.Fatal("MoveShard still running after Stop returned")
	}
	if err2 == nil || !strings.Contains(err2.Error(), "stopped") {
		t.Fatalf("aborted move error = %v, want coordinator-stopped", err2)
	}

	// The window was rolled back at a fresh version: prepare bumped to
	// v2, rollback to v3, Migrating cleared.
	final := c.Map()
	if final.Migrating[moveShard] != Unassigned {
		t.Fatalf("dual-ownership window survived Stop: Migrating[%d]=%d",
			moveShard, final.Migrating[moveShard])
	}
	if final.Version != 3 {
		t.Fatalf("map version after abort = %d, want 3 (prepare+rollback)", final.Version)
	}
	abortSeen := false
	for _, e := range c.Journal().Recent(64) {
		if e.Kind == obs.EvMoveAbort {
			abortSeen = true
		}
	}
	if !abortSeen {
		t.Fatal("abort not journaled")
	}

	// A post-Stop move is refused outright.
	if err := c.MoveShard(moveShard, "ndst", time.Second); err == nil ||
		!strings.Contains(err.Error(), "stopped") {
		t.Fatalf("post-Stop move = %v, want coordinator-stopped", err)
	}
}

func TestMembershipConfigValidation(t *testing.T) {
	bad := []MembershipConfig{
		{Interval: -time.Second},
		{Timeout: -time.Millisecond},
		{SuspectAfter: -1},
		{DeadAfter: -2},
		{SuspectAfter: 4, DeadAfter: 4}, // dead must exceed suspect
		{DeadAfter: 1},                  // effective SuspectAfter default is 1
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Fatalf("probe config %d accepted: %+v", i, cfg)
		}
	}
	good := []MembershipConfig{
		{}, // all defaults
		{Interval: time.Second, Timeout: 100 * time.Millisecond, SuspectAfter: 2, DeadAfter: 5},
		{DeadAfter: 2}, // above the defaulted SuspectAfter 1
	}
	for i, cfg := range good {
		if err := cfg.validate(); err != nil {
			t.Fatalf("probe config %d refused: %v", i, err)
		}
	}

	// The coordinator rejects bad probe tuning and a negative install
	// timeout up front — a broken detector would otherwise sit silent
	// until the first failure mattered.
	nodes := []Node{{Name: "x", Addrs: []string{"a:1"}}}
	if _, err := NewCoordinator(CoordinatorConfig{
		Nodes: nodes, NumShards: 4, ShardBlocks: 16,
		Probe: MembershipConfig{Interval: -time.Second},
	}); err == nil {
		t.Fatal("negative probe interval accepted")
	}
	if _, err := NewCoordinator(CoordinatorConfig{
		Nodes: nodes, NumShards: 4, ShardBlocks: 16,
		Probe: MembershipConfig{SuspectAfter: 3, DeadAfter: 2},
	}); err == nil {
		t.Fatal("DeadAfter <= SuspectAfter accepted")
	}
	if _, err := NewCoordinator(CoordinatorConfig{
		Nodes: nodes, NumShards: 4, ShardBlocks: 16,
		InstallTimeout: -time.Second,
	}); err == nil {
		t.Fatal("negative InstallTimeout accepted")
	}
}

// TestCommitHookFencesEdits: a refused commit aborts the edit — the map
// neither advances nor installs, the exact behaviour that fences a
// deposed control-plane leader.
func TestCommitHookFencesEdits(t *testing.T) {
	fc := newFakeCluster()
	fakes := map[string]*fakeNode{"a:1": fc.add("a:1"), "b:1": fc.add("b:1")}
	allow := true
	var mu sync.Mutex
	var committed []EditRecord
	c, err := NewCoordinator(CoordinatorConfig{
		Nodes: []Node{
			{Name: "na", Addrs: []string{"a:1"}},
			{Name: "nb", Addrs: []string{"b:1"}},
		},
		NumShards:      4,
		ShardBlocks:    64,
		InstallTimeout: time.Second,
		Dialer:         fc.dial,
		Commit: func(rec EditRecord) error {
			mu.Lock()
			defer mu.Unlock()
			if !allow {
				return errors.New("commit refused: not the leaseholder")
			}
			committed = append(committed, rec)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallAll(); err != nil {
		t.Fatal(err)
	}

	// Allowed: the edit commits, swaps and carries the new map.
	nm := c.edit(EditRecord{Kind: EditMovePrepare, Shard: 0, Src: "na", Dest: "nb"},
		func(cur *Map) *Map {
			n := cur.Clone()
			n.Migrating[0] = 1
			return n
		})
	if nm == nil || c.Map().Version != 2 {
		t.Fatalf("allowed edit did not apply (map v%d)", c.Map().Version)
	}
	mu.Lock()
	if len(committed) != 1 || committed[0].Kind != EditMovePrepare || committed[0].Map == nil ||
		committed[0].Map.Version != 2 {
		t.Fatalf("commit record wrong: %+v", committed)
	}
	allow = false
	mu.Unlock()

	// Refused: the map must not move, and nothing installs.
	before := c.Map().Version
	fakes["a:1"].mu.Lock()
	installsBefore := fakes["a:1"].installs
	fakes["a:1"].mu.Unlock()
	nm = c.edit(EditRecord{Kind: EditMoveRollback, Shard: 0, Src: "na", Dest: "nb"},
		func(cur *Map) *Map {
			n := cur.Clone()
			n.Migrating[0] = Unassigned
			return n
		})
	if nm != nil || c.Map().Version != before {
		t.Fatalf("refused edit applied anyway (map v%d)", c.Map().Version)
	}
	if err := c.installOn(c.Map(), "na"); err != nil {
		t.Fatal(err)
	}
	fakes["a:1"].mu.Lock()
	if fakes["a:1"].installs != installsBefore+1 {
		t.Fatalf("install bookkeeping broken")
	}
	if fakes["a:1"].installed.Version != before {
		t.Fatalf("node holds v%d after refused edit, want v%d",
			fakes["a:1"].installed.Version, before)
	}
	fakes["a:1"].mu.Unlock()
}

// TestSinkAbortMarkerFailsCatchup: a source that cannot finish the
// catch-up (backend read error, refused chunk) says so with a non-OK
// OpJoin marker. The sink must report that as a failed transfer and never
// signal caught — cutting over would make a destination with missing
// blocks authoritative.
func TestSinkAbortMarkerFailsCatchup(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		// Handshake, abort marker, then silence on an open connection: only
		// the marker can tell the sink the window is not across.
		defer c.Close()
		m, err := protocol.ReadMessage(c)
		if err != nil || m.Header.Opcode != protocol.OpJoin {
			return
		}
		echo := protocol.Header{Opcode: protocol.OpJoin, LBA: m.Header.LBA, Count: m.Header.Count, Epoch: 1}
		ok := echo
		ok.Flags = protocol.FlagResponse
		protocol.WriteMessage(c, &ok, nil)
		echo.Status = protocol.StatusError
		protocol.WriteMessage(c, &echo, nil)
		c.Read(make([]byte, 1)) // hold the connection until the sink closes it
	}()

	c := &Coordinator{cfg: CoordinatorConfig{InstallTimeout: 2 * time.Second}}
	sink, err := c.startSink(ln.Addr().String(), []string{destEndpoint(t)}, 128, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.close()
	select {
	case err := <-sink.errCh:
		if !strings.Contains(err.Error(), "aborted") {
			t.Fatalf("sink error = %v, want catch-up aborted", err)
		}
	case <-sink.caught:
		t.Fatal("sink signalled caught-up on a non-OK marker")
	case <-time.After(5 * time.Second):
		t.Fatal("sink neither failed nor caught up")
	}
	select {
	case <-sink.caught:
		t.Fatal("sink signalled caught-up after failing")
	default:
	}
}
