package shard_test

import (
	"sync"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/shard"
)

// newTracedRouter is newRouter with distributed tracing enabled: every
// routed I/O carries a trace trailer and root spans land in ring.
func newTracedRouter(t *testing.T, seeds []string, ring *obs.Ring) *shard.Router {
	t.Helper()
	r, err := shard.NewRouter(shard.RouterConfig{
		Seeds:     seeds,
		Reg:       protocol.Registration{BestEffort: true, Writable: true},
		Opts:      client.Options{Timeout: 2 * time.Second},
		Trace:     true,
		TraceRing: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestTraceE2E drives a traced write through a live shard migration and
// asserts the full observability story (ISSUE 6 acceptance):
//
//   - one stitched cross-node timeline covering every hop the write
//     took: client -> source serve -> migration-relay -> destination
//     serve, assembled purely from span parent links across four
//     independently collected rings;
//   - the coordinator's event journal holds the complete MoveShard
//     phase sequence (prepare -> catchup -> cutover -> drain -> done).
func TestTraceE2E(t *testing.T) {
	// A 4 MiB shard keeps the move window open for tens of catch-up round
	// trips; with 1024 blocks it sometimes closed between two writes of
	// the throttled writer and no relay span was ever recorded.
	const numShards, shardBlocks = 2, 8192
	c, srvs := soloCluster(t, 2, numShards, shardBlocks)
	m := c.Map()
	moveShard := -1
	for s := 0; s < numShards; s++ {
		if m.Nodes[m.Assign[s]].Name == "node0" {
			moveShard = s
			break
		}
	}
	if moveShard < 0 {
		t.Skip("node0 owns nothing")
	}
	base := uint32(moveShard) * shardBlocks

	// Large enough to retain every root span pushed during the move:
	// relays happen mid-move, and a small ring would evict their roots
	// by the time we stitch.
	clientRing := obs.NewRing(1<<16, 16)
	r := newTracedRouter(t, []string{srvs[0].Addr(), srvs[1].Addr()}, clientRing)

	// Continuous traced writes into the moving shard: some land before
	// the move, some are forwarded through the migration sink mid-move,
	// some land at the destination after cutover.
	var (
		mu      sync.Mutex
		wrote   int
		stop    = make(chan struct{})
		done    = make(chan struct{})
		failure error
	)
	go func() {
		defer close(done)
		seq := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			lba := base + uint32(seq%64)
			if err := r.Write(lba, block(lba, seq)); err != nil {
				mu.Lock()
				failure = err
				mu.Unlock()
				return
			}
			mu.Lock()
			wrote++
			mu.Unlock()
			// Throttle: the per-node trace rings are bounded (4096
			// spans); an unthrottled writer pushes the mid-move spans
			// out of every ring before the timeline is stitched.
			time.Sleep(200 * time.Microsecond)
		}
	}()

	time.Sleep(50 * time.Millisecond)
	if err := c.MoveShard(moveShard, "node1", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// Stop immediately: every write after cutover lands directly on the
	// destination and would push the relayed writes (which arrived there
	// pre-cutover) out of its bounded trace ring.
	close(stop)
	<-done
	mu.Lock()
	if failure != nil {
		t.Fatalf("live writer failed after %d writes: %v", wrote, failure)
	}
	t.Logf("live writer acked %d traced writes across the move", wrote)
	mu.Unlock()

	// Pick a write that went through the migration sink: any relay span
	// in the coordinator's trace ring names such a trace.
	relays := c.TraceRing().Recent(0)
	var trace uint64
	for _, sp := range relays {
		if sp.Hop == obs.HopRelay && sp.Trace != 0 {
			trace = sp.Trace
			break
		}
	}
	if trace == 0 {
		t.Fatal("no relay spans recorded: no traced write was forwarded through the live move")
	}

	// Union the four collection points exactly as a fleet scraper would
	// and stitch one timeline from span parent links alone.
	var spans []obs.Span
	spans = append(spans, clientRing.TraceSpans(trace)...)
	spans = append(spans, srvs[0].TraceRing().TraceSpans(trace)...)
	spans = append(spans, srvs[1].TraceRing().TraceSpans(trace)...)
	spans = append(spans, c.TraceRing().TraceSpans(trace)...)
	tl := obs.Stitch(trace, spans)
	if len(tl.Hops) < 4 {
		for _, h := range tl.Hops {
			t.Logf("hop: node=%s hop=%s depth=%d", h.Span.Node, obs.HopName(h.Span.Hop), h.Depth)
		}
		t.Fatalf("stitched only %d hops for trace %x, want >= 4 (client, src serve, relay, dst serve)", len(tl.Hops), trace)
	}
	for _, want := range []struct {
		hop  uint8
		node string
	}{
		{obs.HopClient, "client"},
		{obs.HopServe, "node0"},
		{obs.HopRelay, "coord"},
		{obs.HopServe, "node1"},
	} {
		if !tl.Has(want.hop, want.node) {
			t.Errorf("timeline missing hop %s on %q", obs.HopName(want.hop), want.node)
		}
	}
	if tl.Orphans != 0 {
		t.Errorf("timeline has %d orphan spans (parent links broken)", tl.Orphans)
	}

	// Journal: the coordinator's event log must carry the complete move
	// phase sequence for the moved shard, in order.
	wantKinds := []obs.EventKind{
		obs.EvMovePrepare, obs.EvMoveCatchup, obs.EvMoveCutover, obs.EvMoveDrain, obs.EvMoveDone,
	}
	events := c.Journal().Recent(0)
	got := make([]obs.EventKind, 0, len(wantKinds))
	for _, ev := range events {
		if ev.Shard == moveShard {
			got = append(got, ev.Kind)
		}
	}
	ki := 0
	for _, k := range got {
		if ki < len(wantKinds) && k == wantKinds[ki] {
			ki++
		}
	}
	if ki != len(wantKinds) {
		t.Errorf("journal move sequence incomplete: matched %d/%d phases, events for shard %d: %v",
			ki, len(wantKinds), moveShard, got)
	}
}
