// End-to-end sharding tests over real servers and sockets: map install,
// shard-map enforcement, router fetch/redirect behaviour, and live shard
// migration. External test package — internal/server imports
// internal/shard, so these live on the far side of that edge.
package shard_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/server"
	"github.com/reflex-go/reflex/internal/shard"
	"github.com/reflex-go/reflex/internal/storage"
)

func costModel() core.CostModel {
	return core.CostModel{
		ReadCost:         core.TokenUnit,
		ReadOnlyReadCost: core.TokenUnit / 2,
		WriteCost:        10 * core.TokenUnit,
	}
}

// startSolo starts one single-server "node" (no pair backup) named name.
func startSolo(t *testing.T, name string) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		Addr:      "127.0.0.1:0",
		Cores:     2,
		Model:     costModel(),
		TokenRate: 1_000_000 * core.TokenUnit,
		NodeName:  name,
	}, storage.NewMem(32<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// soloCluster starts n solo nodes plus a coordinator over them and
// installs the v1 map everywhere.
func soloCluster(t *testing.T, n, numShards int, shardBlocks uint32) (*shard.Coordinator, []*server.Server) {
	t.Helper()
	srvs := make([]*server.Server, n)
	nodes := make([]shard.Node, n)
	for i := range srvs {
		name := fmt.Sprintf("node%d", i)
		srvs[i] = startSolo(t, name)
		nodes[i] = shard.Node{Name: name, Addrs: []string{srvs[i].Addr()}}
	}
	c, err := shard.NewCoordinator(shard.CoordinatorConfig{
		Nodes:          nodes,
		NumShards:      numShards,
		ShardBlocks:    shardBlocks,
		InstallTimeout: 2 * time.Second,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallAll(); err != nil {
		t.Fatal(err)
	}
	return c, srvs
}

func newRouter(t *testing.T, seeds []string) *shard.Router {
	t.Helper()
	r, err := shard.NewRouter(shard.RouterConfig{
		Seeds: seeds,
		Reg:   protocol.Registration{BestEffort: true, Writable: true},
		Opts:  client.Options{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func block(lba uint32, seq uint64) []byte {
	b := make([]byte, 512)
	binary.BigEndian.PutUint32(b, lba)
	binary.BigEndian.PutUint64(b[4:], seq)
	for i := 12; i < len(b); i++ {
		b[i] = byte(lba + uint32(seq) + uint32(i))
	}
	return b
}

func TestClusterRoutingEndToEnd(t *testing.T) {
	const numShards, shardBlocks = 8, 1024
	c, srvs := soloCluster(t, 3, numShards, shardBlocks)
	seeds := []string{srvs[0].Addr(), srvs[1].Addr(), srvs[2].Addr()}
	r := newRouter(t, seeds)

	// One write+read per shard, routed to three different nodes.
	for s := 0; s < numShards; s++ {
		lba := uint32(s)*shardBlocks + uint32(s)
		data := block(lba, 1)
		if err := r.Write(lba, data); err != nil {
			t.Fatalf("shard %d write: %v", s, err)
		}
		got, err := r.Read(lba, 512)
		if err != nil {
			t.Fatalf("shard %d read: %v", s, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("shard %d read back different data", s)
		}
	}
	if got := r.Redirects(); got != 0 {
		t.Fatalf("fresh map produced %d redirects, want 0", got)
	}
	m := r.Map()
	if m == nil || m.Version != c.Map().Version {
		t.Fatalf("router map out of sync with coordinator")
	}

	// Every node serves the map it installed.
	cl, err := client.Dial(srvs[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ver, raw, err := cl.FetchShardMap()
	if err != nil {
		t.Fatal(err)
	}
	if ver != m.Version {
		t.Fatalf("fetched map v%d, want v%d", ver, m.Version)
	}
	if _, err := shard.Unmarshal(raw); err != nil {
		t.Fatalf("fetched map does not decode: %v", err)
	}

	// A node refuses I/O for ranges it does not own, echoing its version.
	h, err := cl.Register(protocol.Registration{BestEffort: true, Writable: true})
	if err != nil {
		t.Fatal(err)
	}
	foreign := uint32(0)
	found := false
	for s := 0; s < numShards; s++ {
		if m.Nodes[m.Assign[s]].Name != "node1" {
			foreign = uint32(s) * shardBlocks
			found = true
			break
		}
	}
	if !found {
		t.Skip("node1 owns everything (improbable)")
	}
	if _, err := cl.Read(h, foreign, 512); !errors.Is(err, client.ErrWrongShard) {
		t.Fatalf("foreign read = %v, want ErrWrongShard", err)
	}
	if err := cl.Write(h, foreign, block(foreign, 1)); !errors.Is(err, client.ErrWrongShard) {
		t.Fatalf("foreign write = %v, want ErrWrongShard", err)
	}
	if srvs[1].Metrics() == nil {
		t.Fatal("metrics missing")
	}
}

func TestRouterFetchOnMissAndNoMap(t *testing.T) {
	// A cluster with no installed map: the router surfaces ErrNoMap.
	srv := startSolo(t, "solo")
	r := newRouter(t, []string{srv.Addr()})
	if err := r.Write(0, block(0, 1)); !errors.Is(err, shard.ErrNoMap) {
		t.Fatalf("no-map write = %v, want ErrNoMap", err)
	}
}

func TestRouterTargetHygiene(t *testing.T) {
	// All-blank seeds are a typed error.
	if _, err := shard.NewRouter(shard.RouterConfig{Seeds: []string{"", "  "}}); !errors.Is(err, shard.ErrNoTargets) {
		t.Fatalf("blank seeds = %v, want ErrNoTargets", err)
	}

	// Duplicate and blank entries — in the seed list AND in a node's
	// address list — are cleaned up before dialing.
	srv := startSolo(t, "node0")
	addr := srv.Addr()
	c, err := shard.NewCoordinator(shard.CoordinatorConfig{
		Nodes:          []shard.Node{{Name: "node0", Addrs: []string{addr, addr, ""}}},
		NumShards:      4,
		ShardBlocks:    256,
		InstallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallAll(); err != nil {
		t.Fatal(err)
	}
	r := newRouter(t, []string{addr, "", addr, " " + addr + " "})
	if err := r.Write(7, block(7, 1)); err != nil {
		t.Fatal(err)
	}
	got, err := r.Read(7, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block(7, 1)) {
		t.Fatal("data mismatch through deduped targets")
	}
}

func TestMoveShardCarriesDataAndRedirects(t *testing.T) {
	const numShards, shardBlocks = 4, 512
	c, srvs := soloCluster(t, 2, numShards, shardBlocks)
	m := c.Map()

	// Pick a shard owned by node0 and pre-write data into it.
	moveShard := -1
	for s := 0; s < numShards; s++ {
		if m.Nodes[m.Assign[s]].Name == "node0" {
			moveShard = s
			break
		}
	}
	if moveShard < 0 {
		t.Skip("node0 owns nothing (improbable)")
	}
	r := newRouter(t, []string{srvs[0].Addr(), srvs[1].Addr()})
	base := uint32(moveShard) * shardBlocks
	for i := uint32(0); i < 8; i++ {
		if err := r.Write(base+i, block(base+i, 7)); err != nil {
			t.Fatal(err)
		}
	}

	if err := c.MoveShard(moveShard, "node1", 20*time.Second); err != nil {
		t.Fatal(err)
	}

	// The router's map is now two versions stale; its next access
	// redirects, refreshes, and lands on node1 — where the catch-up
	// stream already placed the pre-move data.
	for i := uint32(0); i < 8; i++ {
		got, err := r.Read(base+i, 512)
		if err != nil {
			t.Fatalf("post-move read %d: %v", i, err)
		}
		if !bytes.Equal(got, block(base+i, 7)) {
			t.Fatalf("post-move read %d: data lost in migration", i)
		}
	}
	if r.Redirects() == 0 {
		t.Fatal("stale router never redirected")
	}
	if got := r.Map().Version; got != c.Map().Version {
		t.Fatalf("router converged to v%d, want v%d", got, c.Map().Version)
	}
	// The old owner now refuses the range.
	cl, err := client.Dial(srvs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Register(protocol.Registration{BestEffort: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(h, base, 512); !errors.Is(err, client.ErrWrongShard) {
		t.Fatalf("old owner read = %v, want ErrWrongShard", err)
	}
	// Moving a shard to its current owner is a no-op.
	before := c.Map().Version
	if err := c.MoveShard(moveShard, "node1", time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Map().Version != before {
		t.Fatal("no-op move bumped the map version")
	}
}

// TestRedirectStormConverges: a stale router hammered by many goroutines
// converges through single-flight refreshes — every operation succeeds
// and the refresh count stays near one, not near the goroutine count.
func TestRedirectStormConverges(t *testing.T) {
	const numShards, shardBlocks = 4, 512
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
	r := newRouter(t, []string{srvs[0].Addr(), srvs[1].Addr()})
	base := uint32(moveShard) * shardBlocks
	if err := r.Write(base, block(base, 3)); err != nil {
		t.Fatal(err) // warm the router's map and node0's pool
	}
	if err := c.MoveShard(moveShard, "node1", 20*time.Second); err != nil {
		t.Fatal(err)
	}

	const workers = 24
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lba := base + uint32(w%int(shardBlocks))
			if err := r.Write(lba, block(lba, uint64(w))); err != nil {
				errs <- fmt.Errorf("worker %d: %w", w, err)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := r.Map().Version; got != c.Map().Version {
		t.Fatalf("router at v%d after storm, want v%d", got, c.Map().Version)
	}
	if refreshes := r.Refreshes(); refreshes > workers/2 {
		t.Fatalf("refresh storm: %d sweeps for %d workers (single-flight broken)", refreshes, workers)
	}
	t.Logf("storm: %d redirects, %d refreshes", r.Redirects(), r.Refreshes())
}

// TestMoveShardLiveWriterZeroLoss: a writer keeps acking writes into the
// moving shard throughout the move; every acked write is readable
// afterwards. This is the zero-lost-acked-writes invariant on the happy
// path (the soak test adds failures).
func TestMoveShardLiveWriterZeroLoss(t *testing.T) {
	const numShards, shardBlocks = 4, 1024
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
	r := newRouter(t, []string{srvs[0].Addr(), srvs[1].Addr()})

	// Ledger of acked writes: lba -> last acked sequence.
	var (
		mu     sync.Mutex
		ledger = map[uint32]uint64{}
		stop   = make(chan struct{})
		done   = make(chan struct{})
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
				// Router retries wrong-shard internally; anything else is a
				// real failure worth surfacing.
				t.Errorf("live write seq %d: %v", seq, err)
				return
			}
			mu.Lock()
			ledger[lba] = seq
			mu.Unlock()
		}
	}()

	time.Sleep(50 * time.Millisecond) // let the writer build history
	if err := c.MoveShard(moveShard, "node1", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // writes continue at the new owner
	close(stop)
	<-done

	mu.Lock()
	defer mu.Unlock()
	if len(ledger) == 0 {
		t.Fatal("writer acked nothing")
	}
	// Read every acked write back through a FRESH router (no warm pools:
	// everything must come off the destination).
	r2 := newRouter(t, []string{srvs[1].Addr()})
	for lba, seq := range ledger {
		got, err := r2.Read(lba, 512)
		if err != nil {
			t.Fatalf("ledger read lba %d: %v", lba, err)
		}
		if !bytes.Equal(got, block(lba, seq)) {
			t.Fatalf("lba %d: acked seq %d lost in migration", lba, seq)
		}
	}
	t.Logf("zero loss across move: %d distinct LBAs verified", len(ledger))
}
