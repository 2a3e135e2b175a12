package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/server"
	"github.com/reflex-go/reflex/internal/shard"
	"github.com/reflex-go/reflex/internal/sim"
	"github.com/reflex-go/reflex/internal/storage"
)

// ExtSharding is the scale-out extension experiment (DESIGN.md §13): N
// independent ReFlex nodes under one consistent-hash shard map, driven
// through the client-side Router. Like ext-failover it runs the real TCP
// stack wall-clock, because the subjects — shard-map routing, the
// StatusWrongShard redirect path, and live migration — live there.
//
// Each node's token rate is capped at a fixed per-node budget standing in
// for calibrated device capacity (the paper's bottleneck resource; §3.2.2),
// so the table isolates placement scaling from host-CPU contention: if the
// shard map spreads load evenly, aggregate read throughput scales with the
// node count. One row per cluster size; the 4-node row additionally forces
// a live shard migration mid-window and reports the StatusWrongShard
// redirect fraction the move induced — the steady-state redirect rate the
// routing table's fetch-on-miss refresh must keep under 1%.
type shardPhase struct {
	nodes      int
	ops        uint64
	errs       uint64
	iops       float64
	redirects  uint64
	refreshes  uint64
	moves      int
	mapVersion uint32
	err        error
}

// shardNodeIOPS is the per-node read budget (token-capped): the stand-in
// for one device's calibrated rate, deliberately far below what loopback
// TCP can carry — even the 4-node aggregate must sit under the host's
// syscall throughput wall — so the cluster-size rows differ only in
// aggregate budget.
const shardNodeIOPS = 2000

// ExtSharding runs 1-, 2-, and 4-node phases and tabulates them.
func ExtSharding(scale Scale) *Table {
	t := &Table{
		ID:    "ext-sharding",
		Title: "Sharded cluster scale-out: aggregate read throughput vs node count, redirects across a live shard move",
		Columns: []string{
			"nodes", "ops", "read_iops", "speedup",
			"moves", "redirects", "redirect_pct", "map_version",
		},
		Notes: fmt.Sprintf("per-node budget %dK reads/s (token-capped device stand-in); 4-node row includes one live shard migration (read_iops is steady-state, the move window excluded; redirect_pct covers the whole run); speedup is vs the 1-node row; acceptance: 4-node >= 3.5x, redirect_pct < 1%%", shardNodeIOPS/1000),
	}
	dur := time.Duration(scale.dur(2 * sim.Second))

	var base float64
	for _, n := range []int{1, 2, 4} {
		p := runShardingPhase(n, dur, n == 4)
		if p.err != nil {
			t.Add(n, 0, "0", "0.00", 0, 0, "0.000", 0)
			continue
		}
		if n == 1 {
			base = p.iops
		}
		speedup := 0.0
		if base > 0 {
			speedup = p.iops / base
		}
		pct := 0.0
		if p.ops > 0 {
			pct = 100 * float64(p.redirects) / float64(p.ops)
		}
		t.Add(p.nodes, p.ops, k(p.iops), fmt.Sprintf("%.2f", speedup),
			p.moves, p.redirects, fmt.Sprintf("%.3f", pct), p.mapVersion)
	}
	return t
}

// runShardingPhase stands up n token-capped solo nodes behind a
// coordinator, sprays uniform single-block reads through one shared Router
// from 4 QD1 workers per node, and (optionally) forces one live shard
// migration halfway through the window.
func runShardingPhase(n int, dur time.Duration, withMove bool) shardPhase {
	const (
		numShards   = 16
		shardBlocks = 1024
	)
	ph := shardPhase{nodes: n}

	srvs := make([]*server.Server, 0, n)
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
	}()
	nodes := make([]shard.Node, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%d", i)
		srv, err := server.New(server.Config{
			Addr:     "127.0.0.1:0",
			Cores:    1,
			NodeName: name,
			Model: core.CostModel{
				ReadCost:         core.TokenUnit,
				ReadOnlyReadCost: core.TokenUnit / 2,
				WriteCost:        10 * core.TokenUnit,
			},
			TokenRate: shardNodeIOPS * core.TokenUnit,
		}, storage.NewMem(numShards*shardBlocks*protocol.BlockSize))
		if err != nil {
			ph.err = err
			return ph
		}
		srvs = append(srvs, srv)
		nodes[i] = shard.Node{Name: name, Addrs: []string{srv.Addr()}}
	}

	coord, err := shard.NewCoordinator(shard.CoordinatorConfig{
		Nodes:          nodes,
		NumShards:      numShards,
		ShardBlocks:    shardBlocks,
		InstallTimeout: 2 * time.Second,
	})
	if err != nil {
		ph.err = err
		return ph
	}
	defer coord.Stop()
	if err := coord.InstallAll(); err != nil {
		ph.err = err
		return ph
	}

	var seeds []string
	for _, nd := range nodes {
		seeds = append(seeds, nd.Addrs...)
	}
	router, err := shard.NewRouter(shard.RouterConfig{
		Seeds: seeds,
		Reg:   protocol.Registration{BestEffort: true, Writable: true},
		Opts:  client.Options{Timeout: 2 * time.Second},
	})
	if err != nil {
		ph.err = err
		return ph
	}
	defer router.Close()

	// Workers: two QD1 readers pinned to every shard (uniform demand over
	// shards — the shape a population of per-shard tenants offers). Pinning
	// matters: consistent hashing splits shards over nodes only to within
	// ~25% at this size, and free-roaming QD1 workers pile up at the
	// biggest-share node while smaller nodes' queues run dry and forfeit
	// tokens. Per-shard pinning keeps at least two requests queued at every
	// node that owns anything, so each node saturates its budget and the
	// table measures the aggregate capacity the shard map exposes.
	workers := 2 * numShards
	var (
		ops  atomic.Uint64
		errs atomic.Uint64
		wg   sync.WaitGroup
		stop = make(chan struct{})
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			myShard := w % numShards
			for {
				select {
				case <-stop:
					return
				default:
				}
				lba := uint32(myShard*shardBlocks + rng.Intn(shardBlocks))
				if _, err := router.Read(lba, protocol.BlockSize); err == nil {
					ops.Add(1)
				} else {
					errs.Add(1)
				}
			}
		}(w)
	}

	start := time.Now()
	var moveOps uint64
	var moveDur time.Duration
	if withMove && n > 1 {
		// Halfway through: re-home one shard, live, under full read load.
		// The workers' stale maps answer StatusWrongShard at the old owner
		// until the router's single-flight refresh converges.
		time.Sleep(dur / 2)
		m := coord.Map()
		src := int(m.Assign[0])
		dest := ""
		for i, nd := range m.Nodes {
			if i != src {
				dest = nd.Name
				break
			}
		}
		preOps, preT := ops.Load(), time.Now()
		if err := coord.MoveShard(0, dest, 10*time.Second); err != nil {
			ph.err = err
			close(stop)
			wg.Wait()
			return ph
		}
		// The move window (catch-up stream + dual-ownership cutover +
		// drain) steals source/dest capacity by design; read_iops is the
		// steady-state rate, so the window's ops and wall time are carved
		// out of the rate computation below.
		moveOps, moveDur = ops.Load()-preOps, time.Since(preT)
		ph.moves = 1
		time.Sleep(dur - time.Since(start))
	} else {
		time.Sleep(dur)
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	ph.ops = ops.Load()
	ph.errs = errs.Load()
	ph.iops = float64(ph.ops-moveOps) / (elapsed - moveDur).Seconds()
	ph.redirects = router.Redirects()
	ph.refreshes = router.Refreshes()
	ph.mapVersion = coord.Map().Version
	return ph
}
