package server

import (
	"runtime"
	"sync"
	"testing"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/storage"
)

// Hot-path benchmarks: the real TCP/UDP request/response path over
// loopback, pipelined the way the paper's clients drive a dataplane core
// (many in-flight requests per connection, §3.2.1). These are the numbers
// BENCH_hotpath.json tracks; the CI bench-hotpath job runs them with
// -benchmem so allocation regressions on the steady-state path are
// visible.

// benchServer starts a loopback server tuned for throughput measurement:
// in-memory backend, no simulated device latency, effectively unthrottled
// token rate.
func benchServer(b *testing.B, mutate func(*Config)) *Server {
	b.Helper()
	cfg := Config{
		Addr:      "127.0.0.1:0",
		Cores:     2,
		Model:     modelA(),
		TokenRate: 100_000_000 * core.TokenUnit,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg, storage.NewMem(64<<20))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv
}

// benchEcho drives size-byte pipelined reads with the given in-flight
// window and reports msg/s.
func benchEcho(b *testing.B, cl *client.Client, size, window int) {
	b.Helper()
	h, err := cl.Register(beWritable())
	if err != nil {
		b.Fatal(err)
	}
	benchEchoHandle(b, cl, h, size, window)
}

// benchEchoHandle is benchEcho on an already-registered tenant handle.
func benchEchoHandle(b *testing.B, cl *client.Client, h uint16, size, window int) {
	b.Helper()
	// Prime the block range so reads return real data.
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	if err := cl.Write(h, 0, data); err != nil {
		b.Fatal(err)
	}
	calls := make([]*client.Call, 0, window)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(calls) == window {
			c := calls[0]
			calls = calls[:copy(calls, calls[1:])]
			<-c.Done
			if c.Err != nil {
				b.Fatal(c.Err)
			}
		}
		c, err := cl.GoRead(h, 0, size)
		if err != nil {
			b.Fatal(err)
		}
		calls = append(calls, c)
	}
	for _, c := range calls {
		<-c.Done
		if c.Err != nil {
			b.Fatal(c.Err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msg/s")
}

// BenchmarkHotPathTCP measures pipelined 4KB reads over loopback TCP.
func BenchmarkHotPathTCP(b *testing.B) {
	srv := benchServer(b, nil)
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	benchEcho(b, cl, 4096, 256)
}

// BenchmarkHotPathTCPCacheHit is BenchmarkHotPathTCP with the DRAM read
// cache on and a single hot block, so steady state serves ~100% hits: the
// pcore's cache-hit service path (pooled copy-out, no backend access).
// Run with -benchmem; hits must not add steady-state allocations over the
// plain hot path.
func BenchmarkHotPathTCPCacheHit(b *testing.B) {
	srv := benchServer(b, func(c *Config) {
		c.CacheBytes = 4 << 20
		c.CacheAdmit = "always"
	})
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	benchEcho(b, cl, 4096, 256)
	// The framework's small calibration runs can finish before the single
	// fill commits; only a real measurement run must be hit-dominated.
	st := srv.cache.Stats()
	if b.N > 1024 && st.Hits == 0 {
		b.Fatalf("cache-hit benchmark never hit: %+v", st)
	}
	if st.Hits+st.Misses > 0 {
		b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses)*100, "hit%")
	}
}

// BenchmarkHotPathTCPVolume is BenchmarkHotPathTCP through a
// thin-provisioned volume: every read translates a logical LBA through
// the volume's extent map before hitting the backend. Run with -benchmem;
// the volume path must not add steady-state allocations over the raw
// device path (Translate and the in-place overwrite path are
// allocation-free by construction).
func BenchmarkHotPathTCPVolume(b *testing.B) {
	srv := benchServer(b, func(c *Config) { c.VolumeBytes = 16 << 20 })
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	vol, err := cl.VolCreate("bench", 8192)
	if err != nil {
		b.Fatal(err)
	}
	h, err := cl.OpenVolume(beWritable(), vol)
	if err != nil {
		b.Fatal(err)
	}
	benchEchoHandle(b, cl, h, 4096, 256)
}

// BenchmarkHotPathUDP measures pipelined 4KB reads over loopback UDP with
// a small window (datagram sockets have shallow kernel buffers).
func BenchmarkHotPathUDP(b *testing.B) {
	srv := benchServer(b, func(c *Config) { c.UDPAddr = "127.0.0.1:0" })
	cl, err := client.DialUDP(srv.UDPAddr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	benchEcho(b, cl, 4096, 16)
}

// BenchmarkHotPathTCPMulticore runs one pipelined connection per core on
// a server with a core per available CPU: the shared-nothing scaling
// number (aggregate msg/s across all cores). cmd/reflex-bench -hotpath
// sweeps the same shape over the GOMAXPROCS ladder for BENCH_hotpath.json.
func BenchmarkHotPathTCPMulticore(b *testing.B) {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	srv := benchServer(b, func(c *Config) { c.Cores = n })
	clients := make([]*client.Client, n)
	handles := make([]uint16, n)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	for i := 0; i < n; i++ {
		cl, err := client.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { cl.Close() })
		h, err := cl.Register(beWritable())
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.Write(h, 0, data); err != nil {
			b.Fatal(err)
		}
		clients[i] = cl
		handles[i] = h
	}
	const window = 128
	per := b.N / n
	if per == 0 {
		per = 1
	}
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, h := clients[i], handles[i]
			calls := make([]*client.Call, 0, window)
			for j := 0; j < per; j++ {
				if len(calls) == window {
					c := calls[0]
					calls = calls[:copy(calls, calls[1:])]
					<-c.Done
					if c.Err != nil {
						errs[i] = c.Err
						return
					}
				}
				c, err := cl.GoRead(h, 0, 4096)
				if err != nil {
					errs[i] = err
					return
				}
				calls = append(calls, c)
			}
			for _, c := range calls {
				<-c.Done
				if c.Err != nil {
					errs[i] = c.Err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(per*n)/b.Elapsed().Seconds(), "msg/s")
	b.ReportMetric(float64(n), "cores")
}
