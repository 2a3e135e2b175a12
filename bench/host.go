package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/reflex-go/reflex/internal/protocol"
)

// fingerprint says where a set of numbers was measured. It goes into
// every output; numbers without it do not count (ROADMAP item 1).
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
}

func hostFingerprint(root string, seed int64) fingerprint {
	fp := fingerprint{
		CPUModel: "unknown", Kernel: "unknown", Commit: "unknown",
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if b, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(b))
	}
	return fp
}

// referenceEcho returns the echo rate of the host the bounds in
// BENCHMARK.json were measured on, from reference.json beside the
// sources (BENCHMARK.json's own keys are fixed by the driver).
func referenceEcho(benchDir string) (float64, error) {
	b, err := os.ReadFile(filepath.Join(benchDir, "reference.json"))
	if err != nil {
		return 0, err
	}
	var ref struct {
		Echo float64 `json:"host.echo_msgs_per_s"`
	}
	if err := json.Unmarshal(b, &ref); err != nil || ref.Echo <= 0 {
		return 0, fmt.Errorf("reference.json: no host.echo_msgs_per_s (%v)", err)
	}
	return ref.Echo, nil
}

// selfUsage returns the benchmark process's own CPU seconds and heap
// allocation count: the generator's cost, reported beside the server's.
func selfUsage() (cpu float64, mallocs uint64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return cpu, ms.Mallocs
}

// hostSteal returns the host's cumulative steal and total CPU jiffies.
func hostSteal() [2]float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]float64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var total, steal float64
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return [2]float64{steal, total}
}

// sleepOvershoot is how late time.Sleep(50us) returns on this host, as a
// median in microseconds: the reason no workload is paced by a timer.
func sleepOvershoot() float64 {
	const want = 50 * time.Microsecond
	over := make([]int64, 200)
	for i := range over {
		start := time.Now()
		time.Sleep(want)
		over[i] = int64(time.Since(start) - want)
	}
	slices.Sort(over)
	return quantile(over, 0.5) / 1e3
}

// echoFrames: the request a 4 KiB read puts on the wire and the response
// that answers it.
const (
	echoReqBytes  = protocol.HeaderSize
	echoRespBytes = protocol.HeaderSize + ioSize
)

var echoRE = regexp.MustCompile(`echo listening on (\S+)`)

// echoChild is the benchmark binary re-executed as a bare TCP peer: it
// reads a header-sized request and answers with header plus 4 KiB, with
// nothing in between. That round trip is this host's "local" in
// remote ~ local.
func echoChild() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "echo listening on %s\n", ln.Addr())
	c, err := ln.Accept()
	if err != nil {
		return err
	}
	c.(*net.TCPConn).SetNoDelay(true)
	br := bufio.NewReaderSize(c, 64<<10)
	req := make([]byte, echoReqBytes)
	resp := make([]byte, echoRespBytes)
	for {
		if _, err := io.ReadFull(br, req); err != nil {
			return nil // peer closed: done
		}
		if _, err := c.Write(resp); err != nil {
			return err
		}
	}
}

// hostEcho measures the echo child: QD1 round-trip p50 and, with 32
// requests in flight, messages per second (median of five chunks).
func hostEcho(self string, out map[string]float64) error {
	onAddr, addrCh := firstMatch(echoRE)
	c, err := startChild(self, []string{"-echo-child"}, onAddr)
	if err != nil {
		return err
	}
	defer c.kill()
	var addr string
	select {
	case addr = <-addrCh:
	case <-c.exited:
		return fmt.Errorf("echo child exited: %s", c.stderrTail())
	case <-time.After(10 * time.Second):
		return fmt.Errorf("echo child did not report its port")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetNoDelay(true)
	br := bufio.NewReaderSize(conn, 64<<10)
	req := make([]byte, echoReqBytes)
	resp := make([]byte, echoRespBytes)
	rtt := func() error {
		if _, err := conn.Write(req); err != nil {
			return err
		}
		_, err := io.ReadFull(br, resp)
		return err
	}
	const warm, rounds = 2000, 20000
	lat := make([]int64, 0, rounds)
	for i := 0; i < warm+rounds; i++ {
		start := time.Now()
		if err := rtt(); err != nil {
			return fmt.Errorf("echo: %w", err)
		}
		if i >= warm {
			lat = append(lat, int64(time.Since(start)))
		}
	}
	slices.Sort(lat)
	out["host.echo_rtt_p50_us"] = quantile(lat, 0.5) / 1e3

	const window, msgs, chunks = 32, 32000, 5
	burst := make([]byte, window*echoReqBytes)
	var rates []float64
	for c := 0; c < chunks; c++ {
		start := time.Now()
		for sent := 0; sent < msgs; sent += window {
			if _, err := conn.Write(burst); err != nil {
				return fmt.Errorf("echo: %w", err)
			}
			for i := 0; i < window; i++ {
				if _, err := io.ReadFull(br, resp); err != nil {
					return fmt.Errorf("echo: %w", err)
				}
			}
		}
		rates = append(rates, msgs/time.Since(start).Seconds())
	}
	out["host.echo_msgs_per_s"] = median(rates)
	return nil
}
