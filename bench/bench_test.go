package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"github.com/reflex-go/reflex/internal/protocol"
)

var (
	testServerBin string
	testSelf      string
)

// TestMain builds the two binaries the smoke tests run: reflex-server
// and this package itself (the echo child is the benchmark re-executed).
// When the test binary is started with -echo-child it is that child.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-echo-child" {
			if err := echoChild(); err != nil {
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	dir, err := os.MkdirTemp("", "reflex-bench-test")
	if err != nil {
		panic(err)
	}
	if testServerBin, err = buildServer(".", dir); err != nil {
		panic(err)
	}
	if testSelf, err = os.Executable(); err != nil {
		panic(err)
	}
	code := m.Run()
	killChildren()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smokeShape: one set-up, two one-second segments, and for the traced
// run one unloaded, one untraced and one traced segment.
var smokeShape = shape{setUps: 1, segs: 2, unloaded: 1, untraced: 1, traced: 1}

// small shrinks a workload's working set and warm-up so that a set-up
// takes a fraction of a second; the mix and the server flags stay.
func small(w workload) *workload {
	w.wsMiB = 4
	w.warmLoad, w.warmProbe = min(w.warmLoad, 2000), min(w.warmProbe, 200)
	return &w
}

func testEnv(t *testing.T) *env {
	e := newEnv("..", testSelf, io.Discard)
	e.serverBin, e.outDir, e.shape = testServerBin, t.TempDir(), smokeShape
	return e
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(ms metricSet) map[string]bool {
	out := map[string]bool{}
	for n := range ms {
		out[n] = true
	}
	return out
}

// TestSmoke runs every workload through both kinds of run and checks
// that each emits exactly the metric names BENCHMARK.json lists, that no
// operation failed, and that nothing it started is still alive.
func TestSmoke(t *testing.T) {
	bj, err := loadBenchmarkJSON("..")
	if err != nil {
		t.Fatal(err)
	}
	wantE2E, wantLayer := map[string]bool{}, map[string]bool{}
	for _, m := range bj.EndToEnd {
		wantE2E[m.Name] = true
	}
	for _, m := range bj.PerLayer {
		wantLayer[m.Name] = true
	}
	if len(wantE2E) != len(endToEnd) || len(wantLayer) == 0 || len(wantLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics", len(wantE2E), len(wantLayer))
	}
	for n := range wantLayer {
		if !nameRE.MatchString(n) {
			t.Errorf("per-layer name %q is outside the contract's alphabet", n)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
	}

	t.Run("workloads", func(t *testing.T) {
		for i := range workloads {
			w := small(workloads[i])
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				e := testEnv(t)
				for _, c := range []struct {
					kind    string
					run     func(*env, *workload, int64, int) (*result, error)
					seconds int
					want    map[string]bool
				}{{"end-to-end", runEndToEnd, 2, wantE2E}, {"per-layer", runPerLayer, 3, wantLayer}} {
					res, err := c.run(e, w, 7, c.seconds)
					if err != nil {
						t.Fatalf("%s run: %v", c.kind, err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
						t.Errorf("%s run: correct=%v attempted=%d failed=%d first=%v", c.kind, res.Correct, res.Attempted, res.Failed, res.firstErr)
					}
					got := names(res.Metrics)
					for n := range c.want {
						if !got[n] {
							t.Errorf("%s run does not emit %s", c.kind, n)
						}
					}
					for n := range got {
						if !c.want[n] {
							t.Errorf("%s run emits %s, which BENCHMARK.json does not list", c.kind, n)
						}
					}
				}
				if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("traced pass left no span file: %v", err)
				}
			})
		}
	})
	if left := ownChildren(t); len(left) != 0 {
		t.Errorf("children still alive after the runs: %v", left)
	}
}

// ownChildren lists the live processes whose parent is this test.
func ownChildren(t *testing.T) []string {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, path := range stats {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // exited between the glob and the read
		}
		s := string(b)
		open, close := strings.IndexByte(s, '('), strings.LastIndexByte(s, ')')
		f := strings.Fields(s[close+1:])
		if len(f) < 2 || f[0] == "Z" {
			continue
		}
		if ppid, _ := strconv.Atoi(f[1]); ppid == os.Getpid() {
			out = append(out, s[open+1:close])
		}
	}
	return out
}

// TestChildLifecycle: a child leads its own process group, its ports come
// from :0 through its log line, and kill reaps it.
func TestChildLifecycle(t *testing.T) {
	srv, err := startServer(testServerBin, nil)
	if err != nil {
		t.Fatal(err)
	}
	pid := srv.cmd.Process.Pid
	if pgid, err := syscall.Getpgid(pid); err != nil || pgid != pid {
		t.Errorf("server pid %d is in process group %d (%v), want its own", pid, pgid, err)
	}
	for _, addr := range []string{srv.addr, strings.TrimPrefix(srv.metrics, "http://")} {
		if _, port, ok := strings.Cut(addr, ":"); !ok || port == "0" || port == "" {
			t.Errorf("address %q was not resolved from :0", addr)
		}
	}
	srv.kill()
	if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
		t.Errorf("server pid %d after kill: %v, want ESRCH", pid, err)
	}
}

// TestFailedRunLeavesNoServer: a run that fails after its server came up
// (here: a tenant the server cannot admit) and one whose server never
// came up both return an error and leave no reflex-server behind.
func TestFailedRunLeavesNoServer(t *testing.T) {
	inadmissible := *small(*findWorkload("qos_probe"))
	inadmissible.probe.lc = protocol.Registration{ReadPercent: 90, IOPS: 10_000_000, LatencyP95: 500_000, Writable: true}
	e := testEnv(t)
	if _, err := runEndToEnd(e, &inadmissible, 1, 2); err == nil {
		t.Error("a run with an inadmissible tenant succeeded")
	}
	badFlag := *small(*findWorkload("paced_mix"))
	badFlag.serverArgs = []string{"-no-such-flag"}
	if _, err := runEndToEnd(e, &badFlag, 1, 2); err == nil {
		t.Error("a run whose server rejects its flags succeeded")
	}
	if left := ownChildren(t); len(left) != 0 {
		t.Errorf("children still alive after failed runs: %v", left)
	}
}

// TestLedgerVerifies: the stamp identifies block and version, and any
// other payload fails the check.
func TestLedgerVerifies(t *testing.T) {
	led := newLedger(3, 16)
	buf := make([]byte, ioSize)
	led.stamp(buf, 5, 9)
	if ver, ok := led.check(buf, 5); !ok || ver != 9 {
		t.Errorf("check(stamp(5, 9)) = %d, %v", ver, ok)
	}
	if _, ok := led.check(buf, 6); ok {
		t.Error("a payload stamped for block 5 verified as block 6")
	}
	buf[ioSize-1] ^= 1
	if _, ok := led.check(buf, 5); ok {
		t.Error("a payload with a flipped bit verified")
	}
}

// TestCompareSets: -compare passes two equal sets and refuses a set that
// is worse than a bound, lacks a metric, had failed operations or was
// measured for another length of time.
func TestCompareSets(t *testing.T) {
	bj, err := loadBenchmarkJSON("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n := 0
	write := func(edit func(*setFile)) string {
		set := &setFile{Seconds: 30, Workloads: map[string]*setWorkload{}}
		for _, w := range bj.Workloads {
			sw := &setWorkload{Correct: true, Attempted: 1000, EndToEnd: metricSet{}}
			for _, m := range bj.EndToEnd {
				sw.EndToEnd[m.Name] = value{100, m.Unit}
			}
			set.Workloads[w.Name] = sw
		}
		edit(set)
		n++
		path := filepath.Join(dir, strconv.Itoa(n)+".json")
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	first := bj.Workloads[0].Name
	base := write(func(*setFile) {})
	for _, c := range []struct {
		name string
		edit func(*setFile)
		want int
	}{
		{"equal", func(*setFile) {}, 0},
		{"worse than the bound", func(s *setFile) { s.Workloads[first].EndToEnd["ops_per_s"] = value{100 * (1 - 0.5), "1/s"} }, 1},
		{"better", func(s *setFile) { s.Workloads[first].EndToEnd["ops_per_s"] = value{150, "1/s"} }, 0},
		{"metric missing", func(s *setFile) { delete(s.Workloads[first].EndToEnd, "srv_cpu_us_per_op") }, 1},
		{"failed operations", func(s *setFile) { s.Workloads[first].Correct, s.Workloads[first].Failed = false, 3 }, 1},
		{"another run length", func(s *setFile) { s.Seconds = 12 }, 2},
	} {
		if got := compareSets(io.Discard, "..", base, write(c.edit)); got != c.want {
			t.Errorf("%s: compare returned %d, want %d", c.name, got, c.want)
		}
	}
	// A metric missing from A must not read as "no worse" either.
	if got := compareSets(io.Discard, "..", write(func(s *setFile) { delete(s.Workloads[first].EndToEnd, "setup_s") }), base); got != 1 {
		t.Errorf("metric missing from A: compare returned %d, want 1", got)
	}
}
