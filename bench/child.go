package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a process the benchmark started: the server under test or the
// echo reference. Every child leads its own process group and is killed
// with it; Pdeathsig covers the case where the benchmark itself is
// SIGKILLed and no exit path runs.
type child struct {
	cmd    *exec.Cmd
	exited chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

var (
	childMu  sync.Mutex
	children = map[*child]struct{}{}
)

// startChild launches bin and feeds each stderr line to onLine.
func startChild(bin string, args []string, onLine func(string)) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	started := make(chan error, 1)
	go func() {
		// Pdeathsig fires when the forking *thread* exits, so the thread
		// that starts the child must outlive it: stay locked here until
		// Wait returns.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if err := cmd.Start(); err != nil {
			started <- err
			return
		}
		started <- nil
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			if c.tail = append(c.tail, line); len(c.tail) > 20 {
				c.tail = c.tail[1:]
			}
			c.mu.Unlock()
			if onLine != nil {
				onLine(line)
			}
		}
		_ = cmd.Wait() // killed by us on every path; the status says nothing
		close(c.exited)
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	childMu.Lock()
	children[c] = struct{}{}
	childMu.Unlock()
	return c, nil
}

// firstMatch returns a line callback and the channel on which it delivers
// the first submatch of the first line re matches: how a child's
// kernel-chosen port is read from its log.
func firstMatch(re *regexp.Regexp) (func(line string), <-chan string) {
	ch := make(chan string, 1)
	return func(line string) {
		if m := re.FindStringSubmatch(line); m != nil {
			select {
			case ch <- m[1]:
			default:
			}
		}
	}, ch
}

// kill ends the child's process group and waits until it has been reaped.
func (c *child) kill() {
	_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	<-c.exited
	childMu.Lock()
	delete(children, c)
	childMu.Unlock()
}

func (c *child) stderrTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, "\n")
}

// killChildren reaps everything still running; every exit path of main
// and the signal handler come through here.
func killChildren() {
	childMu.Lock()
	var live []*child
	for c := range children {
		live = append(live, c)
	}
	childMu.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// server is a running reflex-server child.
type server struct {
	*child
	addr    string // data-plane TCP address
	metrics string // http://host:port of the telemetry endpoint
	hc      *http.Client
}

var (
	listenRE    = regexp.MustCompile(`reflex-server listening on (\S+) `)
	telemetryRE = regexp.MustCompile(`telemetry on (http://[^/\s]+)/metrics`)
)

// startServer spawns the server with its default runtime settings on
// kernel-chosen ports and parses both from its log lines.
func startServer(bin string, args []string) (*server, error) {
	// Flags in args come later on the command line and so override these.
	args = append([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-cores", "1", "-size", "256MiB"}, args...)
	onAddr, addrCh := firstMatch(listenRE)
	onMetrics, metricsCh := firstMatch(telemetryRE)
	c, err := startChild(bin, args, func(line string) {
		onAddr(line)
		onMetrics(line)
	})
	if err != nil {
		return nil, err
	}
	s := &server{child: c, hc: &http.Client{Timeout: 5 * time.Second}}
	deadline := time.After(15 * time.Second)
	for s.addr == "" || s.metrics == "" {
		select {
		case s.addr = <-addrCh:
		case s.metrics = <-metricsCh:
		case <-c.exited:
			tail := c.stderrTail()
			c.kill()
			return nil, fmt.Errorf("server exited during start-up:\n%s", tail)
		case <-deadline:
			tail := c.stderrTail()
			c.kill()
			return nil, fmt.Errorf("server did not report its ports within 15s:\n%s", tail)
		}
	}
	return s, nil
}

func (s *server) getJSON(path string, v any) error {
	resp, err := s.hc.Get(s.metrics + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// srvMetric is one entry of the server's registry snapshot.
type srvMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Hist  *struct {
		Count uint64
		P50   int64
	} `json:"hist"`
}

// srvVars is what the benchmark reads from the server's /debug/vars: the
// Go runtime's memstats and, with full set, the registry snapshot that
// reflex-server publishes there (the same data /snapshot serves).
type srvVars struct {
	Memstats struct {
		Mallocs   uint64
		HeapInuse uint64
		NumGC     uint32
	} `json:"memstats"`
	Reflex struct {
		Metrics []srvMetric `json:"metrics"`
	} `json:"reflex"`
}

// sum adds every series of a metric family (all cores, devices, classes).
func (v *srvVars) sum(name string) float64 {
	var total float64
	for i := range v.Reflex.Metrics {
		if m := &v.Reflex.Metrics[i]; m.Name == name {
			total += m.Value
		}
	}
	return total
}

func (v *srvVars) histP50(name string) float64 {
	for i := range v.Reflex.Metrics {
		if m := &v.Reflex.Metrics[i]; m.Name == name && m.Hist != nil {
			return float64(m.Hist.P50)
		}
	}
	return 0
}

// clockTick is the kernel's USER_HZ; it is 100 on every Linux ABI Go
// supports, which is why /proc/<pid>/stat times are good to 10ms only.
const clockTick = 100

// procCPU returns a process's utime+stime in seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after ")".
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return float64(ut+st) / clockTick, nil
}

// procHWM returns a process's peak resident set in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
