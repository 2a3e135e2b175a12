// Command bench is the repository's benchmark: it builds reflex-server,
// runs it as a child process with its default runtime settings and one
// dataplane core, drives it over loopback TCP through internal/client
// with at most two connections (a closed-loop load connection and a QD1
// probe), verifies every payload and reports the metrics BENCHMARK.json
// lists. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	compare  bool
	sets     int
	root     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all for a full set (every workload, untraced and traced)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: block choice, operation order, Zipf permutation")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per run (six segments; each metric is the median of its segment values)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics (ledger, counters, traced pass)")
	flag.StringVar(&o.out, "out", "", "with -workload all: write the set to this JSON file")
	flag.BoolVar(&o.compare, "compare", false, "compare two set files: bench -compare A.json B.json")
	flag.IntVar(&o.sets, "sets", 0, "run this many end-to-end sets back to back and print their spread and the bounds it implies")
	flag.StringVar(&o.root, "root", "..", "repository root; the default suits go run from bench/")
	echo := flag.Bool("echo-child", false, "internal: run as the host-reference echo peer")
	flag.Parse()

	if *echo {
		if err := echoChild(); err != nil {
			fmt.Fprintln(os.Stderr, "echo:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(o))
}

func run(o options) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two set files"))
		}
		return compareSets(os.Stdout, o.root, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds < fullShape.segs {
		return fail(fmt.Errorf("-seconds %d: need at least one second for each of the %d segments", o.seconds, fullShape.segs))
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	e := newEnv(o.root, self, os.Stdout)
	if e.serverBin, err = buildServer(e.benchDir, e.outDir); err != nil {
		return fail(err)
	}

	// Children die with the benchmark on every path: normal return, error,
	// signal, and a watchdog for a run that outlives any sane duration
	// (a wedged server would otherwise hold the generators forever, since
	// no request carries a timer).
	defer killChildren()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()
	budget := time.Duration(o.seconds)*time.Second + 120*time.Second
	if o.workload == "all" || o.sets > 0 {
		budget *= time.Duration(2 * len(workloads) * max(o.sets, 1))
	}
	watchdog := time.AfterFunc(budget, func() {
		fmt.Fprintf(os.Stderr, "bench: run exceeded %v, killing children\n", budget)
		killChildren()
		os.Exit(3)
	})
	defer watchdog.Stop()

	fp := hostFingerprint(o.root, o.seed)
	fmt.Fprintf(e.log, "host: %s, nproc %d, kernel %s, %s, GOMAXPROCS %d, commit %s, seed %d\n",
		fp.CPUModel, fp.NumCPU, fp.Kernel, fp.GoVersion, fp.GOMAXPROCS, fp.Commit, fp.Seed)

	switch {
	case o.sets > 0:
		return runSets(e, fp, o.sets, o.seed, o.seconds)
	case o.workload == "all":
		set, err := runSet(e, fp, o.seed, o.seconds, true)
		if err != nil {
			return fail(err)
		}
		if o.out != "" {
			if err := writeJSON(o.out, set); err != nil {
				return fail(err)
			}
		}
		if !set.correct() {
			return 1
		}
		return 0
	}

	w := findWorkload(o.workload)
	if w == nil {
		return fail(fmt.Errorf("unknown workload %q", o.workload))
	}
	var res *result
	if o.trace == 1 {
		res, err = runPerLayer(e, w, o.seed, o.seconds)
	} else {
		res, err = runEndToEnd(e, w, o.seed, o.seconds)
	}
	if err != nil {
		return fail(err)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed; first: %v\n", res.Failed, res.Attempted, res.firstErr)
	}
	// The driver reads the last line of standard output.
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// buildServer compiles cmd/reflex-server into outDir. The build runs in
// the benchmark's own module, which requires the repository's through a
// replace directive, so outside the repository there is nothing to build
// and the benchmark fails here.
func buildServer(benchDir, outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "reflex-server"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "github.com/reflex-go/reflex/cmd/reflex-server")
	cmd.Dir = benchDir
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build reflex-server: %w", err)
	}
	return bin, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
