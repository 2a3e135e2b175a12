package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// setFile is one full set of runs: every workload's end-to-end metrics
// and, when the traced runs were made too, its per-layer metrics.
type setFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seconds     int         `json:"seconds"`
	// HostDrift labels a set measured while the host's bare echo rate was
	// more than 15% off reference.json: compare it with suspicion.
	HostDrift bool                    `json:"host_drift"`
	Workloads map[string]*setWorkload `json:"workloads"`
}

type setWorkload struct {
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
}

func (s *setFile) correct() bool {
	for _, w := range s.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

// runSet runs every workload once untraced and, with layers, once traced.
func runSet(e *env, fp fingerprint, seed int64, seconds int, layers bool) (*setFile, error) {
	set := &setFile{Fingerprint: fp, Seconds: seconds, Workloads: map[string]*setWorkload{}}
	for i := range workloads {
		w := &workloads[i]
		res, err := runEndToEnd(e, w, seed, seconds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		sw := &setWorkload{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, EndToEnd: res.Metrics}
		set.Workloads[w.name] = sw
		if !layers {
			continue
		}
		if res, err = runPerLayer(e, w, seed, seconds); err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
		sw.Correct = sw.Correct && res.Correct
		sw.Attempted += res.Attempted
		sw.Failed += res.Failed
		sw.PerLayer = res.Metrics
		set.HostDrift = set.HostDrift || res.hostDrift
	}
	if pm := set.Workloads["paced_mix"]; layers && pm != nil {
		// ROADMAP item 1(a)'s table against the untraced paced_mix figure,
		// the per-core efficiency number of the set.
		vals := map[string]float64{}
		for name, v := range pm.PerLayer {
			vals[name] = v.Value
		}
		reconcile(e.log, "paced_mix (untraced run)", vals, pm.EndToEnd["srv_cpu_us_per_op"].Value)
		fmt.Fprintf(e.log, "obs.trace_overhead_pct on paced_mix: %.2f %%\n", pm.PerLayer["obs.trace_overhead_pct"].Value)
	}
	if set.HostDrift {
		fmt.Fprintln(e.log, "host_drift: host.echo_msgs_per_s is more than 15% off reference.json")
	}
	return set, nil
}

// benchmarkJSON is the part of BENCHMARK.json the tools read.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(root string) (*benchmarkJSON, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	return &bj, json.Unmarshal(b, &bj)
}

// worse returns by how much of a b is worse than a (negative: better);
// a is not 0.
func worse(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints one row per workload and end-to-end metric of two
// set files and returns 1 when B is worse than A by more than a bound, a
// metric is missing or 0 (no end-to-end metric is ever 0), a workload of
// either set had failed operations or B's had more than A's. Sets of
// different run lengths are not compared at all.
func compareSets(w io.Writer, root, pathA, pathB string) int {
	bj, err := loadBenchmarkJSON(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var a, b setFile
	for _, f := range []struct {
		path string
		into *setFile
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(raw, f.into)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", f.path, err)
			return 2
		}
	}
	if a.Seconds != b.Seconds {
		fmt.Fprintf(os.Stderr, "bench: %s measured %d s per run, %s %d s: not comparable\n", pathA, a.Seconds, pathB, b.Seconds)
		return 2
	}
	if a.HostDrift || b.HostDrift {
		fmt.Fprintln(w, "host_drift: at least one set was measured off the reference host rate")
	}
	exceeded := 0
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, wl := range bj.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-16s missing from a set\n", wl.Name)
			exceeded++
			continue
		}
		if !wa.Correct || !wb.Correct || wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%-16s failed operations: A %d of %d, B %d of %d\n", wl.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			exceeded++
		}
		for _, m := range bj.EndToEnd {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			if va <= 0 || vb <= 0 {
				fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f  missing or 0: EXCEEDED\n", wl.Name, m.Name, va, vb)
				exceeded++
				continue
			}
			d := worse(va, vb, m.Better)
			mark := ""
			if d > m.Bound {
				mark = "  EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %+8.2f%% %6.1f%%%s\n", wl.Name, m.Name, va, vb, 100*d, 100*m.Bound, mark)
		}
	}
	if exceeded > 0 {
		fmt.Fprintf(w, "%d rows exceed their bound\n", exceeded)
		return 1
	}
	return 0
}

// runSets runs n end-to-end sets back to back and prints, per workload
// and metric, the values, their largest pairwise difference and the
// bound that difference implies: max(5%, twice the difference).
func runSets(e *env, fp fingerprint, n int, seed int64, seconds int) int {
	var all []*setFile
	for i := 0; i < n; i++ {
		fmt.Fprintf(e.log, "\n== set %d of %d ==\n", i+1, n)
		set, err := runSet(e, fp, seed+int64(i), seconds, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !set.correct() {
			return 1
		}
		all = append(all, set)
	}
	fmt.Fprintf(e.log, "\n%-16s %-20s %12s %12s %9s %9s\n", "workload", "metric", "min", "max", "spread", "implies")
	for i := range workloads {
		for _, m := range endToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, set := range all {
				v := set.Workloads[workloads[i].name].EndToEnd[m.name].Value
				lo, hi = min(lo, v), max(hi, v)
			}
			spread := (hi - lo) / lo
			fmt.Fprintf(e.log, "%-16s %-20s %12.4f %12.4f %8.2f%% %8.1f%%\n",
				workloads[i].name, m.name, lo, hi, 100*spread, 100*max(0.05, 2*spread))
		}
	}
	return 0
}
