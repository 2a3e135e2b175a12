package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"github.com/reflex-go/reflex/internal/obs"
)

// wireSpan is a span as the server's /traces endpoint renders it.
type wireSpan struct {
	ID     uint64           `json:"id"`
	Tenant int              `json:"tenant"`
	Op     string           `json:"op"`
	Trace  uint64           `json:"trace"`
	Parent uint64           `json:"parent"`
	Node   string           `json:"node,omitempty"`
	Hop    string           `json:"hop"`
	Stamps map[string]int64 `json:"stamps_ns"`
}

// tracePoller collects the server's serve spans while a traced pass runs:
// /traces returns the 64 most recent spans per call, so it is polled
// every 10ms and the spans are kept by trace id. It samples; it does not
// see every request, and beside a load connection most of each call is
// the load's spans.
type tracePoller struct {
	srv   *server
	spans map[uint64]wireSpan // the poller's alone until finish has waited for it
	stop  chan struct{}
	done  chan struct{}
}

func startTracePoller(srv *server) *tracePoller {
	tp := &tracePoller{srv: srv, spans: map[uint64]wireSpan{}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(tp.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tp.stop:
				return
			case <-tick.C:
			}
			var batch []wireSpan
			if err := srv.getJSON("/traces", &batch); err != nil {
				continue // a missed poll only thins the sample
			}
			for _, sp := range batch {
				if sp.Trace != 0 && sp.Hop == "serve" {
					tp.spans[sp.Trace] = sp
				}
			}
		}
	}()
	return tp
}

func (tp *tracePoller) finish() map[uint64]wireSpan {
	close(tp.stop)
	<-tp.done
	return tp.spans
}

// joined is one probe request seen from both sides.
type joined struct {
	Root  obs.Span `json:"root"`
	Serve wireSpan `json:"serve"`
}

var stageOrder = []string{"arrival", "parse", "admit", "submit", "devdone", "tx"}

// stageMetrics maps each server stage transition to the layer it is
// charged to, in stageOrder.
var stageMetrics = []string{
	"server.stage_parse_us",
	"core.stage_token_wait_us",
	"server.stage_submit_us",
	"storage.stage_device_us",
	"server.stage_tx_us",
}

// traceMetrics joins the benchmark's root spans with the server's serve
// spans by trace id and returns the mean self time of each stage, the
// probe reads' residence percentiles, the joined pairs for the span file
// and the mean root span. The root span's self time
// (client.stage_outside_us) is by definition the root minus the serve
// span it covers — the two processes share no clock to measure it by — so
// the six stage means add up to the mean root span by construction, not
// as a check.
func traceMetrics(roots []obs.Span, serve map[uint64]wireSpan, out map[string]float64) (pairs []joined, rootMean float64) {
	stage := make([]float64, len(stageMetrics))
	var outside, rootSum float64
	var residence, rootReads []int64
	for _, r := range roots {
		sv, ok := serve[r.Trace]
		if !ok {
			continue
		}
		pairs = append(pairs, joined{r, sv})
		// A stage the server did not stamp takes no time: carry the
		// previous stamp forward so the chain still telescopes.
		prev := sv.Stamps[stageOrder[0]]
		first := prev
		for i, name := range stageOrder[1:] {
			at, ok := sv.Stamps[name]
			if !ok || at < prev {
				at = prev
			}
			stage[i] += float64(at - prev)
			prev = at
		}
		inside := prev - first
		total := r.Total()
		outside += float64(total - inside)
		rootSum += float64(total)
		if !r.Write {
			residence = append(residence, inside)
			rootReads = append(rootReads, total)
		}
	}
	n := float64(len(pairs))
	if n == 0 {
		n = 1
	}
	for i, name := range stageMetrics {
		out[name] = stage[i] / n / 1e3
	}
	out["client.stage_outside_us"] = outside / n / 1e3
	out["obs.trace_joined_spans"] = float64(len(pairs))
	res, rr := sortedCopy(residence), sortedCopy(rootReads)
	out["server.residence_read_p50_us"] = quantile(res, 0.50) / 1e3
	out["server.residence_read_p95_us"] = quantile(res, 0.95) / 1e3
	out["client.outside_server_p50_us"] = (quantile(rr, 0.50) - quantile(res, 0.50)) / 1e3
	return pairs, rootSum / n / 1e3
}

// writeSpans writes the joined spans of one workload's traced pass.
func writeSpans(dir, workload string, pairs []joined) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(pairs)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
