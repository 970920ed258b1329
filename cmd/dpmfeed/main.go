// Command dpmfeed streams a synthetic drifting workload at a dpmserved
// daemon's online-adaptation endpoint, exercising the whole loop end to
// end: generate a two-regime Markov-modulated trace whose (p01, p10) switch
// mid-stream, POST it in chunks to /v1/models/{id}/observe, and report what
// the daemon's drift controller did with each chunk — ingest only, or a
// policy refresh (initial or drift-triggered), with its LP patch/rebuild
// path, warm-start status and pivot count.
//
// Usage:
//
//	dpmfeed -url http://localhost:8080 -model disk \
//	        -slices 3000 -flip 1500 -chunk 50 \
//	        -p01 0.03 -p10 0.25 -p01b 0.20 -p10b 0.10 \
//	        -bounds 'penalty<=1.8' -objective power -horizon 1e4
//
// The exit status is nonzero on transport or server errors, and — with
// -expect-drift (the default) — when the stream completes without a single
// drift-triggered refresh, which makes the command usable as a smoke-test
// assertion as well as a demo.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	var cfg feedConfig
	flag.StringVar(&cfg.url, "url", "http://localhost:8080", "dpmserved base URL")
	flag.StringVar(&cfg.model, "model", "disk", "model id or registered name to adapt")
	flag.IntVar(&cfg.slices, "slices", 3000, "total workload slices to stream")
	flag.IntVar(&cfg.flip, "flip", 0, "slice at which the regime switches (default: halfway)")
	flag.IntVar(&cfg.chunk, "chunk", 50, "slices per observe request")
	flag.Float64Var(&cfg.p01, "p01", 0.03, "idle→busy probability of the first regime")
	flag.Float64Var(&cfg.p10, "p10", 0.25, "busy→idle probability of the first regime")
	flag.Float64Var(&cfg.p01b, "p01b", 0.20, "idle→busy probability after the flip")
	flag.Float64Var(&cfg.p10b, "p10b", 0.10, "busy→idle probability after the flip")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload generator seed")

	// The observe body: every chunk is sent with these settings.
	req := &cfg.req
	flag.StringVar(&req.Objective, "objective", "power", "objective metric the refreshed policies minimize")
	flag.Float64Var(&req.Horizon, "horizon", 1e4, "expected session length in slices")
	bounds := flag.String("bounds", "penalty<=1.8", "comma-separated metric bounds, e.g. 'penalty<=1.8'")
	timeout := flag.Duration("timeout", 0, "per-refresh solve budget (0: server default)")

	flag.IntVar(&req.Memory, "memory", 1, "estimator history length k")
	flag.Float64Var(&req.Decay, "decay", 0.995, "estimator per-slice decay factor")
	flag.Float64Var(&req.DriftThreshold, "drift-threshold", 0.05, "max per-row TV distance before a re-solve")
	flag.IntVar(&req.MinSlices, "min-slices", 300, "observed transitions before the first solve")
	flag.Float64Var(&req.MinEvidence, "min-evidence", 8, "decayed row evidence floor for the drift measure")
	flag.IntVar(&req.CheckEvery, "check-every", 25, "ingested slices between drift checks")

	flag.BoolVar(&cfg.expectDrift, "expect-drift", true, "exit nonzero unless ≥1 drift refresh happened")
	flag.BoolVar(&cfg.quiet, "q", false, "only print refresh lines and the summary")
	flag.Parse()

	cfg.url = strings.TrimRight(cfg.url, "/")
	req.TimeoutMS = int(*timeout / time.Millisecond)
	var err error
	if req.Bounds, err = boundSpecs(*bounds); err == nil {
		err = run(os.Stdout, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpmfeed: %v\n", err)
		os.Exit(1)
	}
}

// boundSpecs parses a -bounds flag into the wire's constraint rows.
func boundSpecs(s string) ([]server.BoundSpec, error) {
	bounds, err := cli.ParseBounds(s)
	if err != nil {
		return nil, err
	}
	specs := make([]server.BoundSpec, len(bounds))
	for i, b := range bounds {
		specs[i] = server.BoundSpec{Metric: b.Metric, Rel: b.Rel.String(), Value: b.Value}
	}
	return specs, nil
}

// feedConfig is one stream: the generated workload, and req, the observe
// body every chunk is sent with (its Counts replaced by the chunk's).
type feedConfig struct {
	url, model           string
	slices, flip, chunk  int
	p01, p10, p01b, p10b float64
	seed                 int64
	expectDrift, quiet   bool
	req                  server.ObserveRequest
}

func run(w io.Writer, cfg feedConfig) error {
	if cfg.slices < 2 || cfg.chunk < 1 {
		return fmt.Errorf("need -slices ≥ 2 and -chunk ≥ 1")
	}
	flip := cfg.flip
	if flip <= 0 || flip >= cfg.slices {
		flip = cfg.slices / 2
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	counts := trace.Concat(
		trace.OnOff(rng, flip, cfg.p01, cfg.p10),
		trace.OnOff(rng, cfg.slices-flip, cfg.p01b, cfg.p10b),
	)
	fmt.Fprintf(w, "dpmfeed: streaming %d slices at %s/v1/models/%s/observe (regime flip at %d: (%.3g,%.3g)→(%.3g,%.3g))\n",
		len(counts), cfg.url, cfg.model, flip, cfg.p01, cfg.p10, cfg.p01b, cfg.p10b)

	client := &http.Client{Timeout: 5 * time.Minute}
	driftRefreshes, refreshes, pivots := 0, 0, 0
	req := cfg.req
	for lo := 0; lo < len(counts); lo += cfg.chunk {
		hi := min(lo+cfg.chunk, len(counts))
		req.Counts = counts[lo:hi]
		var resp server.ObserveResponse
		if err := post(client, cfg.url+"/v1/models/"+cfg.model+"/observe", &req, &resp); err != nil {
			return fmt.Errorf("slices [%d,%d): %w", lo, hi, err)
		}
		if resp.RefreshError != "" {
			fmt.Fprintf(w, "slice %5d  refresh failed: %s\n", hi, resp.RefreshError)
			continue
		}
		if resp.Refreshed {
			refreshes++
			pivots += resp.Pivots
			path := "rebuilt"
			if resp.Patched {
				path = "patched"
			}
			solve := "cold"
			if resp.WarmStarted {
				solve = "warm"
			}
			if resp.Trigger == "drift" {
				driftRefreshes++
			}
			fmt.Fprintf(w, "slice %5d  %s refresh (%s, %s): drift %.3f, %d pivots, objective %.5f, %.1f ms\n",
				hi, resp.Trigger, path, solve, resp.Drift, resp.Pivots, resp.Objective, resp.ElapsedMS)
		} else if !cfg.quiet {
			fmt.Fprintf(w, "slice %5d  ingested (drift %.3f, serving %v)\n", hi, resp.Drift, resp.Serving)
		}
	}
	fmt.Fprintf(w, "dpmfeed: done — %d refreshes (%d drift-triggered), %d refresh pivots total\n",
		refreshes, driftRefreshes, pivots)
	if cfg.expectDrift && driftRefreshes == 0 {
		return fmt.Errorf("no drift-triggered refresh over %d slices", len(counts))
	}
	return nil
}

func post(client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}
