package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
)

// The serve-mixed request stream and the load generator that sends it. The
// generator is the benchmark's own (not internal/load), so a change to the
// program cannot move the yardstick. It uses one HTTP client with at most
// serveConns connections; its open loop queues requests that find every
// connection busy and times each from when it was due, so a stall shows in
// the latency of every request queued behind it.

const serveConns = 2

// Request kinds. The stream mixes them 5:2:2:1, exactly in every block of
// ten requests (in a seeded order). This is internal/load's mix with one
// hit in ten traded for a cold solve: at 6:2:1:1 the p90 falls on the edge
// between warm and cold solves, where a run's share of cold requests swings
// it.
const (
	kindHit     = "hit"     // one fixed query: an exact cache hit after the first solve
	kindWarm    = "warm"    // a fresh bound on the same LP family: a warm-started solve
	kindCold    = "cold"    // a fresh horizon: a new family, solved cold
	kindObserve = "observe" // 32 workload slices into the model's online adapter
)

type request struct {
	kind   string
	path   string
	body   []byte
	opts   core.Options // optimize: the options the server solves under
	counts []int        // observe: the slices sent
}

// reply holds the fields of an optimize or observe response the checks use.
type reply struct {
	Status       string  `json:"status"`
	Feasible     bool    `json:"feasible"`
	Objective    float64 `json:"objective"`
	Cache        string  `json:"cache"`
	Pivots       int     `json:"pivots"`
	RefreshError string  `json:"refresh_error"`
}

type boundBody struct {
	Metric string  `json:"metric"`
	Rel    string  `json:"rel"`
	Value  float64 `json:"value"`
}

type optimizeBody struct {
	Model   string      `json:"model"`
	Horizon float64     `json:"horizon,omitempty"`
	Bounds  []boundBody `json:"bounds"`
}

type observeBody struct {
	Counts []int `json:"counts"`
}

// serveRequests generates the seeded request stream against the "disk"
// preset.
func serveRequests(seed int64, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, n)
	block := []string{kindHit, kindHit, kindHit, kindHit, kindHit, kindWarm, kindWarm, kindCold, kindCold, kindObserve}
	for i := range out {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		r := request{kind: block[i%len(block)]}
		horizon, bound := 0.0, 1.5
		switch r.kind {
		case kindWarm:
			bound = 1.2 + 1.3*rng.Float64()
		case kindCold:
			horizon = 1e4 * (1 + 99*rng.Float64())
		}
		var body any
		if r.kind == kindObserve {
			r.counts = make([]int, 32)
			for j := range r.counts {
				r.counts[j] = rng.Intn(4)
			}
			r.path, body = "/v1/models/disk/observe", observeBody{r.counts}
		} else {
			r.path = "/v1/optimize"
			body = optimizeBody{Model: "disk", Horizon: horizon, Bounds: []boundBody{{core.MetricPenalty, "<=", bound}}}
			if horizon == 0 {
				horizon = 1e5
			}
			r.opts = optimizeOptions(horizon, bound)
		}
		var err error
		if r.body, err = json.Marshal(body); err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// optimizeOptions is the server's reading of an optimize request on the
// "disk" preset: uniform q0, minimum penalty, no evaluation pass, and
// penalty <= bound when bound > 0.
func optimizeOptions(horizon, bound float64) core.Options {
	o := core.Options{
		Alpha:          core.HorizonToAlpha(horizon),
		Objective:      core.Objective{Metric: core.MetricPenalty, Sense: lp.Minimize},
		SkipEvaluation: true,
	}
	if bound > 0 {
		o.Bounds = []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: bound}}
	}
	return o
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// send posts one request and decodes its reply; a non-2xx status is an
// error.
func send(ctx context.Context, c *http.Client, base string, r *request) (reply, error) {
	var rep reply
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return rep, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return rep, err
	}
	if resp.StatusCode/100 != 2 {
		return rep, fmt.Errorf("%s: status %d: %s", r.path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: decoding reply: %w", r.path, err)
	}
	return rep, nil
}

// sample is one request as the generator saw it.
type sample struct {
	sent  bool
	lat   time.Duration // to the full reply from the send (closed loop) or the due time (open loop; see openLoop)
	late  time.Duration // open loop: how far past its due time the generator woke to send
	queue time.Duration // open loop: how long it waited for a free connection
	reply reply
	err   error
}

// closedLoop sends reqs over serveConns connections, each sending its next
// request when the previous reply lands, until all are sent or the deadline
// passes, and returns the wall time.
func closedLoop(ctx context.Context, c *http.Client, base string, reqs []request, deadline time.Time) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs) && time.Now().Before(deadline); i = int(next.Add(1)) - 1 {
				t0 := time.Now()
				rep, err := send(ctx, c, base, &reqs[i])
				out[i] = sample{sent: true, lat: time.Since(t0), reply: rep, err: err}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// openLoop sends request i at start + i/rate over serveConns connections.
// A request whose connection is still busy at its due time waits for it —
// queued, never dropped — and its latency runs from the due time. A request
// that found a free connection runs from when the generator woke to send it:
// Go's timers fire up to a millisecond late here, which would otherwise add
// the timer's granularity to every latency. That lateness is reported on its
// own (gen.late_ms). No request is sent after the deadline.
func openLoop(ctx context.Context, c *http.Client, base string, reqs []request, rate float64, deadline time.Time) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs) && time.Now().Before(deadline); i = int(next.Add(1)) - 1 {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				s := sample{sent: true}
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					from = time.Now()
					s.late = from.Sub(due)
				} else {
					s.queue = -wait
				}
				s.reply, s.err = send(ctx, c, base, &reqs[i])
				s.lat = time.Since(from)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}
