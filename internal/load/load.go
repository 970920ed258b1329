// Package load is a closed-loop (and optionally open-loop) load generator
// for the dpmserved HTTP API: it drives a configurable mix of exact-hit,
// warm-start, cold-solve and observe traffic at a fixed concurrency and
// measures the latency distribution with mergeable log-bucketed histograms
// (internal/obs). cmd/dpmload is the CLI; the package is also driven
// in-process by tests against httptest servers.
//
// Traffic kinds map onto the server's cache regimes:
//
//   - "hit": the same optimize query every time — after the first solve,
//     every request is an exact fingerprint hit (no simplex work).
//   - "warm": a fresh bound value drawn from a continuous range on every
//     request — same LP family, so each solve warm-starts from the nearest
//     cached basis.
//   - "cold": a fresh discount horizon on every request — a new query
//     family, so each solve starts from scratch.
//   - "observe": a batch of workload slice counts into the model's online
//     adapter (drift-triggered re-solves ride on these).
//
// In closed-loop mode each of Workers goroutines issues its next request as
// soon as the previous response lands, so offered load adapts to service
// rate (throughput-bounded). With Rate > 0 the generator switches to open
// loop: arrivals fire on a fixed schedule regardless of completions, and
// arrivals that find every worker busy are counted as shed rather than
// queued without bound.
package load

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

	"repro/internal/obs"
	"repro/internal/server"
)

// Kind names, also the keys of Result.Kinds.
const (
	KindHit     = "hit"
	KindWarm    = "warm"
	KindCold    = "cold"
	KindObserve = "observe"
)

// Mix weights the traffic kinds; zero-valued kinds are not issued. The zero
// Mix selects the default 6:2:1:1 hit:warm:cold:observe blend (a serving
// cache is useful exactly when most traffic repeats).
type Mix struct {
	Hit, Warm, Cold, Observe int
}

func (m Mix) orDefault() Mix {
	if m == (Mix{}) {
		return Mix{Hit: 6, Warm: 2, Cold: 1, Observe: 1}
	}
	return m
}

func (m Mix) total() int { return m.Hit + m.Warm + m.Cold + m.Observe }

// Config tunes one load run. BaseURL is required; everything else defaults.
type Config struct {
	BaseURL string
	Model   string // target model id or name (default "disk")

	Workers     int           // concurrency (default 4)
	Duration    time.Duration // stop after this long (0: unbounded)
	MaxRequests int           // stop after this many requests (0: unbounded)
	Rate        float64       // open-loop arrivals/s across all workers (0: closed loop)
	Mix         Mix
	Timeout     time.Duration // per-request budget (default 30s)
	Seed        int64         // rng seed (default 1)
	Client      *http.Client  // default http.DefaultClient with Timeout

	// ProgressEvery, when positive and Progress is set, emits an interim
	// ProgressReport on that interval while the run is in flight. The
	// report is assembled by merging the workers' private histograms into a
	// scratch one (histogram recording is atomic, so the merge races with
	// nothing), leaving the measurement path untouched.
	ProgressEvery time.Duration
	Progress      func(ProgressReport)
}

// ProgressReport is one interim snapshot of a running load: completed
// requests, offered rate so far, and latency quantiles so far.
type ProgressReport struct {
	Elapsed   time.Duration
	Requests  int64
	ReqPerSec float64
	P50MS     float64
	P99MS     float64
}

// KindStats is the per-kind slice of a Result.
type KindStats struct {
	Requests int64
	Errors   int64
	Latency  *obs.Histogram // nanoseconds
}

// Result is one load run's measurement.
type Result struct {
	Concurrency int
	OpenLoop    bool
	Elapsed     time.Duration
	Requests    int64
	Errors      int64
	Shed        int64 // open-loop arrivals dropped because all workers were busy
	Latency     *obs.Histogram
	Kinds       map[string]*KindStats
	CacheModes  map[string]int64 // optimize responses by reported cache mode
}

// Throughput returns completed requests per second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// QuantileMS returns the q-quantile of the overall latency distribution in
// milliseconds.
func (r *Result) QuantileMS(q float64) float64 { return r.Latency.Quantile(q) / 1e6 }

// worker accumulates into private histograms, merged into the shared result
// at the end — the merge path obs.Histogram promises, exercised for real.
type worker struct {
	rng     *rand.Rand
	latency *obs.Histogram
	kinds   map[string]*KindStats
	errs    int64
	n       int64
	modes   map[string]int64
}

// Run executes the load run until the duration elapses, the request budget
// is exhausted, or ctx is cancelled — whichever comes first.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("load: BaseURL required")
	}
	if cfg.Model == "" {
		cfg.Model = "disk"
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Duration <= 0 && cfg.MaxRequests <= 0 {
		return nil, fmt.Errorf("load: need Duration or MaxRequests to bound the run")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: cfg.Timeout}
	}
	mix := cfg.Mix.orDefault()
	if mix.total() <= 0 {
		return nil, fmt.Errorf("load: mix has no positive weights")
	}

	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	res := &Result{
		Concurrency: cfg.Workers,
		OpenLoop:    cfg.Rate > 0,
		Latency:     obs.NewLatencyHistogram(),
		Kinds:       make(map[string]*KindStats),
		CacheModes:  make(map[string]int64),
	}
	for _, k := range []string{KindHit, KindWarm, KindCold, KindObserve} {
		res.Kinds[k] = &KindStats{Latency: obs.NewLatencyHistogram()}
	}

	var issued atomic.Int64 // requests started, enforcing MaxRequests
	claim := func() bool {
		if cfg.MaxRequests <= 0 {
			return ctx.Err() == nil
		}
		return ctx.Err() == nil && issued.Add(1) <= int64(cfg.MaxRequests)
	}

	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		workers[i] = &worker{
			rng:     rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			latency: obs.NewLatencyHistogram(),
			kinds:   make(map[string]*KindStats),
			modes:   make(map[string]int64),
		}
		for _, k := range []string{KindHit, KindWarm, KindCold, KindObserve} {
			workers[i].kinds[k] = &KindStats{Latency: obs.NewLatencyHistogram()}
		}
	}

	started := time.Now()
	progressDone := make(chan struct{})
	var progressWG sync.WaitGroup
	if cfg.ProgressEvery > 0 && cfg.Progress != nil {
		progressWG.Add(1)
		go func() {
			defer progressWG.Done()
			tick := time.NewTicker(cfg.ProgressEvery)
			defer tick.Stop()
			for {
				select {
				case <-progressDone:
					return
				case <-tick.C:
				}
				// Worker counters (w.n) are unsynchronized by design; the
				// merged histogram's count is the race-free request total.
				agg := obs.NewLatencyHistogram()
				for _, w := range workers {
					_ = agg.Merge(w.latency) // identical layouts; cannot fail
				}
				snap := agg.Snapshot()
				rp := ProgressReport{
					Elapsed:  time.Since(started),
					Requests: snap.Count,
					P50MS:    snap.Quantile(0.50) / 1e6,
					P99MS:    snap.Quantile(0.99) / 1e6,
				}
				if s := rp.Elapsed.Seconds(); s > 0 {
					rp.ReqPerSec = float64(snap.Count) / s
				}
				cfg.Progress(rp)
			}
		}()
	}
	var wg sync.WaitGroup
	if cfg.Rate > 0 {
		// Open loop: arrivals on a fixed schedule; a semaphore of Workers
		// slots models the serving concurrency, and arrivals that find no
		// free slot are shed (counted, not queued — unbounded queues would
		// turn the open loop back into a closed one with extra steps).
		sem := make(chan *worker, cfg.Workers)
		for _, w := range workers {
			sem <- w
		}
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
	arrivals:
		for ctx.Err() == nil {
			select {
			case <-ctx.Done():
				break arrivals
			case <-tick.C:
			}
			select {
			case w := <-sem:
				if !claim() {
					break arrivals
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.issue(ctx, cfg, mix)
					sem <- w
				}()
			default:
				// All workers busy: the arrival is shed, not queued.
				res.Shed++
			}
		}
	} else {
		for _, w := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for claim() {
					w.issue(ctx, cfg, mix)
				}
			}(w)
		}
	}
	wg.Wait()
	close(progressDone)
	progressWG.Wait()
	res.Elapsed = time.Since(started)

	for _, w := range workers {
		if err := res.Latency.Merge(w.latency); err != nil {
			return nil, err
		}
		res.Requests += w.n
		res.Errors += w.errs
		for k, ks := range w.kinds {
			dst := res.Kinds[k]
			dst.Requests += ks.Requests
			dst.Errors += ks.Errors
			if err := dst.Latency.Merge(ks.Latency); err != nil {
				return nil, err
			}
		}
		for m, n := range w.modes {
			res.CacheModes[m] += n
		}
	}
	return res, nil
}

// pick selects a traffic kind by mix weight.
func (w *worker) pick(mix Mix) string {
	n := w.rng.Intn(mix.total())
	switch {
	case n < mix.Hit:
		return KindHit
	case n < mix.Hit+mix.Warm:
		return KindWarm
	case n < mix.Hit+mix.Warm+mix.Cold:
		return KindCold
	}
	return KindObserve
}

// issue sends one request of a mix-chosen kind and records its latency.
func (w *worker) issue(ctx context.Context, cfg Config, mix Mix) {
	kind := w.pick(mix)
	path, body := w.request(kind, cfg.Model)
	t0 := time.Now()
	mode, err := post(ctx, cfg.Client, cfg.BaseURL+path, body)
	lat := time.Since(t0)

	w.n++
	w.latency.ObserveDuration(lat)
	ks := w.kinds[kind]
	ks.Requests++
	ks.Latency.ObserveDuration(lat)
	if err != nil {
		// A cancelled run's in-flight request is not a server failure.
		if ctx.Err() != nil {
			w.n--
			ks.Requests--
			return
		}
		w.errs++
		ks.Errors++
		return
	}
	if mode != "" {
		w.modes[mode]++
	}
}

// request builds one body for the chosen kind.
func (w *worker) request(kind, model string) (string, any) {
	penalty := func(v float64) []server.BoundSpec {
		return []server.BoundSpec{{Metric: "penalty", Rel: "<=", Value: v}}
	}
	switch kind {
	case KindHit:
		// One fixed query: everything after the first solve is an exact hit.
		return "/v1/optimize", server.OptimizeRequest{Model: model, Bounds: penalty(1.5)}
	case KindWarm:
		// Fresh bound value, same family: warm-started solves.
		return "/v1/optimize", server.OptimizeRequest{Model: model, Bounds: penalty(1.2 + 1.3*w.rng.Float64())}
	case KindCold:
		// Fresh horizon, fresh family: cold solves.
		h := 1e4 * (1 + 99*w.rng.Float64())
		return "/v1/optimize", server.OptimizeRequest{Model: model, Horizon: h, Bounds: penalty(1.5)}
	}
	// Observe: a small slice batch with no optimization options, so every
	// request is compatible with the adapter the first one created.
	counts := make([]int, 32)
	for i := range counts {
		counts[i] = w.rng.Intn(4)
	}
	return "/v1/models/" + model + "/observe", server.ObserveRequest{Counts: counts}
}

// post issues one JSON POST and returns the response's cache mode (empty
// for observe responses, which carry none). Any non-2xx status is an error.
func post(ctx context.Context, client *http.Client, url string, body any) (string, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out server.OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("%s: decoding response: %w", url, err)
	}
	return out.Cache, nil
}
