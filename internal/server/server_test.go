package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/obs"
)

// newTestServer starts a Server over httptest and returns it with its base
// URL.
func newTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	s, err := New(Config{CacheSize: 128, DefaultTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs.URL
}

// call posts (or gets) JSON and decodes the response body into out,
// returning the HTTP status.
func call(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func counter(t *testing.T, base, name string) int64 {
	t.Helper()
	var stats struct {
		Counters map[string]int64 `json:"counters"`
	}
	if st := call(t, http.MethodGet, base+"/v1/stats", nil, &stats); st != http.StatusOK {
		t.Fatalf("stats status %d", st)
	}
	v, ok := stats.Counters[name]
	if !ok {
		t.Fatalf("counter %q missing from /v1/stats", name)
	}
	return v
}

func TestPresetsRegisteredAndFingerprinted(t *testing.T) {
	_, base := newTestServer(t)
	var models []ModelInfo
	if st := call(t, http.MethodGet, base+"/v1/models", nil, &models); st != http.StatusOK {
		t.Fatalf("list status %d", st)
	}
	if len(models) != 7 {
		t.Fatalf("%d preset models, want 7", len(models))
	}
	seen := map[string]bool{}
	for _, m := range models {
		if len(m.ID) != 64 {
			t.Errorf("model %q id %q is not a sha256 hex fingerprint", m.Name, m.ID)
		}
		if seen[m.ID] {
			t.Errorf("duplicate fingerprint %s", m.ID)
		}
		seen[m.ID] = true
	}
}

// TestQueryStream replays the mixed query stream of the acceptance
// criteria: cold solve, exact repeat (zero pivots), near repeat (warm
// start, fewer pivots), a thundering herd (one solve), and a sweep whose
// points later answer optimize queries as exact hits.
func TestQueryStream(t *testing.T) {
	_, base := newTestServer(t)
	optimize := func(req OptimizeRequest) (*OptimizeResponse, int) {
		var resp OptimizeResponse
		st := call(t, http.MethodPost, base+"/v1/optimize", req, &resp)
		return &resp, st
	}
	diskReq := func(bound float64) OptimizeRequest {
		return OptimizeRequest{
			Model:     "disk",
			Objective: "power",
			Bounds:    []BoundSpec{{Metric: "penalty", Rel: "<=", Value: bound}},
		}
	}

	// 1. Cold solve.
	cold, st := optimize(diskReq(1.0))
	if st != http.StatusOK || !cold.Feasible {
		t.Fatalf("cold solve: status %d, feasible %v (%s)", st, cold.Feasible, cold.Status)
	}
	if cold.Cache != "cold" || cold.Pivots == 0 {
		t.Fatalf("cold solve: cache %q pivots %d, want cold with pivots > 0", cold.Cache, cold.Pivots)
	}

	// 2. Exact repeat: answered from cache without a single pivot.
	pivotsBefore := counter(t, base, "pivots")
	hit, _ := optimize(diskReq(1.0))
	if hit.Cache != "hit" || hit.Pivots != 0 {
		t.Errorf("repeat: cache %q pivots %d, want hit with 0 pivots", hit.Cache, hit.Pivots)
	}
	if hit.Objective != cold.Objective {
		t.Errorf("repeat objective %g != cold %g", hit.Objective, cold.Objective)
	}
	if d := counter(t, base, "pivots") - pivotsBefore; d != 0 {
		t.Errorf("exact hit performed %d pivots server-side", d)
	}

	// 3. Same model, different bound: warm-started from the nearest cached
	// basis, cheaper than the cold solve.
	warm, _ := optimize(diskReq(0.9))
	if warm.Cache != "warm" || !warm.WarmStarted {
		t.Errorf("near repeat: cache %q warm_started %v, want warm start", warm.Cache, warm.WarmStarted)
	}
	if warm.Pivots >= cold.Pivots {
		t.Errorf("warm solve took %d pivots, cold took %d; want warm < cold", warm.Pivots, cold.Pivots)
	}

	// 4. Thundering herd: concurrent identical fresh queries share one
	// solve (stragglers that arrive after it completes hit the cache).
	solvesBefore := counter(t, base, "cold_solves") + counter(t, base, "warm_solves")
	sharedBefore := counter(t, base, "shared_solves")
	hitsBefore := counter(t, base, "exact_hits")
	const herd = 8
	var wg sync.WaitGroup
	responses := make([]*OptimizeResponse, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp OptimizeResponse
			call(t, http.MethodPost, base+"/v1/optimize", diskReq(1.4), &resp)
			responses[i] = &resp
		}(i)
	}
	wg.Wait()
	for i, r := range responses {
		if !r.Feasible {
			t.Fatalf("herd response %d infeasible (%s)", i, r.Status)
		}
		if r.Objective != responses[0].Objective {
			t.Errorf("herd response %d objective %g != %g", i, r.Objective, responses[0].Objective)
		}
	}
	if d := counter(t, base, "cold_solves") + counter(t, base, "warm_solves") - solvesBefore; d != 1 {
		t.Errorf("herd of %d triggered %d solves, want 1", herd, d)
	}
	sharedD := counter(t, base, "shared_solves") - sharedBefore
	hitsD := counter(t, base, "exact_hits") - hitsBefore
	if sharedD+hitsD != herd-1 {
		t.Errorf("herd of %d: %d shared + %d hits, want %d", herd, sharedD, hitsD, herd-1)
	}

	// 5. Sweep: runs on the pool, caches every feasible point; a later
	// optimize at a swept bound is an exact hit, and repeating the sweep is
	// itself a hit.
	sweepReq := SweepRequest{
		OptimizeRequest: OptimizeRequest{Model: "disk", Objective: "power"},
		Sweep:           SweepSpec{Metric: "penalty", Rel: "<=", Values: []float64{1.2, 1.1, 1.05}, Workers: 2},
	}
	var sw SweepResponse
	if st := call(t, http.MethodPost, base+"/v1/sweep", sweepReq, &sw); st != http.StatusOK {
		t.Fatalf("sweep status %d", st)
	}
	if sw.Cache != "miss" || len(sw.Points) != 3 || sw.Feasible == 0 {
		t.Fatalf("sweep: cache %q, %d points, %d feasible", sw.Cache, len(sw.Points), sw.Feasible)
	}
	swept, _ := optimize(diskReq(1.1))
	if swept.Cache != "hit" || swept.Pivots != 0 {
		t.Errorf("optimize at swept bound: cache %q pivots %d, want exact hit", swept.Cache, swept.Pivots)
	}
	var sw2 SweepResponse
	call(t, http.MethodPost, base+"/v1/sweep", sweepReq, &sw2)
	if sw2.Cache != "hit" || sw2.Pivots != 0 {
		t.Errorf("repeat sweep: cache %q pivots %d, want hit", sw2.Cache, sw2.Pivots)
	}
}

// TestDeadlineCancelsSolve: a request deadline must abort the simplex
// mid-solve and surface the context error promptly.
func TestDeadlineCancelsSolve(t *testing.T) {
	s, base := newTestServer(t)

	// A composite model large enough that its cold solve reliably exceeds
	// the 1 ms deadline (sparse LP with ~360 columns).
	sys, err := devices.MultiDiskSystem(2, 4, core.TwoStateSR("w", 0.05, 0.15))
	if err != nil {
		t.Fatalf("MultiDiskSystem: %v", err)
	}
	e, _, err := s.reg.register(sys, "composite test model")
	if err != nil {
		t.Fatalf("register: %v", err)
	}

	before := counter(t, base, "cancelled_solves")
	start := time.Now()
	var resp errorResponse
	st := call(t, http.MethodPost, base+"/v1/optimize", OptimizeRequest{
		Model:     e.ID,
		Objective: "power",
		Bounds:    []BoundSpec{{Metric: "penalty", Rel: "<=", Value: 0.5}},
		TimeoutMS: 1,
	}, &resp)
	elapsed := time.Since(start)
	if st != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%+v), want 504", st, resp)
	}
	if !strings.Contains(resp.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", resp.Error)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancelled request took %v; cancellation is not prompt", elapsed)
	}
	// Poll briefly: the flight goroutine records the cancellation just
	// after the waiter is released.
	deadline := time.Now().Add(2 * time.Second)
	for counter(t, base, "cancelled_solves") == before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if d := counter(t, base, "cancelled_solves") - before; d == 0 {
		t.Errorf("cancelled_solves did not increment")
	}
}

// TestHugeTimeoutClamps: a timeout_ms beyond what time.Duration holds in
// nanoseconds is clamped to MaxTimeout like any other oversized budget,
// on every endpoint that takes one, instead of wrapping negative (an
// instant 504 on optimize and sweep, a rejected adapter config on observe).
func TestHugeTimeoutClamps(t *testing.T) {
	s, base := newTestServer(t)
	const huge = 10_000_000_000_000 // ms; ×1e6 overflows int64 nanoseconds
	if d, err := s.timeout(huge); err != nil || d != s.cfg.MaxTimeout {
		t.Errorf("timeout(%d) = %v, %v; want MaxTimeout %v", huge, d, err, s.cfg.MaxTimeout)
	}
	opt := OptimizeRequest{Model: "disk", Bounds: []BoundSpec{{Metric: "penalty", Rel: "<=", Value: 1.4}}, TimeoutMS: huge}
	var or OptimizeResponse
	if st := call(t, http.MethodPost, base+"/v1/optimize", opt, &or); st != http.StatusOK || !or.Feasible {
		t.Errorf("optimize: status %d, %+v", st, or)
	}
	sw := SweepRequest{OptimizeRequest: opt, Sweep: SweepSpec{Metric: "loss", Rel: "<=", Values: []float64{0.3, 0.5}}}
	var sr SweepResponse
	if st := call(t, http.MethodPost, base+"/v1/sweep", sw, &sr); st != http.StatusOK || len(sr.Points) != 2 {
		t.Errorf("sweep: status %d, %+v", st, sr)
	}
	ob := ObserveRequest{OptimizeRequest: OptimizeRequest{TimeoutMS: huge}, Counts: []int{0, 1, 0}}
	for i := range 2 { // the second batch restates the budget the adapter was created with
		var resp ObserveResponse
		if st := call(t, http.MethodPost, base+"/v1/models/disk/observe", ob, &resp); st != http.StatusOK {
			t.Errorf("observe %d: status %d", i, st)
		}
	}
}

// TestRegisterUserModel: posting SP/SR parameters compiles a resident
// model; reposting identical content is a no-op returning the same id; the
// model then serves optimize queries.
func TestRegisterUserModel(t *testing.T) {
	_, base := newTestServer(t)
	spec := ModelSpec{
		Name: "toy",
		SP: &SPSpec{
			States:   []string{"on", "off"},
			Commands: []string{"s_on", "s_off"},
			P: [][][]float64{
				{{1, 0}, {1, 0}},
				{{0, 1}, {0, 1}},
			},
			ServiceRate: [][]float64{{0.8, 0.8}, {0, 0}},
			Power:       [][]float64{{3, 3}, {0.5, 0.5}},
		},
		SR:       &SRSpec{P: [][]float64{{0.9, 0.1}, {0.3, 0.7}}, Requests: []int{0, 1}},
		QueueCap: 2,
	}
	var info ModelInfo
	if st := call(t, http.MethodPost, base+"/v1/models", spec, &info); st != http.StatusCreated {
		t.Fatalf("register status %d", st)
	}
	if info.Existing || info.States != 2*2*3 || info.Commands != 2 {
		t.Fatalf("register info %+v", info)
	}
	var again ModelInfo
	if st := call(t, http.MethodPost, base+"/v1/models", spec, &again); st != http.StatusOK {
		t.Fatalf("re-register status %d", st)
	}
	if !again.Existing || again.ID != info.ID {
		t.Errorf("re-register: existing %v id %s, want existing with id %s", again.Existing, again.ID, info.ID)
	}

	var resp OptimizeResponse
	st := call(t, http.MethodPost, base+"/v1/optimize", OptimizeRequest{
		Model:         info.ID,
		Objective:     "power",
		Bounds:        []BoundSpec{{Metric: "penalty", Rel: "<=", Value: 0.5}},
		IncludePolicy: true,
	}, &resp)
	if st != http.StatusOK || !resp.Feasible {
		t.Fatalf("optimize on posted model: status %d feasible %v (%s)", st, resp.Feasible, resp.Status)
	}
	if resp.Policy == nil || len(resp.Policy.Dist) != info.States {
		t.Errorf("include_policy did not return %d policy rows", info.States)
	}
}

func TestValidationAndHealth(t *testing.T) {
	_, base := newTestServer(t)

	var e errorResponse
	if st := call(t, http.MethodPost, base+"/v1/optimize", OptimizeRequest{Model: "nope"}, &e); st != http.StatusNotFound {
		t.Errorf("unknown model: status %d, want 404", st)
	}
	if st := call(t, http.MethodPost, base+"/v1/optimize", OptimizeRequest{Model: "disk", Objective: "nope"}, &e); st != http.StatusBadRequest {
		t.Errorf("unknown metric: status %d, want 400", st)
	}
	if st := call(t, http.MethodPost, base+"/v1/optimize", OptimizeRequest{Model: "disk", Alpha: 0.5, Horizon: 100}, &e); st != http.StatusBadRequest {
		t.Errorf("alpha+horizon: status %d, want 400", st)
	}
	if st := call(t, http.MethodPost, base+"/v1/optimize", OptimizeRequest{Model: "disk", Bounds: []BoundSpec{{Metric: "penalty", Rel: "==", Value: 1}}}, &e); st != http.StatusBadRequest {
		t.Errorf("bad rel: status %d, want 400", st)
	}

	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if st := call(t, http.MethodGet, base+"/v1/healthz", nil, &health); st != http.StatusOK || health.Status != "ok" || health.Models != 7 {
		t.Errorf("healthz: status %d body %+v", st, health)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	for _, want := range []string{"dpmserved_requests_total", "dpmserved_exact_hits_total", "dpmserved_models 7"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSolverKnobs: the max_pivots request field reaches the solver — an
// exhausted pivot budget maps to 422 and the budget_exceeded counter, a
// negative one is a client error — and the retired strategy fields
// (factorization, pricing) are rejected as unknown fields rather than
// silently ignored.
func TestSolverKnobs(t *testing.T) {
	_, base := newTestServer(t)
	req := OptimizeRequest{
		Model:     "disk",
		Objective: "power",
		Bounds:    []BoundSpec{{Metric: "penalty", Rel: "<=", Value: 1.8}},
	}

	var ref OptimizeResponse
	if st := call(t, http.MethodPost, base+"/v1/optimize", req, &ref); st != http.StatusOK || !ref.Feasible {
		t.Fatalf("reference solve: status %d, %+v", st, ref)
	}
	if n := counter(t, base, "refactorizations"); n <= 0 {
		t.Errorf("refactorizations counter = %d after a solve", n)
	}

	var e errorResponse
	for _, field := range []string{"factorization", "pricing"} {
		retired := map[string]any{
			"model":     "disk",
			"objective": "power",
			"bounds":    []map[string]any{{"metric": "penalty", "rel": "<=", "value": 1.8}},
			field:       "auto",
		}
		if st := call(t, http.MethodPost, base+"/v1/optimize", retired, &e); st != http.StatusBadRequest {
			t.Errorf("retired field %q: status %d, want 400", field, st)
		}
	}

	budget := req
	budget.MaxPivots = 1
	if st := call(t, http.MethodPost, base+"/v1/optimize", budget, &e); st != http.StatusUnprocessableEntity {
		t.Errorf("exhausted pivot budget: status %d, want 422 (%s)", st, e.Error)
	}
	if n := counter(t, base, "budget_exceeded"); n != 1 {
		t.Errorf("budget_exceeded counter = %d, want 1", n)
	}

	bad := req
	bad.MaxPivots = -3
	if st := call(t, http.MethodPost, base+"/v1/optimize", bad, &e); st != http.StatusBadRequest {
		t.Errorf("negative max_pivots: status %d, want 400", st)
	}
}

// TestSweepOutcomeCounters: sweep solves count in the same outcome counters
// as optimize solves — a sweep stopped by its pivot budget (422) in
// budget_exceeded, each infeasible point in infeasible.
func TestSweepOutcomeCounters(t *testing.T) {
	_, base := newTestServer(t)
	sweepReq := func(maxPivots int, values ...float64) SweepRequest {
		return SweepRequest{
			OptimizeRequest: OptimizeRequest{Model: "disk", Objective: "power", MaxPivots: maxPivots},
			Sweep:           SweepSpec{Metric: "penalty", Rel: "<=", Values: values, Workers: 1},
		}
	}

	var e errorResponse
	if st := call(t, http.MethodPost, base+"/v1/sweep", sweepReq(1, 1.8, 1.2), &e); st != http.StatusUnprocessableEntity {
		t.Fatalf("exhausted pivot budget: status %d, want 422 (%s)", st, e.Error)
	}
	if n := counter(t, base, "budget_exceeded"); n != 1 {
		t.Errorf("budget_exceeded counter = %d after a budget-stopped sweep, want 1", n)
	}

	var sw SweepResponse
	if st := call(t, http.MethodPost, base+"/v1/sweep", sweepReq(0, 0.8, 0.3, 1.2), &sw); st != http.StatusOK || sw.Feasible != 2 {
		t.Fatalf("sweep: status %d, %d/3 feasible", st, sw.Feasible)
	}
	if n := counter(t, base, "infeasible"); n != 1 {
		t.Errorf("infeasible counter = %d after a sweep with one infeasible point, want 1", n)
	}
}

// TestInfeasibleCached: an infeasible verdict is a definitive answer and is
// cached like any other.
func TestInfeasibleCached(t *testing.T) {
	_, base := newTestServer(t)
	req := OptimizeRequest{
		Model:     "disk",
		Objective: "power",
		// A two-state workload is busy ~25% of slices; demanding near-zero
		// queue *and* near-zero power is unsatisfiable.
		Bounds: []BoundSpec{
			{Metric: "penalty", Rel: "<=", Value: 1e-9},
			{Metric: "power", Rel: "<=", Value: 1e-3},
		},
	}
	var resp OptimizeResponse
	if st := call(t, http.MethodPost, base+"/v1/optimize", req, &resp); st != http.StatusOK {
		t.Fatalf("infeasible solve status %d", st)
	}
	if resp.Feasible || resp.Status != "infeasible" {
		t.Fatalf("response %+v, want infeasible", resp)
	}
	var again OptimizeResponse
	call(t, http.MethodPost, base+"/v1/optimize", req, &again)
	if again.Cache != "hit" || again.Feasible {
		t.Errorf("repeat infeasible: cache %q feasible %v, want cached infeasible", again.Cache, again.Feasible)
	}
}

// TestCacheEviction: the LRU stays within its bound and eviction is
// observable.
func TestCacheEviction(t *testing.T) {
	s, err := New(Config{CacheSize: 4, DefaultTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	for i := 0; i < 10; i++ {
		var resp OptimizeResponse
		call(t, http.MethodPost, hs.URL+"/v1/optimize", OptimizeRequest{
			Model:     "example",
			Objective: "power",
			Bounds:    []BoundSpec{{Metric: "penalty", Rel: "<=", Value: 0.5 + float64(i)*0.01}},
		}, &resp)
		if !resp.Feasible {
			t.Fatalf("point %d infeasible (%s)", i, resp.Status)
		}
	}
	if n := s.cache.len(); n > 4 {
		t.Errorf("cache holds %d entries, cap 4", n)
	}
	if s.stats.Evictions.Load() == 0 {
		t.Errorf("no evictions recorded across 10 inserts into a 4-entry cache")
	}
}

func TestQueryKeyStability(t *testing.T) {
	opts := core.Options{Alpha: 0.99, Objective: core.Objective{Metric: "power"}}
	k1, f1, _ := queryKey("m", opts)
	k2, f2, _ := queryKey("m", opts)
	if k1 != k2 || f1 != f2 {
		t.Errorf("identical queries fingerprint differently")
	}
	opts2 := opts
	opts2.Bounds = []core.Bound{{Metric: "penalty", Value: 0.5}}
	k3, f3, _ := queryKey("m", opts2)
	if k3 == k1 || f3 == f1 {
		t.Errorf("adding a bound did not move the fingerprint")
	}
	opts3 := opts2
	opts3.Bounds = []core.Bound{{Metric: "penalty", Value: 0.6}}
	k4, f4, _ := queryKey("m", opts3)
	if k4 == k3 {
		t.Errorf("bound value did not move the exact key")
	}
	if f4 != f3 {
		t.Errorf("bound value moved the family key (it must not)")
	}
}

// TestSweepKeyIncludesBaseBounds: two sweeps identical except for a fixed
// (non-swept) bound's value must not collide in the cache.
func TestSweepKeyIncludesBaseBounds(t *testing.T) {
	_, base := newTestServer(t)
	sweepAt := func(lossBound float64) *SweepResponse {
		var sw SweepResponse
		st := call(t, http.MethodPost, base+"/v1/sweep", SweepRequest{
			OptimizeRequest: OptimizeRequest{
				Model:     "example",
				Objective: "power",
				Bounds:    []BoundSpec{{Metric: "loss", Rel: "<=", Value: lossBound}},
			},
			Sweep: SweepSpec{Metric: "penalty", Rel: "<=", Values: []float64{0.6, 0.5}, Workers: 1},
		}, &sw)
		if st != http.StatusOK {
			t.Fatalf("sweep status %d", st)
		}
		return &sw
	}
	a := sweepAt(0.4)
	b := sweepAt(0.3) // tighter base bound: must be a fresh solve
	if b.Cache != "miss" {
		t.Fatalf("sweep with different base bound served from cache (%q)", b.Cache)
	}
	if a.Feasible > 0 && b.Feasible > 0 && a.Points[0].Objective == b.Points[0].Objective {
		t.Errorf("different base bounds produced identical objectives %g; key collision?", a.Points[0].Objective)
	}
}

// TestRegisterCannotShadowPreset: a posted model reusing a preset's name
// must not rebind that name for other clients.
func TestRegisterCannotShadowPreset(t *testing.T) {
	s, base := newTestServer(t)
	before, ok := s.reg.resolve("disk")
	if !ok {
		t.Fatal("preset disk missing")
	}
	var info ModelInfo
	st := call(t, http.MethodPost, base+"/v1/models", ModelSpec{Preset: "disk", P01: 0.3, P10: 0.01}, &info)
	if st != http.StatusCreated || info.ID == before.ID {
		t.Fatalf("re-parameterized preset: status %d id %s (preset id %s)", st, info.ID, before.ID)
	}
	after, ok := s.reg.resolve("disk")
	if !ok || after.ID != before.ID {
		t.Errorf("name %q now resolves to %s, want original preset %s", "disk", after.ID, before.ID)
	}
	if byID, ok := s.reg.resolve(info.ID); !ok || byID.ID != info.ID {
		t.Errorf("posted model not resolvable by content id")
	}
}

// TestConcurrentSweepsSeedWarmOptimizes: concurrent sweeps each keep their
// chunks' LPs resident while they run, and every point they cache — its
// result and its basis — must be an independent snapshot: optimize queries
// near the swept bounds, issued concurrently afterwards, warm-start from
// those bases and agree with a second server that ran the same sweeps and
// queries one at a time. (Only to 1e-9: which cached basis seeds each
// sweep depends on the order the sweeps finish, and the disk LP's optimum
// is degenerate, so the two servers may cache different optimal vertices.)
// Run under -race this also checks that no cached basis is still written
// by the sweep that produced it.
func TestConcurrentSweepsSeedWarmOptimizes(t *testing.T) {
	_, base := newTestServer(t)
	_, ref := newTestServer(t)
	sweeps := [][]float64{
		{0.6, 0.8, 1.0, 1.2},
		{0.65, 0.85, 1.05, 1.25},
		{0.7, 0.9, 1.1, 1.3},
		{0.75, 0.95, 1.15, 1.35},
	}
	sweep := func(url string, vals []float64) {
		var sw SweepResponse
		st := call(t, http.MethodPost, url+"/v1/sweep", SweepRequest{
			OptimizeRequest: OptimizeRequest{Model: "disk", Objective: "power"},
			Sweep:           SweepSpec{Metric: "penalty", Rel: "<=", Values: vals, Workers: 2},
		}, &sw)
		if st != http.StatusOK || sw.Feasible != len(vals) {
			t.Errorf("sweep %v: status %d, %d/%d feasible", vals, st, sw.Feasible, len(vals))
		}
	}
	// Each query sits 0.01 above a swept bound and at least 0.04 from every
	// other swept or queried one, so its nearest cached basis is that
	// point's on both servers.
	var near []float64
	for _, vals := range sweeps {
		for _, v := range vals {
			near = append(near, v+0.01)
		}
	}
	optimize := func(url string, v float64, out *OptimizeResponse) {
		call(t, http.MethodPost, url+"/v1/optimize", OptimizeRequest{
			Model:     "disk",
			Objective: "power",
			Bounds:    []BoundSpec{{Metric: "penalty", Rel: "<=", Value: v}},
		}, out)
	}

	var wg sync.WaitGroup
	for _, vals := range sweeps {
		wg.Add(1)
		go func(vals []float64) {
			defer wg.Done()
			sweep(base, vals)
		}(vals)
	}
	wg.Wait()
	got := make([]OptimizeResponse, len(near))
	for i, v := range near {
		wg.Add(1)
		go func(i int, v float64) {
			defer wg.Done()
			optimize(base, v, &got[i])
		}(i, v)
	}
	wg.Wait()

	for _, vals := range sweeps {
		sweep(ref, vals)
	}
	for i, v := range near {
		var want OptimizeResponse
		optimize(ref, v, &want)
		g := got[i]
		if !g.Feasible || g.Cache != "warm" || !g.WarmStarted {
			t.Errorf("optimize at %g: feasible %v cache %q warm %v, want a warm start from a swept basis", v, g.Feasible, g.Cache, g.WarmStarted)
		}
		if d := math.Abs(g.Objective - want.Objective); d > 1e-9*math.Abs(want.Objective) || want.Cache != "warm" {
			t.Errorf("optimize at %g: objective %.15g, one-at-a-time server %.15g (%s)", v, g.Objective, want.Objective, want.Cache)
		}
	}
}

// TestConcurrentMixedTraffic: a few clients at once send the four request
// kinds a serving load mixes, built from the server's own wire types —
// exact optimize hits (one fixed query), fresh bounds (warm starts), fresh
// horizons (cold solves) and observe batches into the disk model's online
// adapter. Every response must be 2xx, the fixed query must come back as
// an exact hit, and the traces of the traffic must stay retrievable. Under
// -race this is the daemon's concurrency check for the whole mix.
func TestConcurrentMixedTraffic(t *testing.T) {
	_, base := newTestServer(t)
	penalty := func(v float64) []BoundSpec { return []BoundSpec{{Metric: "penalty", Rel: "<=", Value: v}} }
	const clients, perClient = 3, 20
	var failed, hits atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perClient; i++ {
				var st int
				switch i % 10 {
				case 0, 1, 2, 3, 4:
					var resp OptimizeResponse
					st = call(t, http.MethodPost, base+"/v1/optimize", OptimizeRequest{Model: "disk", Bounds: penalty(1.5)}, &resp)
					if resp.Cache == "hit" {
						hits.Add(1)
					}
				case 5, 6:
					st = call(t, http.MethodPost, base+"/v1/optimize", OptimizeRequest{Model: "disk", Bounds: penalty(1.2 + 1.3*rng.Float64())}, nil)
				case 7, 8:
					h := 1e4 * (1 + 99*rng.Float64())
					st = call(t, http.MethodPost, base+"/v1/optimize", OptimizeRequest{Model: "disk", Horizon: h, Bounds: penalty(1.5)}, nil)
				default:
					counts := make([]int, 32)
					for j := range counts {
						counts[j] = rng.Intn(4)
					}
					st = call(t, http.MethodPost, base+"/v1/models/disk/observe", ObserveRequest{Counts: counts}, nil)
				}
				if st/100 != 2 {
					failed.Add(1)
				}
			}
		}(int64(c + 1))
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Errorf("%d of %d responses were not 2xx", n, clients*perClient)
	}
	if hits.Load() == 0 {
		t.Errorf("the fixed optimize query was never an exact hit")
	}
	var list struct {
		Traces []obs.TraceJSON `json:"traces"`
	}
	if st := call(t, http.MethodGet, base+"/v1/trace?n=20", nil, &list); st != http.StatusOK {
		t.Fatalf("trace list status %d", st)
	}
	spans := 0
	for _, tj := range list.Traces {
		spans += len(tj.Spans)
	}
	if len(list.Traces) == 0 || spans == 0 {
		t.Errorf("%d traces with %d spans retrievable after the traffic, want spans", len(list.Traces), spans)
	}
}

// TestSweepWorkersClampedToCPUs: a client-chosen worker count beyond
// GOMAXPROCS is clamped, so a 64-point sweep asking for 4096 workers runs
// at most GOMAXPROCS chunks — each starts cold and warm-starts the rest of
// its points — instead of 64 one-point chunks that all assemble their own
// LP and start cold.
func TestSweepWorkersClampedToCPUs(t *testing.T) {
	_, base := newTestServer(t)
	const n = 64
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 0.6 + 0.01*float64(i)
	}
	var sw SweepResponse
	st := call(t, http.MethodPost, base+"/v1/sweep", SweepRequest{
		OptimizeRequest: OptimizeRequest{Model: "disk", Objective: "power"},
		Sweep:           SweepSpec{Metric: "penalty", Rel: "<=", Values: vals, Workers: 4096},
	}, &sw)
	if st != http.StatusOK || sw.Feasible != n {
		t.Fatalf("sweep: status %d, %d/%d feasible", st, sw.Feasible, n)
	}
	if want := n - runtime.GOMAXPROCS(0); sw.WarmStarted < want {
		t.Errorf("%d warm-started points, want at least %d (one cold start per CPU)", sw.WarmStarted, want)
	}
	var health map[string]any
	if st := call(t, http.MethodGet, base+"/v1/healthz", nil, &health); st != http.StatusOK {
		t.Errorf("healthz after the sweep: status %d", st)
	}
}
