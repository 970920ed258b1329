// Package server is the resident policy-serving subsystem: a long-lived
// HTTP/JSON service that holds compiled power-management models in memory
// and answers (workload, constraint) policy queries from a fingerprinted
// cache.
//
// The paper's optimization is an LP that must be re-solved whenever the
// workload model or the performance constraint moves. The CLIs pay process
// startup plus model compilation per solve; this package is the serving
// path: models are registered once (built-in device presets at startup,
// user-posted SP/SR parameter sets via POST /v1/models), compiled once into
// resident core.Models, and every query is keyed by a content fingerprint
// of (model parameters, discount, objective, constraint set). An exact
// fingerprint hit returns the cached result without a single simplex pivot;
// a near hit — same model and options, different bound values — warm-starts
// from the nearest cached optimal basis; concurrent identical queries are
// deduplicated onto one in-flight solve. Resource use is bounded by an LRU
// over cached results/bases and by per-request deadlines that cancel the
// simplex mid-pivot (core.OptimizeCtx → lp.Solver.Solve).
//
// Endpoints:
//
//	POST /v1/models                register a model (preset or SP/SR parameters)
//	GET  /v1/models                list resident models
//	POST /v1/models/{id}/observe   ingest workload slices (online adaptation)
//	POST /v1/optimize              one constrained policy optimization
//	POST /v1/sweep                 a Pareto bound sweep (internal/sweep worker pool)
//	GET  /v1/solves                live solve flight-recorder table
//	DELETE /v1/solves/{id}         cancel one in-flight solve
//	GET  /v1/healthz               liveness + model count
//	GET  /v1/stats                 serving counters as JSON
//	GET  /metrics                  the same counters, Prometheus text format
//
// The observe endpoint is the online-adaptation loop (internal/online): a
// per-model streaming SR estimator ingests count slices, a drift controller
// re-solves when the estimate leaves the served policy's model, and every
// re-solve revises the resident LP in place (core.PatchFrequencyLP) and
// warm-starts from the previous optimal basis.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// Config tunes the server. The zero value gets sensible defaults from New.
// New always registers every cli device preset; a sweep takes at most
// maxSweepPoints values, and a posted model must fit maxModelStates and
// maxModelNNZ.
type Config struct {
	// CacheSize bounds the number of cached query results/bases (default
	// 512). Sweeps insert one entry per feasible point.
	CacheSize int
	// DefaultTimeout bounds solves that do not request their own deadline
	// (default 30s); MaxTimeout caps what a request may ask for (default
	// 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// BaseContext is the root of every solve context; cancelling it drains
	// the solver (default context.Background()).
	BaseContext context.Context
	// TraceBuffer bounds the ring of finished request traces retrievable
	// via GET /v1/trace (default 256).
	TraceBuffer int
	// SolveMonitorEvery sets the flight recorder's "progress" snapshot
	// cadence in pivots for solves the server runs (0 keeps the lp default
	// of 64). Tests lower it to observe short solves mid-flight.
	SolveMonitorEvery int
	// AccessLog emits one structured log line per request (method, path,
	// status, duration, trace ID) through the obs logger.
	AccessLog bool
}

// maxSweepPoints bounds one sweep request's value grid.
const maxSweepPoints = 4096

// maxObserveSlices bounds one observe request's count batch; a feeder
// streaming faster than this per request should chunk (and would defeat the
// drift controller's cadence anyway).
const maxObserveSlices = 1 << 20

// Server is the resident policy service. Create with New; serve via
// Handler.
type Server struct {
	cfg     Config
	reg     *registry
	cache   *solveCache
	flights *flightGroup
	stats   *metrics
	solves  *solveTable
	mux     *http.ServeMux
	start   time.Time

	// recorder retains the last finished request traces for GET /v1/trace.
	recorder *obs.Recorder

	// onlineMu guards onlines, the per-model online adaptation state
	// (created lazily by the first observe of a model).
	onlineMu sync.Mutex
	onlines  map[string]*onlineEntry
}

// New builds a Server and registers the built-in device presets (their
// compiled models are resident from the first request on).
func New(cfg Config) (*Server, error) {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 512
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 2 * time.Minute
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	if cfg.TraceBuffer <= 0 {
		cfg.TraceBuffer = 256
	}
	s := &Server{
		cfg:      cfg,
		reg:      newRegistry(),
		cache:    newSolveCache(cfg.CacheSize),
		flights:  newFlightGroup(),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		recorder: obs.NewRecorder(cfg.TraceBuffer),
		onlines:  make(map[string]*onlineEntry),
	}
	s.stats = newMetrics(s)
	s.solves = newSolveTable(s.stats)
	for _, name := range cli.DeviceNames() {
		d, err := cli.NewDevice(name, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("server: building preset %q: %w", name, err)
		}
		if _, _, err := s.reg.register(d.Sys, d.Desc); err != nil {
			return nil, fmt.Errorf("server: registering preset %q: %w", name, err)
		}
	}
	s.routes()
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/models", s.handleRegister)
	s.mux.HandleFunc("GET /v1/models", s.handleListModels)
	s.mux.HandleFunc("POST /v1/models/{model}/observe", s.handleObserve)
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/solves", s.handleSolves)
	s.mux.HandleFunc("DELETE /v1/solves/{id}", s.handleSolveCancel)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/trace", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// statusWriter captures the response status for telemetry.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Handler returns the HTTP handler: the route mux wrapped in the
// observability middleware. Every request gets a trace (the X-Request-Id
// header, if present, is attached for correlation; the trace ID is echoed
// back as X-Trace-Id), a per-endpoint latency observation, and — for the
// solver-facing endpoints — a slot in the trace ring buffer served by
// GET /v1/trace.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := endpointOf(r)
		s.stats.requests[ep].Add(1)

		ctx, tr := obs.StartTrace(r.Context(), r.Method+" "+r.URL.Path, "")
		tr.Request = r.Header.Get("X-Request-Id")
		w.Header().Set("X-Trace-Id", tr.ID)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		started := time.Now()
		s.mux.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(started)

		s.stats.latency[ep].ObserveDuration(elapsed)
		tr.Set("endpoint", ep)
		tr.Set("status", sw.status)
		tr.Finish()
		if recorded(ep) {
			s.recorder.Record(tr)
		}
		if s.cfg.AccessLog {
			obs.Logger().Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"dur_ms", float64(elapsed.Microseconds())/1000,
				"trace", tr.ID,
				"request", tr.Request,
			)
		}
	})
}

// Stats returns a snapshot of the serving counters (exported for embedding
// processes; the HTTP surface is /v1/stats), including one
// requests_<endpoint> counter per endpoint that has served traffic.
func (s *Server) Stats() map[string]int64 {
	snap := s.stats.reg.Snapshot()
	for _, name := range endpointNames {
		if n := s.stats.requests[name].Load(); n > 0 {
			snap["requests_"+name] = n
		}
	}
	return snap
}

// ---- query fingerprinting ----

// queryKey derives the two content fingerprints of a query against a
// registered model: the family key identifies the LP structure (model,
// discount, objective, constraint rows — everything except the bound
// values), so structurally identical queries share warm-start bases; the
// exact key appends the bound values, so only a full match returns a cached
// result. Returns (key, family, boundValues).
func queryKey(modelID string, opts core.Options) (string, string, []float64) {
	var b strings.Builder
	num := func(v float64) {
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		b.WriteByte(';')
	}
	b.WriteString(modelID)
	b.WriteByte(';')
	num(opts.Alpha)
	b.WriteString(opts.Objective.Metric)
	fmt.Fprintf(&b, ";%d;%d;", opts.Objective.Sense, opts.UnvisitedCommand)
	// The pivot budget is part of the family: a budget-capped query must not
	// be answered from (or seed) the cache of a differently capped one.
	fmt.Fprintf(&b, "%d;", opts.LPMaxPivots)
	vals := make([]float64, 0, len(opts.Bounds))
	for _, bd := range opts.Bounds {
		fmt.Fprintf(&b, "%s;%d;", bd.Metric, bd.Rel)
		vals = append(vals, bd.Value)
	}
	famSum := sha256.Sum256([]byte(b.String()))
	family := hex.EncodeToString(famSum[:])
	for _, v := range vals {
		num(v)
	}
	keySum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(keySum[:]), family, vals
}

// buildOptions translates a request into core.Options against the resolved
// model, validating metrics and the discount up front so fingerprints only
// ever cover solvable queries.
func (s *Server) buildOptions(e *modelEntry, req *OptimizeRequest) (core.Options, error) {
	var opts core.Options
	switch {
	case req.Alpha != 0 && req.Horizon != 0:
		return opts, fmt.Errorf("alpha and horizon are mutually exclusive")
	case req.Alpha != 0:
		if req.Alpha < 0 || req.Alpha >= 1 {
			return opts, fmt.Errorf("alpha %g outside [0,1)", req.Alpha)
		}
		opts.Alpha = req.Alpha
	case req.Horizon != 0:
		if req.Horizon < 1 {
			return opts, fmt.Errorf("horizon %g < 1 slice", req.Horizon)
		}
		opts.Alpha = core.HorizonToAlpha(req.Horizon)
		if opts.Alpha >= 1 {
			// Beyond ~9e15 slices 1/h is below ulp(1)/2 and alpha rounds to
			// exactly 1; reject as client error rather than failing the solve.
			return opts, fmt.Errorf("horizon %g too large (discount rounds to 1)", req.Horizon)
		}
	default:
		opts.Alpha = core.HorizonToAlpha(1e5)
	}
	metric := req.Objective
	if metric == "" {
		metric = core.MetricPenalty
	}
	if _, err := e.Model.Metric(metric); err != nil {
		return opts, err
	}
	sense := lp.Minimize
	if req.Maximize {
		sense = lp.Maximize
	}
	opts.Objective = core.Objective{Metric: metric, Sense: sense}
	for _, bs := range req.Bounds {
		bd, err := bs.toCore()
		if err != nil {
			return opts, err
		}
		if _, err := e.Model.Metric(bd.Metric); err != nil {
			return opts, err
		}
		opts.Bounds = append(opts.Bounds, bd)
	}
	if req.MaxPivots < 0 {
		return opts, fmt.Errorf("max_pivots %d negative", req.MaxPivots)
	}
	opts.LPMaxPivots = req.MaxPivots
	// Shared-cache semantics: uniform initial distribution, no per-request
	// evaluation pass (averages are exact already).
	opts.SkipEvaluation = true
	return opts, nil
}

func (s *Server) timeout(ms int) (time.Duration, error) {
	if ms < 0 {
		return 0, fmt.Errorf("timeout_ms %d negative", ms)
	}
	if ms == 0 {
		return s.cfg.DefaultTimeout, nil
	}
	// Clamp in milliseconds: converting first overflows time.Duration for
	// large requests and wraps the budget negative.
	if time.Duration(ms) > s.cfg.MaxTimeout/time.Millisecond {
		return s.cfg.MaxTimeout, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// ---- handlers ----

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var spec ModelSpec
	if !decodeJSON(w, r, &spec) {
		return
	}
	sys, desc, err := spec.toSystem()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	e, existing, err := s.reg.register(sys, desc)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	info := e.info()
	info.Existing = existing
	status := http.StatusCreated
	if existing {
		status = http.StatusOK
	}
	writeJSON(w, status, info)
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.list())
}

// solveOutcome is what one flight (shared solve) produces.
type solveOutcome struct {
	res  *core.Result
	mode string // "warm" or "cold"
}

// doSolve runs fn through the flight group under this request's deadline.
// A flight is bounded by its leader's timeout; if a joined flight dies on
// the leader's (shorter) deadline while our own context is still live, we
// retry — becoming the leader of a fresh flight with our own budget — so a
// patient caller is never cut off by an impatient one. The loop terminates
// because each retry either returns a non-context error, or leads its own
// flight (shared=false), or eventually exhausts reqCtx.
func (s *Server) doSolve(reqCtx context.Context, key string, timeout time.Duration, fn func(ctx context.Context) (any, error)) (any, bool, error) {
	for {
		v, shared, err := s.flights.do(reqCtx, s.cfg.BaseContext, key, timeout, fn)
		if err != nil && shared && isContextErr(err) && reqCtx.Err() == nil {
			continue
		}
		return v, shared, err
	}
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	var req OptimizeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	e, ok := s.reg.resolve(req.Model)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown model %q", req.Model))
		return
	}
	opts, err := s.buildOptions(e, &req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	timeout, err := s.timeout(req.TimeoutMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.stats.OptimizeQueries.Add(1)
	key, family, vals := queryKey(e.ID, opts)
	tr := obs.TraceFrom(r.Context())
	tr.Set("model", e.ID)

	_, csp := obs.StartSpan(r.Context(), "cache")
	c := s.cache.get(key)
	hit := c != nil && c.result != nil
	csp.Set("mode", map[bool]string{true: "hit", false: "miss"}[hit])
	csp.End()
	if hit {
		s.stats.ExactHits.Add(1)
		tr.Set("cache", "hit")
		writeJSON(w, http.StatusOK, s.optimizeResponse(e, &req, c.result, "hit", 0, started))
		return
	}

	reqCtx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	v, shared, err := s.doSolve(reqCtx, key, timeout, func(ctx context.Context) (any, error) {
		// The flight runs on a context derived from BaseContext so a joined
		// leader outliving this request keeps solving; re-attach the request's
		// trace so the leader's solve spans land in it. (Joiners share the
		// result, not the spans — their trace records cache="shared".)
		ctx = obs.Reattach(ctx, reqCtx)
		// Flight recorder: the solve registers itself in the live table on
		// its first monitor snapshot and leaves on completion; DELETE
		// /v1/solves/{id} cancels through this context.
		ctx, fl := s.solves.attach(ctx, e.ID, "optimize")
		defer fl.done()
		o := opts
		o.LPMonitor = fl
		o.LPMonitorEvery = s.cfg.SolveMonitorEvery
		_, wsp := obs.StartSpan(ctx, "warm-lookup")
		o.WarmBasis = s.cache.nearest(family, vals)
		wsp.Set("found", o.WarmBasis != nil)
		wsp.End()
		res, err := core.OptimizeCtx(ctx, e.Model, o)
		switch {
		case err == nil:
		case errors.Is(err, core.ErrInfeasible):
			// Infeasibility is a definitive, cacheable answer.
			s.stats.Infeasible.Add(1)
		default:
			if isContextErr(err) {
				s.stats.CancelledSolves.Add(1)
			}
			if errors.Is(err, lp.ErrBudgetExceeded) {
				s.stats.BudgetExceeded.Add(1)
			}
			return nil, err
		}
		mode := "cold"
		if res.WarmStarted {
			mode = "warm"
			s.stats.WarmSolves.Add(1)
		} else {
			s.stats.ColdSolves.Add(1)
		}
		ev := s.cache.put(&cacheEntry{key: key, family: family, bounds: vals, result: res, basis: res.Basis})
		s.stats.Evictions.Add(int64(ev))
		return &solveOutcome{res: res, mode: mode}, nil
	})
	if shared {
		s.stats.SharedSolves.Add(1)
	}
	if err != nil {
		writeSolveError(w, err)
		return
	}
	out := v.(*solveOutcome)
	mode := out.mode
	if shared {
		mode = "shared"
	}
	tr.Set("cache", mode)
	tr.Set("pivots", out.res.LPIterations)
	writeJSON(w, http.StatusOK, s.optimizeResponse(e, &req, out.res, mode, out.res.LPIterations, started))
}

func (s *Server) optimizeResponse(e *modelEntry, req *OptimizeRequest, res *core.Result, mode string, pivots int, started time.Time) *OptimizeResponse {
	resp := &OptimizeResponse{
		Model:       e.ID,
		Status:      res.Status.String(),
		Feasible:    res.Status == lp.Optimal,
		Cache:       mode,
		Pivots:      pivots,
		WarmStarted: res.WarmStarted,
		ElapsedMS:   float64(time.Since(started).Microseconds()) / 1000,
	}
	if !resp.Feasible {
		return resp
	}
	resp.Objective = res.Objective
	resp.Averages = res.Averages
	if req.IncludePolicy {
		resp.Policy = policyJSON(e.Sys, res)
	}
	return resp
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	var req SweepRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	e, ok := s.reg.resolve(req.Model)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown model %q", req.Model))
		return
	}
	opts, err := s.buildOptions(e, &req.OptimizeRequest)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rel, err := cli.ParseRel(req.Sweep.Rel)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := e.Model.Metric(req.Sweep.Metric); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if n := len(req.Sweep.Values); n == 0 || n > maxSweepPoints {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweep needs 1..%d values, got %d", maxSweepPoints, n))
		return
	}
	timeout, err := s.timeout(req.TimeoutMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.stats.SweepQueries.Add(1)

	// Per-point family: the sweep bound appended as the last constraint row,
	// exactly how ParetoSweepCtx builds each point's LP. The sweep's own
	// exact key extends the family with the full value list.
	pointOpts := opts
	pointOpts.Bounds = append(append([]core.Bound{}, opts.Bounds...), core.Bound{Metric: req.Sweep.Metric, Rel: rel})
	_, family, _ := queryKey(e.ID, pointOpts)
	baseVals := make([]float64, 0, len(opts.Bounds))
	for _, bd := range opts.Bounds {
		baseVals = append(baseVals, bd.Value)
	}
	var kb strings.Builder
	kb.WriteString("sweep;")
	kb.WriteString(family)
	// The family hash excludes every bound value by design, so the sweep's
	// exact key must append both the fixed base-bound values and the swept
	// value list.
	for _, v := range baseVals {
		fmt.Fprintf(&kb, ";%s", strconv.FormatFloat(v, 'g', -1, 64))
	}
	kb.WriteString("|")
	for _, v := range req.Sweep.Values {
		fmt.Fprintf(&kb, ";%s", strconv.FormatFloat(v, 'g', -1, 64))
	}
	sweepSum := sha256.Sum256([]byte(kb.String()))
	sweepKey := hex.EncodeToString(sweepSum[:])

	if c := s.cache.get(sweepKey); c != nil && c.sweep != nil {
		s.stats.ExactHits.Add(1)
		resp := *c.sweep
		resp.Cache = "hit"
		resp.Pivots = 0
		resp.ElapsedMS = float64(time.Since(started).Microseconds()) / 1000
		writeJSON(w, http.StatusOK, &resp)
		return
	}

	reqCtx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	v, shared, err := s.doSolve(reqCtx, sweepKey, timeout, func(ctx context.Context) (any, error) {
		ctx = obs.Reattach(ctx, reqCtx)
		_, ssp := obs.StartSpan(ctx, "sweep")
		ssp.Set("points", len(req.Sweep.Values))
		defer ssp.End()
		// One flight-recorder row covers the whole sweep: point solves all
		// feed it, so pivots accumulate across points (concurrent workers
		// interleave on the latest snapshot, which stays a live view).
		ctx, fl := s.solves.attach(ctx, e.ID, "sweep")
		defer fl.done()
		o := opts
		o.LPMonitor = fl
		o.LPMonitorEvery = s.cfg.SolveMonitorEvery
		seedVals := append(append([]float64{}, baseVals...), req.Sweep.Values[0])
		o.WarmBasis = s.cache.nearest(family, seedVals)
		// Workers beyond the CPU count cannot run in parallel; each one only
		// adds a chunk that assembles its own LP and starts cold.
		workers := min(req.Sweep.Workers, runtime.GOMAXPROCS(0))
		points, err := sweep.Pareto(ctx, e.Model, o, req.Sweep.Metric, rel, req.Sweep.Values, sweep.Config{Workers: workers})
		if err != nil {
			if isContextErr(err) {
				s.stats.CancelledSolves.Add(1)
			}
			if errors.Is(err, lp.ErrBudgetExceeded) {
				s.stats.BudgetExceeded.Add(1)
			}
			return nil, err
		}
		tally := sweep.Tally(points)
		s.stats.Infeasible.Add(int64(tally.Points - tally.Feasible))
		resp := &SweepResponse{
			Model:       e.ID,
			Points:      make([]SweepPoint, 0, len(points)),
			Feasible:    tally.Feasible,
			WarmStarted: tally.WarmStarted,
			Pivots:      tally.Pivots,
			Cache:       "miss",
		}
		evicted := 0
		for _, p := range points {
			sp := SweepPoint{Value: p.BoundValue, Feasible: p.Feasible}
			if p.Feasible {
				sp.Objective = p.Objective
				sp.Averages = p.Averages
				if p.Result != nil {
					if p.Result.WarmStarted {
						s.stats.WarmSolves.Add(1)
					} else {
						s.stats.ColdSolves.Add(1)
					}
					// Each point is also a cacheable optimize answer: an
					// optimize query at a swept bound becomes an exact hit,
					// and the point's basis seeds future warm starts.
					po := opts
					po.Bounds = append(append([]core.Bound{}, opts.Bounds...), core.Bound{Metric: req.Sweep.Metric, Rel: rel, Value: p.BoundValue})
					pk, pf, pv := queryKey(e.ID, po)
					evicted += s.cache.put(&cacheEntry{key: pk, family: pf, bounds: pv, result: p.Result, basis: p.Result.Basis})
				}
			}
			resp.Points = append(resp.Points, sp)
		}
		evicted += s.cache.put(&cacheEntry{key: sweepKey, sweep: resp})
		s.stats.Evictions.Add(int64(evicted))
		return resp, nil
	})
	if shared {
		s.stats.SharedSolves.Add(1)
	}
	if err != nil {
		writeSolveError(w, err)
		return
	}
	resp := *(v.(*SweepResponse))
	if shared {
		resp.Cache = "shared"
	}
	resp.ElapsedMS = float64(time.Since(started).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"models":   s.reg.size(),
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &StatsResponse{
		CacheSize:    s.cache.len(),
		Counters:     s.stats.reg.Snapshot(),
		DroppedSpans: s.recorder.DroppedSpans(),
		Endpoints:    s.stats.statsEndpoints(),
		Gauges:       s.stats.inflight.Snapshot(),
		Models:       s.reg.size(),
		Solve:        s.stats.statsSolve(),
		UptimeS:      time.Since(s.start).Seconds(),
	})
}

// handleTrace is GET /v1/trace: the most recent retained request traces,
// newest first. ?n= bounds the count (default 20); ?id= retrieves one trace
// by the X-Trace-Id a response carried.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		tj, ok := s.recorder.Find(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("trace %q not retained (buffer holds the last %d solver-facing requests)", id, s.cfg.TraceBuffer))
			return
		}
		writeJSON(w, http.StatusOK, tj)
		return
	}
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", v))
			return
		}
		n = parsed
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.recorder.Last(n)})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.stats.reg.WriteProm(obs.NewPromWriter(w))
}

// ---- plumbing ----

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 8<<20), v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// decodeStrict decodes one JSON value from rd into v, refusing fields v
// does not declare.
func decodeStrict(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client may be gone; nothing useful to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// isContextErr reports whether err came from context cancellation or
// deadline expiry anywhere in its chain.
func isContextErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// writeSolveError maps solver failures onto HTTP statuses: deadline and
// cancellation are 504 (the context error is surfaced verbatim so clients
// can distinguish), an exhausted client-requested pivot budget is 422 (the
// request was well-formed but declared a budget the solve could not finish
// in), anything else is a 500.
func writeSolveError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case isContextErr(err):
		status = http.StatusGatewayTimeout
	case errors.Is(err, lp.ErrBudgetExceeded):
		status = http.StatusUnprocessableEntity
	}
	writeError(w, status, err)
}
