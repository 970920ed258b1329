package online

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/obs"
)

// Config tunes an Adapter. The zero value of any field selects the
// documented default. The solver options of a re-solve, its pivot budget
// included, are the core.Options given to New.
type Config struct {
	// Memory is the extractor history length k (default 1: the paper's
	// two-state workload model).
	Memory int
	// Decay is the estimator's per-slice forgetting factor in (0,1]
	// (default 0.995, an effective window of ~200 slices).
	Decay float64
	// DriftThreshold is the maximum per-row total-variation distance
	// between the estimate and the served SR that is tolerated before a
	// re-solve is scheduled (default 0.05).
	DriftThreshold float64
	// DriftZ makes the trigger per-row adaptive: row s re-solves when its
	// TV distance exceeds DriftThreshold + DriftZ·SE(s), where SE(s) is the
	// sampling noise of the row's estimate under its decayed evidence
	// (Estimator.DriftAdaptive). Thinly observed rows must therefore move
	// beyond their own noise while well-observed rows keep the tight global
	// threshold — fewer spurious re-solves on bursty traces at the same
	// sensitivity on converged ones. Default 2 (a ~95% band); negative
	// restores the single global threshold (exactly DriftZ = 0).
	DriftZ float64
	// MinSlices is the number of observed transitions before the first
	// policy is solved (default 100).
	MinSlices int
	// MinEvidence is the decayed per-row transition mass below which a row
	// is excluded from the drift measure (default 8; rows near zero
	// evidence sit at the uniform fallback on both sides).
	MinEvidence float64
	// CheckEvery is the number of ingested slices between drift
	// evaluations once a policy is being served (default 32).
	CheckEvery int
	// SolveBudget bounds the wall-clock time of one re-solve; the simplex
	// is cancelled mid-pivot when it expires and the previous policy stays
	// in place (0: only the caller's context bounds the solve).
	SolveBudget time.Duration
}

// WithDefaults returns the configuration with every zero field replaced by
// its documented default — the exact configuration New will run with, so
// callers that must compare configurations across requests (the server's
// conflict detection) compare effective values, not raw zeros.
func (c Config) WithDefaults() Config {
	out := c
	if out.Memory == 0 {
		out.Memory = 1
	}
	if out.Decay == 0 {
		out.Decay = 0.995
	}
	if out.DriftThreshold == 0 {
		out.DriftThreshold = 0.05
	}
	if out.DriftZ == 0 {
		out.DriftZ = 2
	} else if out.DriftZ < 0 {
		out.DriftZ = -1 // canonical "disabled" so effective configs compare equal
	}
	if out.MinSlices == 0 {
		out.MinSlices = 100
	}
	if out.MinEvidence == 0 {
		out.MinEvidence = 8
	}
	if out.CheckEvery == 0 {
		out.CheckEvery = 32
	}
	return out
}

// Stats summarizes an Adapter's lifetime activity.
type Stats struct {
	// Slices is the total number of ingested slices (including the k that
	// seed the history register).
	Slices int64
	// Refreshes counts successful re-solves; DriftRefreshes the subset
	// triggered by drift (the rest is the initial solve).
	Refreshes, DriftRefreshes int
	// WarmStarted counts refreshes whose solve reused the previous basis.
	WarmStarted int
	// LPPatched counts refreshes served by the in-place coefficient patch;
	// LPRebuilt counts full BuildFrequencyLP assemblies (the first refresh,
	// plus any refresh whose sparsity pattern moved).
	LPPatched, LPRebuilt int
	// ModelPatched counts refreshes whose compiled model was revised in
	// place by core.PatchModel; ModelRebuilt counts full System.Build
	// compilations (the first refresh, plus any refresh whose composed
	// sparsity pattern moved).
	ModelPatched, ModelRebuilt int
	// FailedRefreshes counts re-solves that did not produce a policy
	// (infeasible window, budget exhausted); the previous policy remains.
	FailedRefreshes int
}

// Outcome reports what one Observe call did.
type Outcome struct {
	// Ingested is the number of slices consumed.
	Ingested int
	// Drift is the measured drift at the last check in this call (0 when
	// no check ran).
	Drift float64
	// Refreshed reports that a new policy was installed; Trigger is
	// "initial" or "drift" when it was (or when a refresh was attempted).
	Refreshed bool
	Trigger   string
	// Patched reports the refresh revised the resident LP in place;
	// ModelPatched that the compiled model was revised in place too;
	// WarmStarted that its solve reused the previous optimal basis.
	Patched      bool
	ModelPatched bool
	WarmStarted  bool
	// Pivots is the simplex work of the refresh solve.
	Pivots int
	// Result is the installed optimization result (nil unless Refreshed).
	Result *core.Result
	// RefreshErr carries the failure of an attempted refresh that did not
	// install a policy; ingestion itself still succeeded.
	RefreshErr error
}

// Adapter is the drift controller: it owns a streaming Estimator, the
// resident frequency LP of the served model family, and the previous
// optimal basis, and re-solves — patch + warm-start — whenever the estimate
// drifts from the SR the current policy was optimized for. Safe for
// concurrent use; Observe serializes.
type Adapter struct {
	mu      sync.Mutex
	cfg     Config
	opts    core.Options
	rebuild func(*core.ServiceRequester) (*core.System, error)

	est        *Estimator
	sinceCheck int

	prob   *lp.Problem
	basis  *lp.Basis
	served *core.ServiceRequester
	sys    *core.System
	model  *core.Model
	result *core.Result
	stats  Stats
}

// New builds an Adapter. rebuild constructs the system for an estimated SR
// (typically the served model's system with its SR swapped); the SP, queue
// structure and option set must not change across rebuilds — that
// structural stability is what the patch path and warm starts exploit.
// opts.Initial is ignored (the uniform distribution is used: a controller
// joining a stream mid-way has no state to privilege), and the exact
// cross-check evaluation is skipped to keep refreshes cheap; the LP's own
// averages still describe the served policy. opts.LPMaxPivots bounds the
// pivots of each re-solve: an exhausted budget is treated exactly like a
// cancelled refresh — counted in FailedRefreshes, previous policy keeps
// serving.
func New(rebuild func(*core.ServiceRequester) (*core.System, error), opts core.Options, cfg Config) (*Adapter, error) {
	if rebuild == nil {
		return nil, fmt.Errorf("online: nil rebuild function")
	}
	cfg = cfg.WithDefaults()
	est, err := NewEstimator(cfg.Memory, cfg.Decay)
	if err != nil {
		return nil, err
	}
	if cfg.DriftThreshold < 0 || cfg.MinSlices < 1 || cfg.MinEvidence < 0 || cfg.CheckEvery < 1 || cfg.SolveBudget < 0 {
		return nil, fmt.Errorf("online: invalid config %+v", cfg)
	}
	opts.Initial = nil // uniform; the controller has no state to privilege
	opts.SkipEvaluation = true
	opts.WarmBasis = nil
	return &Adapter{cfg: cfg, opts: opts, rebuild: rebuild, est: est}, nil
}

// Observe ingests a batch of per-slice request counts and, when due, runs
// one drift check and at most one refresh. Counts are validated up front;
// an invalid batch is rejected whole. The returned error covers ingestion
// only — a failed refresh is reported in Outcome.RefreshErr and keeps the
// previous policy serving.
func (a *Adapter) Observe(ctx context.Context, counts []int) (*Outcome, error) {
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("online: negative request count %d at slice %d", c, i)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range counts {
		if err := a.est.Observe(c); err != nil {
			return nil, err
		}
	}
	a.stats.Slices += int64(len(counts))
	a.sinceCheck += len(counts)
	out := &Outcome{Ingested: len(counts)}

	if a.est.Slices() < a.cfg.MinSlices {
		return out, nil
	}
	if a.served != nil && a.sinceCheck < a.cfg.CheckEvery {
		return out, nil
	}
	a.sinceCheck = 0

	trigger := "initial"
	if a.served != nil {
		z := a.cfg.DriftZ
		if z < 0 {
			z = 0 // disabled: per-row thresholds collapse to the global one
		}
		ratio, drift, err := a.est.DriftAdaptive(a.served, a.cfg.MinEvidence, a.cfg.DriftThreshold, z)
		if err != nil {
			out.RefreshErr = err
			return out, nil
		}
		out.Drift = drift
		if ratio < 1 {
			return out, nil
		}
		trigger = "drift"
	}
	a.refresh(ctx, out, trigger)
	return out, nil
}

// refresh re-solves against the current estimate: rebuild the system and
// model for the estimated SR, revise the resident LP in place (falling back
// to a fresh assembly when the sparsity pattern moved), and solve under the
// budget, warm-starting from the previous optimal basis. Failures leave the
// served policy untouched.
func (a *Adapter) refresh(ctx context.Context, out *Outcome, trigger string) {
	out.Trigger = trigger
	ctx, rsp := obs.StartSpan(ctx, "refresh")
	rsp.Set("trigger", trigger)
	defer rsp.End()
	fail := func(err error) {
		a.stats.FailedRefreshes++
		out.RefreshErr = err
		rsp.Set("error", err.Error())
	}
	_, esp := obs.StartSpan(ctx, "estimate")
	sr, err := a.est.SR("online-estimate")
	if err != nil {
		esp.End()
		fail(err)
		return
	}
	sys, err := a.rebuild(sr)
	esp.End()
	if err != nil {
		fail(fmt.Errorf("online: rebuilding system: %w", err))
		return
	}
	// Revise the resident compiled model in place when its structure carried
	// over (System.Build is ~30% of a patched refresh), falling back to a
	// full compilation when the composed sparsity pattern moved. Like the LP
	// below, the resident model may be left describing the attempted SR when
	// a later step of this refresh fails; the next refresh re-patches it, and
	// nothing served to callers aliases it (Result owns its tables).
	model := a.model
	if model != nil {
		_, sp := obs.StartSpan(ctx, "patch-model")
		if err := core.PatchModel(model, sys); err == nil {
			out.ModelPatched = true
			a.stats.ModelPatched++
		} else {
			model = nil // pattern or shape moved: recompile below
			sp.Set("fallback", "rebuild")
		}
		sp.End()
	}
	if model == nil {
		_, sp := obs.StartSpan(ctx, "build-model")
		var err error
		model, err = sys.Build()
		sp.End()
		if err != nil {
			fail(fmt.Errorf("online: compiling model: %w", err))
			return
		}
		a.stats.ModelRebuilt++
	}
	if a.prob != nil {
		_, sp := obs.StartSpan(ctx, "patch-lp")
		if err := core.PatchFrequencyLP(a.prob, model, a.opts); err == nil {
			out.Patched = true
			a.stats.LPPatched++
		} else {
			a.prob = nil // pattern or shape moved: reassemble below
			sp.Set("fallback", "rebuild")
		}
		sp.End()
	}
	if a.prob == nil {
		_, sp := obs.StartSpan(ctx, "build-lp")
		prob, err := core.BuildFrequencyLP(model, a.opts)
		sp.End()
		if err != nil {
			fail(fmt.Errorf("online: assembling LP: %w", err))
			return
		}
		a.prob = prob
		a.stats.LPRebuilt++
	}

	solveCtx := ctx
	if a.cfg.SolveBudget > 0 {
		var cancel context.CancelFunc
		solveCtx, cancel = context.WithTimeout(ctx, a.cfg.SolveBudget)
		defer cancel()
	}
	o := a.opts
	o.WarmBasis = a.basis
	res, err := core.OptimizeProblemCtx(solveCtx, model, o, a.prob)
	if res != nil {
		out.Pivots = res.LPIterations
	}
	if err != nil {
		fail(err)
		return
	}

	a.served = sr
	a.sys = sys
	a.model = model
	a.result = res
	a.basis = res.Basis
	a.stats.Refreshes++
	if trigger == "drift" {
		a.stats.DriftRefreshes++
	}
	if res.WarmStarted {
		a.stats.WarmStarted++
		out.WarmStarted = true
	}
	out.Refreshed = true
	out.Result = res
}

// Stats returns a snapshot of the adapter's counters.
func (a *Adapter) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Current returns the most recently installed optimization result (nil
// before the first refresh).
func (a *Adapter) Current() *core.Result {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.result
}

// CurrentSystem returns the system of the most recent refresh (nil before
// the first), whose state names index the current policy.
func (a *Adapter) CurrentSystem() *core.System {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sys
}

// ServedSR returns the SR estimate the current policy was solved for (nil
// before the first refresh).
func (a *Adapter) ServedSR() *core.ServiceRequester {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.served
}
