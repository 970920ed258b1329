package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/mat"
	"repro/internal/obs"
)

// Objective selects the metric to optimize and the direction. PO1 minimizes
// MetricPenalty; PO2 minimizes MetricPower; the web-server study maximizes
// nothing but constrains MetricService from below while minimizing power.
type Objective struct {
	Metric string
	Sense  lp.Sense
}

// Bound is a linear constraint on the per-slice average of a metric:
// E[metric] Rel Value. Bounds are stated in per-slice units; the paper's
// total-discounted bounds are these values times the expected horizon
// 1/(1−α) (e.g. Example A.2 uses 0.5·10⁵ where we write 0.5).
type Bound struct {
	Metric string
	Rel    lp.Rel
	Value  float64
}

// Options configures a policy optimization run.
type Options struct {
	// Alpha is the discount factor in [0,1); the expected session length is
	// 1/(1−Alpha) slices (paper Section IV).
	Alpha float64
	// Initial is the initial state distribution q0; nil selects the uniform
	// distribution.
	Initial mat.Vector
	// Objective selects metric and sense; the zero value minimizes the
	// performance penalty (PO1).
	Objective Objective
	// Bounds are the constraint rows added to LP2, producing LP3/LP4.
	Bounds []Bound
	// UnvisitedCommand is issued deterministically in states with zero
	// state-action frequency, where the LP leaves the policy unconstrained
	// (such states are unreachable under the extracted policy). Defaults to
	// command 0.
	UnvisitedCommand int
	// SkipEvaluation disables the exact cross-check evaluation of the
	// extracted policy (a time saver inside large sweeps).
	SkipEvaluation bool
	// WarmBasis optionally warm-starts the LP from the optimal basis of a
	// previous structurally identical solve (Result.Basis) — typically the
	// neighbouring point of a Pareto sweep, where only one bound value
	// moved. An unusable basis silently falls back to a cold solve. Warm
	// starting never changes feasibility or the optimal objective; on
	// degenerate LPs with multiple optima it may extract a different
	// optimal policy (equal objective) than a cold solve would.
	WarmBasis *lp.Basis
	// LPMaxPivots bounds the simplex pivots of one solve; 0 is unlimited.
	// An exhausted budget surfaces as Status lp.BudgetExceeded — a resource
	// verdict callers treat like a deadline, not a statement about the
	// problem.
	LPMaxPivots int
	// LPMonitor attaches a solve flight recorder (lp.WithMonitor): a
	// callback observing iteration snapshots at every refactorization and
	// every LPMonitorEvery pivots. Purely observational — an attached
	// monitor never changes the pivot trajectory — and runtime-only:
	// servers must not fingerprint it into cache keys.
	LPMonitor lp.Monitor
	// LPMonitorEvery sets the monitor's "progress" pivot cadence
	// (0 = the lp default of 64).
	LPMonitorEvery int
}

// lpSolver builds the configured lp.Solver for these options.
func (o *Options) lpSolver() *lp.Solver {
	return lp.NewSolver(
		lp.WithMaxPivots(o.LPMaxPivots),
		lp.WithMonitor(o.LPMonitor),
		lp.WithMonitorEvery(o.LPMonitorEvery),
	)
}

// Result is the outcome of policy optimization.
type Result struct {
	// Status is the LP status; all other fields are valid only when it is
	// lp.Optimal.
	Status lp.Status
	// Policy is the extracted optimal Markov stationary policy (Eq. 16).
	Policy *Policy
	// Frequencies is the N×A matrix of scaled state–action frequencies
	// y(s,a) = (1−α)x(s,a); entries sum to one.
	Frequencies *mat.Matrix
	// Objective is the optimal per-slice expected value of the objective
	// metric.
	Objective float64
	// Averages maps every model metric to its per-slice expected value
	// under the optimal frequencies.
	Averages map[string]float64
	// Eval is the exact evaluation of the extracted policy (nil when
	// SkipEvaluation); by construction its averages agree with Averages.
	Eval *Evaluation
	// LPIterations counts simplex pivots.
	LPIterations int
	// LPRefactorizations counts full basis refactorizations (O(m³) under
	// the dense factorization, O(nnz + fill) under the sparse one).
	// Together with LPIterations this is the solver work a query actually
	// performed — what the composite benchmarks report next to wall time.
	LPRefactorizations int
	// LPFactorNNZ is the stored nonzeros of the final basis factorization
	// (m² dense, nnz(L)+nnz(U)+etas sparse) — the fill-in statistic that
	// shows whether the sparse kernel is containing fill on this model
	// family.
	LPFactorNNZ int
	// LPTimings is the solver's per-stage wall-clock breakdown
	// (ftran/btran/price/factor/update) — the attribution that shows where
	// a solve's time went, stage by stage.
	LPTimings lp.Timings
	// Basis is the optimal LP basis, reusable as Options.WarmBasis for the
	// next solve of a structurally identical problem.
	Basis *lp.Basis
	// WarmStarted reports whether the LP actually reused Options.WarmBasis
	// (false when none was given or it fell back to a cold solve).
	WarmStarted bool
}

// ErrInfeasible is wrapped by Optimize when the constraint set cannot be
// met (the paper's f(c) = +∞ case defining the feasible allocation set).
var ErrInfeasible = errors.New("core: constraints infeasible")

// Optimize solves the constrained policy optimization problem on model m by
// building the state–action frequency linear program of Appendix A
// (LP2 with the balance equations; LP3/LP4 when Bounds are present) and
// extracting the optimal Markov stationary policy.
func Optimize(m *Model, opts Options) (*Result, error) {
	return OptimizeCtx(context.Background(), m, opts)
}

// OptimizeCtx is Optimize under a context. Cancellation is checked inside
// the simplex pivot loop (lp.Solver.Solve), so a deadline or cancel
// aborts a solve mid-flight within one pivot — the property long-lived
// servers need to make per-request deadlines real. A cancelled solve
// returns a Result with Status lp.Cancelled and an error satisfying
// errors.Is against context.Canceled or context.DeadlineExceeded.
func OptimizeCtx(ctx context.Context, m *Model, opts Options) (*Result, error) {
	_, sp := obs.StartSpan(ctx, "build")
	prob, err := BuildFrequencyLP(m, opts)
	if prob != nil {
		sp.Set("vars", prob.NumVars())
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	return OptimizeProblemCtx(ctx, m, opts, prob)
}

// OptimizeProblemCtx is OptimizeCtx on a caller-supplied frequency LP: prob
// must be the program BuildFrequencyLP(m, opts) would assemble — typically
// it was built exactly that way once and then revised in place with
// PatchFrequencyLP as the model's SR drifted. This is the online re-solve
// hot path: the Problem allocation, its objective vector and every
// constraint row's index structure are reused across solves, so a refresh
// pays only for coefficient rewrites and simplex pivots. Only cheap shape
// checks guard the pairing of prob and m; a semantically mismatched problem
// yields a well-formed but wrong answer, exactly as it would for any solver
// handed the wrong data.
func OptimizeProblemCtx(ctx context.Context, m *Model, opts Options, prob *lp.Problem) (*Result, error) {
	return optimizeProblem(ctx, m, opts, prob, nil)
}

// optimizeProblem is OptimizeProblemCtx with an optional resident solver
// bound to prob (see lp.Resident), through which the LP is solved instead
// of through a fresh Solver.Solve; results are identical either way.
func optimizeProblem(ctx context.Context, m *Model, opts Options, prob *lp.Problem, resident *lp.Resident) (*Result, error) {
	if opts.Objective.Metric == "" {
		opts.Objective.Metric = MetricPenalty
	}
	if opts.UnvisitedCommand < 0 || opts.UnvisitedCommand >= m.A {
		return nil, fmt.Errorf("core: unvisited command %d outside [0,%d)", opts.UnvisitedCommand, m.A)
	}
	if prob == nil {
		return nil, fmt.Errorf("core: nil frequency LP")
	}
	if prob.NumVars() != m.N*m.A {
		return nil, fmt.Errorf("core: frequency LP has %d variables, want %d", prob.NumVars(), m.N*m.A)
	}
	// q0 is resolved through the same helper BuildFrequencyLP uses, so the
	// LP and the final policy evaluation agree on the initial distribution.
	q0, err := initialDistribution(m, opts)
	if err != nil {
		return nil, err
	}

	solveCtx, sp := obs.StartSpan(ctx, "solve")
	var sol *lp.Solution
	var basis *lp.Basis
	if resident != nil {
		sol, basis, err = resident.Solve(solveCtx, opts.WarmBasis)
	} else {
		sol, basis, err = opts.lpSolver().Solve(solveCtx, prob, opts.WarmBasis)
	}
	sp.Set("status", sol.Status.String())
	sp.Set("pivots", sol.Iterations)
	sp.Set("refactorizations", sol.Refactorizations)
	sp.Set("factor_nnz", sol.FactorNNZ)
	sp.Set("warm", sol.WarmStarted)
	annotateTimings(sp, sol.Timings)
	sp.End()
	res := &Result{
		Status:             sol.Status,
		LPIterations:       sol.Iterations,
		LPRefactorizations: sol.Refactorizations,
		LPFactorNNZ:        sol.FactorNNZ,
		LPTimings:          sol.Timings,
		Basis:              basis,
		WarmStarted:        sol.WarmStarted,
	}
	if err != nil {
		if sol.Status == lp.Infeasible {
			return res, fmt.Errorf("core: %w: %v", ErrInfeasible, err)
		}
		// The lp error already wraps the context cause on cancellation, so
		// errors.Is(err, context.Canceled/DeadlineExceeded) works here too.
		return res, fmt.Errorf("core: policy optimization LP failed: %w", err)
	}

	// Frequencies and policy extraction (Eq. 16).
	_, ex := obs.StartSpan(ctx, "extract")
	defer ex.End()
	freq := mat.NewMatrix(m.N, m.A)
	copy(freq.Data, sol.X)
	pol := mat.NewMatrix(m.N, m.A)
	const visitTol = 1e-12
	for s := 0; s < m.N; s++ {
		row := freq.Row(s)
		total := row.Sum()
		if total > visitTol {
			dst := pol.Row(s)
			for a := 0; a < m.A; a++ {
				v := row[a] / total
				if v < 0 {
					v = 0
				}
				dst[a] = v
			}
			dst.Normalize()
		} else {
			pol.Set(s, opts.UnvisitedCommand, 1)
		}
	}
	policy, err := NewPolicy(pol)
	if err != nil {
		return nil, fmt.Errorf("core: extracted policy invalid: %w", err)
	}
	res.Policy = policy
	res.Frequencies = freq

	res.Averages = make(map[string]float64, len(m.Metrics))
	for name, table := range m.Metrics {
		v := 0.0
		for i, y := range freq.Data {
			if y != 0 {
				v += y * table.Data[i]
			}
		}
		res.Averages[name] = v
	}
	res.Objective = res.Averages[opts.Objective.Metric]

	if !opts.SkipEvaluation {
		ev, err := Evaluate(m, policy, q0, opts.Alpha)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating extracted policy: %w", err)
		}
		res.Eval = ev
	}
	return res, nil
}

// annotateTimings attaches the solver's per-stage wall-clock breakdown to
// the solve span, in milliseconds, under the stage keys the benchmarks
// report (<stage>_ms).
func annotateTimings(sp *obs.Span, t lp.Timings) {
	if sp == nil || t.Total() == 0 {
		return
	}
	for _, st := range t.Stages() {
		sp.Set(st.Name+"_ms", float64(st.D.Nanoseconds())/1e6)
	}
}

// BuildFrequencyLP assembles the state–action frequency linear program of
// Appendix A (LP2; LP3/LP4 when Bounds are present) for model m: one
// variable per (state, command) pair, the balance equalities
//
//	Σ_a y(j,a) − α Σ_s Σ_a p_{s,j}(a) y(s,a) = (1−α) q0_j,
//
// and one row per metric bound. Rows are assembled directly in sparse form
// from the model's CSR transition structure — the balance column of (s,a)
// is e_s − α·P_a(s,·)ᵀ, so row j's entries come straight from the rows of
// the transposed chains — and the solver stores the matrix column-sparse,
// so no dense |S·A|-wide coefficient vector is ever materialized. Optimize
// is the primary caller; it is exported for the online adapter, the
// benchmarks, and the tests that solve the identical LP under other solver
// configurations or prove its optimum with lp.CertifyExact.
func BuildFrequencyLP(m *Model, opts Options) (*lp.Problem, error) {
	prob := lp.NewProblem(opts.Objective.Sense, m.N*m.A)
	err := frequencyRows(m, opts, prob.Obj, func(row int, cols []int, vals []float64, rel lp.Rel, rhs float64) error {
		var name string
		if row < m.N {
			name = fmt.Sprintf("balance[%d]", row)
		} else {
			name = opts.Bounds[row-m.N].rowName()
		}
		prob.AddConstraintNZ(name, cols, vals, rel, rhs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return prob, nil
}

// rowName is the name of the bound's frequency-LP row.
func (b Bound) rowName() string {
	return fmt.Sprintf("%s %s %g", b.Metric, b.Rel, b.Value)
}

// frequencyRows is the one generator of the frequency LP, shared by
// BuildFrequencyLP and PatchFrequencyLP. It validates opts against m — the
// discount factor, the objective and bound metrics, and q0 — then writes
// the objective coefficients into obj (length N·A) and calls emit once per
// constraint row, in order: row j < N is balance row j, row N+k is bound k.
// emit receives the row's raw (column, value) pairs, its relation and its
// right-hand side. Balance pairs are neither sorted nor merged — the column
// of (s,a) is e_s − α·P_a(s,·)ᵀ, so a self-loop p_{j,j}(a) duplicates the
// diagonal column — and each sink normalizes them through lp.CompressRow.
// The pairs alias scratch storage that the next row overwrites.
func frequencyRows(m *Model, opts Options, obj []float64, emit func(row int, cols []int, vals []float64, rel lp.Rel, rhs float64) error) error {
	if opts.Alpha < 0 || opts.Alpha >= 1 {
		return fmt.Errorf("core: discount factor %g outside [0,1)", opts.Alpha)
	}
	if opts.Objective.Metric == "" {
		opts.Objective.Metric = MetricPenalty
	}
	objTable, err := m.Metric(opts.Objective.Metric)
	if err != nil {
		return err
	}
	q0, err := initialDistribution(m, opts)
	if err != nil {
		return err
	}
	bounds := make([]*mat.Matrix, len(opts.Bounds))
	for k, b := range opts.Bounds {
		if bounds[k], err = m.Metric(b.Metric); err != nil {
			return err
		}
	}

	// Metric tables are N×A row-major, the variable order (s,a) ↦ s·A+a.
	copy(obj, objTable.Data)

	// Row j's incoming transitions (s, p_{s,j}(a)) are row j of each
	// command's transposed chain: one O(nnz) transpose per command replaces
	// an O(N²) column scan per row.
	alpha := opts.Alpha
	pts := make([]*mat.CSR, m.A)
	for a := range pts {
		pts[a] = m.P[a].T()
	}
	var idx []int
	var val []float64
	for j := 0; j < m.N; j++ {
		idx, val = idx[:0], val[:0]
		for a := 0; a < m.A; a++ {
			idx = append(idx, j*m.A+a)
			val = append(val, 1)
			cols, vals := pts[a].RowNZ(j)
			for k, s := range cols {
				idx = append(idx, s*m.A+a)
				val = append(val, -alpha*vals[k])
			}
		}
		if err := emit(j, idx, val, lp.EQ, (1-alpha)*q0[j]); err != nil {
			return err
		}
	}
	for k, b := range opts.Bounds {
		idx, val = idx[:0], val[:0]
		for i, v := range bounds[k].Data {
			if v != 0 {
				idx = append(idx, i)
				val = append(val, v)
			}
		}
		if err := emit(m.N+k, idx, val, b.Rel, b.Value); err != nil {
			return err
		}
	}
	return nil
}

// initialDistribution resolves and validates Options.Initial (nil selects
// the uniform distribution); it is the single owner of the q0 checks shared
// by Optimize and BuildFrequencyLP.
func initialDistribution(m *Model, opts Options) (mat.Vector, error) {
	q0 := opts.Initial
	if q0 == nil {
		return Uniform(m.N), nil
	}
	if len(q0) != m.N {
		return nil, fmt.Errorf("core: initial distribution has %d entries, want %d", len(q0), m.N)
	}
	if !q0.IsDistribution(1e-9) {
		return nil, fmt.Errorf("core: initial distribution does not sum to 1")
	}
	return q0, nil
}

// HorizonToAlpha converts an expected session length in slices (the paper's
// "time horizon") to the equivalent discount factor α = 1 − 1/horizon.
func HorizonToAlpha(horizon float64) float64 {
	if horizon < 1 {
		panic(fmt.Sprintf("core: horizon %g < 1 slice", horizon))
	}
	return 1 - 1/horizon
}

// AlphaToHorizon is the inverse of HorizonToAlpha.
func AlphaToHorizon(alpha float64) float64 {
	if alpha < 0 || alpha >= 1 {
		panic(fmt.Sprintf("core: alpha %g outside [0,1)", alpha))
	}
	return 1 / (1 - alpha)
}

// WaitingTimeBound converts a mean-waiting-time bound (in slices) into the
// equivalent mean-queue-length bound via Little's law, using the SR's
// long-run arrival rate: E[q] = λ·W. The paper's disk study states latency
// constraints this way.
func WaitingTimeBound(sr *ServiceRequester, maxWait float64) (Bound, error) {
	lambda, err := sr.MeanArrivalRate()
	if err != nil {
		return Bound{}, err
	}
	return Bound{Metric: MetricPenalty, Rel: lp.LE, Value: lambda * maxWait}, nil
}

// ParetoPoint is one point of a power–performance tradeoff curve.
type ParetoPoint struct {
	// BoundValue is the swept constraint value.
	BoundValue float64
	// Feasible reports whether the LP was feasible at this bound (the
	// paper's feasible-allocation set membership).
	Feasible bool
	// Objective is the optimal objective (per-slice units) when feasible.
	Objective float64
	// Averages carries all per-slice metric averages when feasible.
	Averages map[string]float64
	// Result is the full optimization result when feasible (policy etc.).
	Result *Result
}

// ParetoSweep solves the optimization once per value in boundValues for the
// constraint "metric rel v", holding all other options fixed, and returns
// the tradeoff curve (Section IV-A). Infeasible values yield points with
// Feasible=false, corresponding to f(c)=+∞ in the paper.
//
// Consecutive points differ only in one right-hand side, so each solve
// warm-starts from the previous feasible point's optimal basis (a caller-
// supplied Options.WarmBasis seeds the first point), on one resident LP
// (see ParetoSweepCtx). This is the sequential reference path; package
// sweep runs ParetoSweepCtx per chunk on a worker pool for multi-core
// sweeps.
func ParetoSweep(m *Model, opts Options, metric string, rel lp.Rel, boundValues []float64) ([]ParetoPoint, error) {
	return ParetoSweepCtx(context.Background(), m, opts, metric, rel, boundValues, false)
}

// ParetoSweepCtx is ParetoSweep with cancellation — checked between points
// and, through the lp layer, inside each solve's pivot loop — and an
// optional cold mode that disables basis reuse entirely (including any
// caller-supplied Options.WarmBasis), so every point is solved from
// scratch. It is the chunk worker of package sweep. A sweep cancelled
// between points returns the context's cause (context.Cause), so a caller
// that cancelled with a reason gets that reason back.
//
// The frequency LP is built once and kept resident (lp.Resident): each
// point only moves the swept bound's right-hand side. In warm mode a solve
// warm-started from the previous point's basis reuses that solve's standard
// form and basis factorization, so it pays one FTRAN and its own pivots
// instead of an LP assembly and an LU rebuild; its results are
// bit-identical to solving every point afresh from the previous feasible
// point's basis. In cold mode every solve starts without a basis, which is
// exactly a fresh Solver.Solve of the point's LP. Each point's Result,
// Basis included, is its own snapshot.
func ParetoSweepCtx(ctx context.Context, m *Model, opts Options, metric string, rel lp.Rel, boundValues []float64, cold bool) ([]ParetoPoint, error) {
	points := make([]ParetoPoint, 0, len(boundValues))
	if len(boundValues) == 0 {
		return points, nil
	}
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	o := opts
	o.Bounds = append(append([]Bound{}, opts.Bounds...), Bound{Metric: metric, Rel: rel, Value: boundValues[0]})
	swept := &o.Bounds[len(o.Bounds)-1]
	if cold {
		o.WarmBasis = nil
	}
	_, sp := obs.StartSpan(ctx, "build")
	prob, err := BuildFrequencyLP(m, o)
	sp.End()
	if err != nil {
		return nil, err
	}
	resident := o.lpSolver().Resident(prob)
	row := len(prob.Cons) - 1 // the swept bound's row
	for _, v := range boundValues {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		swept.Value = v
		resident.SetRHS(row, v)
		prob.Cons[row].Name = swept.rowName()
		r, err := optimizeProblem(ctx, m, o, prob, resident)
		switch {
		case err == nil:
			if !cold {
				o.WarmBasis = r.Basis
			}
			points = append(points, ParetoPoint{
				BoundValue: v, Feasible: true,
				Objective: r.Objective, Averages: r.Averages, Result: r,
			})
		case errors.Is(err, ErrInfeasible):
			points = append(points, ParetoPoint{BoundValue: v, Objective: math.Inf(1)})
		default:
			return nil, err
		}
	}
	return points, nil
}
