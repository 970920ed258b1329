package lp_test

import (
	"bytes"
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
)

// diskSweepLP is the frequency LP of the disk study (66 states × 5
// commands, horizon 10⁶, minimize power) with a penalty bound as its last
// row — the LP every point of the paper's disk Pareto curves solves.
func diskSweepLP(t testing.TB) (*lp.Problem, int) {
	t.Helper()
	sys := devices.DiskSystem(core.TwoStateSR("w", 0.002, 0.3))
	m, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	prob, err := core.BuildFrequencyLP(m, core.Options{
		Alpha:     core.HorizonToAlpha(1e6),
		Initial:   core.Delta(m.N, sys.Index(core.State{SP: devices.DiskActive})),
		Objective: core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		Bounds:    []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return prob, len(prob.Cons) - 1
}

// crossingLP is min x + 2y subject to x + y >= 4, x − y <= c, x <= 10: the
// row x − y <= c changes its standard-form relation whenever c changes
// sign, and every c in [−10, 10] is feasible.
func crossingLP() (*lp.Problem, int) {
	p := lp.NewProblem(lp.Minimize, 2)
	p.Obj = []float64{1, 2}
	p.AddConstraint("cover", []float64{1, 1}, lp.GE, 4)
	p.AddConstraint("gap", []float64{1, -1}, lp.LE, 3)
	p.AddConstraint("cap", []float64{1, 0}, lp.LE, 10)
	return p, 1
}

// outcome is everything a solve reports that must not depend on whether
// it ran on a resident or a freshly built solver state.
type outcome struct {
	status    lp.Status
	err       string
	objective uint64
	x         []float64
	pivots    int
	warm      bool
	factorNNZ int
	basis     []byte
}

func outcomeOf(t *testing.T, sol *lp.Solution, basis *lp.Basis, err error) outcome {
	t.Helper()
	o := outcome{status: sol.Status, objective: math.Float64bits(sol.Objective), x: sol.X,
		pivots: sol.Iterations, warm: sol.WarmStarted, factorNNZ: sol.FactorNNZ}
	if err != nil {
		o.err = err.Error()
	}
	if basis != nil {
		b, merr := basis.MarshalBinary()
		if merr != nil {
			t.Fatal(merr)
		}
		o.basis = b
	}
	return o
}

func (o outcome) equal(p outcome) bool {
	return o.status == p.status && o.err == p.err && o.objective == p.objective &&
		slices.Equal(o.x, p.x) && o.pivots == p.pivots && o.warm == p.warm &&
		o.factorNNZ == p.factorNNZ && bytes.Equal(o.basis, p.basis)
}

// sweepStep is one point of a chain: the swept row's new rhs, and the
// context to solve it under (nil: background).
type sweepStep struct {
	v   float64
	ctx context.Context
}

// chainResult is one path's record of a chain of solves.
type chainResult struct {
	out      []outcome
	refactor int // total Refactorizations
}

// runChains solves the steps twice, each point warm-started from the
// previous Optimal point's basis (seed for the first): through one
// Resident, and through Solver.Solve on a fresh copy of the problem per
// point — the path the resident replaces. The solver options are built per
// path so each gets its own monitor.
func runChains(t *testing.T, p *lp.Problem, row int, seed *lp.Basis, steps []sweepStep, opts func() []lp.Option) (res, fresh chainResult) {
	t.Helper()
	ctxOf := func(s sweepStep) context.Context {
		if s.ctx == nil {
			return context.Background()
		}
		return s.ctx
	}
	rp := &lp.Problem{Sense: p.Sense, Obj: p.Obj, Cons: slices.Clone(p.Cons)}
	rs := lp.NewSolver(opts()...).Resident(rp)
	warm := seed
	for _, s := range steps {
		rs.SetRHS(row, s.v)
		sol, basis, err := rs.Solve(ctxOf(s), warm)
		if err == nil {
			warm = basis
		}
		res.out = append(res.out, outcomeOf(t, sol, basis, err))
		res.refactor += sol.Refactorizations
	}
	solver := lp.NewSolver(opts()...)
	warm = seed
	for _, s := range steps {
		fp := &lp.Problem{Sense: p.Sense, Obj: p.Obj, Cons: slices.Clone(p.Cons)}
		fp.Cons[row].RHS = s.v
		sol, basis, err := solver.Solve(ctxOf(s), fp, warm)
		if err == nil {
			warm = basis
		}
		fresh.out = append(fresh.out, outcomeOf(t, sol, basis, err))
		fresh.refactor += sol.Refactorizations
	}
	return res, fresh
}

func compareChains(t *testing.T, name string, steps []sweepStep, res, fresh chainResult) {
	t.Helper()
	for i := range steps {
		if !res.out[i].equal(fresh.out[i]) {
			r, f := res.out[i], fresh.out[i]
			t.Errorf("%s: point %d (rhs %g): resident {%v %q obj %x pivots %d warm %v nnz %d} != fresh {%v %q obj %x pivots %d warm %v nnz %d} (or X/basis differ)",
				name, i, steps[i].v, r.status, r.err, r.objective, r.pivots, r.warm, r.factorNNZ,
				f.status, f.err, f.objective, f.pivots, f.warm, f.factorNNZ)
		}
	}
}

// diskGrid is a disk-LP chain whose warm points take pivots (0.02, 0.017
// and the loosening back to 0.03) and whose 0.011 point is infeasible.
var diskGrid = steps(0.05, 0.04, 0.03, 0.025, 0.02, 0.017, 0.015, 0.013, 0.012, 0.03, 0.011, 0.05)

func steps(vs ...float64) []sweepStep {
	out := make([]sweepStep, len(vs))
	for i, v := range vs {
		out[i] = sweepStep{v: v}
	}
	return out
}

// TestResidentMatchesFreshWarmSolve is the resident's contract: a chain of
// rhs-only re-solves returns bit for bit what Solver.Solve returns on the
// same chain — status, objective, X, pivots, WarmStarted, final factor
// size and exported basis — while rebuilding fewer factorizations. The
// disk grids take warm pivots (dual-simplex repair after a tightening,
// phase 2 after a loosening) and include infeasible bounds (below ~0.012
// the penalty bound cannot be met), which break the chain and force the
// next point back onto a fresh solve; the crossing grid changes the sign of
// an rhs, which changes the standard form and must fall back the same way.
func TestResidentMatchesFreshWarmSolve(t *testing.T) {
	disk, diskRow := diskSweepLP(t)
	cross, crossRow := crossingLP()
	cases := []struct {
		name  string
		p     *lp.Problem
		row   int
		steps []sweepStep
		opts  []lp.Option
	}{
		{"disk", disk, diskRow, diskGrid, nil},
		{"disk/infeasible", disk, diskRow, steps(0.8, 1e-5, 0.3, 1e-6, 0.2, 0.5, 1e-7, 0.05, 0.9), nil},
		{"disk/at-scale", disk, diskRow, diskGrid, []lp.Option{lp.ForceAtScale()}},
		{"crossing", cross, crossRow, steps(3, 1, -1, -3, -2, 2, 0, -0.5), nil},
		{"crossing/at-scale", cross, crossRow, steps(3, 1, -1, -3, -2, 2, 0, -0.5), []lp.Option{lp.ForceAtScale()}},
	}
	for _, tc := range cases {
		res, fresh := runChains(t, tc.p, tc.row, nil, tc.steps, func() []lp.Option { return tc.opts })
		compareChains(t, tc.name, tc.steps, res, fresh)
		if res.refactor >= fresh.refactor {
			t.Errorf("%s: resident rebuilt %d factorizations, fresh solves %d: the resident state was never reused",
				tc.name, res.refactor, fresh.refactor)
		}
	}
}

// TestResidentBudgetAndCancellation: the pivot budget and the context
// govern a resident solve exactly as a fresh one — a budget-stopped or
// cancelled point reports the same status and pivots, and the chain
// resumes from the last Optimal basis. The chains start from the 0.05
// point's optimal basis, so small budgets stop warm points, not the cold
// solve.
func TestResidentBudgetAndCancellation(t *testing.T) {
	p, row := diskSweepLP(t)
	seed := resolveAt(t, p, row, 0.05)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	st := slices.Clone(diskGrid)
	st[2].ctx = cancelled
	for _, budget := range []int{0, 2, 5} {
		res, fresh := runChains(t, p, row, seed, st, func() []lp.Option { return []lp.Option{lp.WithMaxPivots(budget)} })
		compareChains(t, "budget", st, res, fresh)
		if res.out[2].status != lp.Cancelled {
			t.Errorf("budget %d: point under a cancelled context reports %v", budget, res.out[2].status)
		}
		if budget > 0 && !slices.ContainsFunc(res.out, func(o outcome) bool { return o.status == lp.BudgetExceeded }) {
			t.Errorf("budget %d: no point exhausted its budget", budget)
		}
	}
	// The wall clock is per solve: a resident re-solve gets a fresh
	// deadline, not the expired one of the solve before it. (The crossing
	// LP solves in microseconds, far inside the clock.)
	cp, crow := crossingLP()
	rs := lp.NewSolver(lp.WithWallClock(50 * time.Millisecond)).Resident(cp)
	ctx := context.Background()
	_, basis, err := rs.Solve(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	rs.SetRHS(crow, 1)
	sol, _, err := rs.Solve(ctx, basis)
	if err != nil || sol.Refactorizations != 0 {
		t.Errorf("resident re-solve after the previous solve's deadline passed: err %v, %d refactorizations (want a resident solve)", err, sol.Refactorizations)
	}
}

// TestResidentMonitorEvents: an attached flight recorder sees the same
// event sequence from a resident re-solve as from a fresh warm solve —
// same events in the same phases at the same pivot counts, with the same
// objective and infeasibility readings. Only the LU-rebuild counter and
// the timings may differ.
func TestResidentMonitorEvents(t *testing.T) {
	p, row := diskSweepLP(t)
	type event struct {
		Event, Phase                  string
		Pivots, EtaLen                int
		Objective, PrimalInf, DualInf float64
		Perturbed                     bool
	}
	for _, scale := range []bool{false, true} {
		var recs [][]event
		opts := func() []lp.Option {
			k := len(recs)
			recs = append(recs, nil)
			o := []lp.Option{lp.WithMonitorEvery(1), lp.WithMonitor(lp.MonitorFunc(func(s lp.Snapshot) {
				recs[k] = append(recs[k], event{s.Event, s.Phase, s.Pivots, s.EtaLen, s.Objective, s.PrimalInf, s.DualInf, s.Perturbed})
			}))}
			if scale {
				o = append(o, lp.ForceAtScale())
			}
			return o
		}
		res, fresh := runChains(t, p, row, nil, diskGrid, opts)
		compareChains(t, "monitor", diskGrid, res, fresh)
		if len(recs[0]) == 0 || !slices.Equal(recs[0], recs[1]) {
			t.Errorf("at-scale %v: resident saw %d events, fresh %d; sequences differ", scale, len(recs[0]), len(recs[1]))
			for i := range min(len(recs[0]), len(recs[1])) {
				if recs[0][i] != recs[1][i] {
					t.Logf("first difference at event %d: resident %+v, fresh %+v", i, recs[0][i], recs[1][i])
					break
				}
			}
		}
	}
}

// resolveAt solves p with its row's rhs at v and returns the optimal basis.
func resolveAt(t *testing.T, p *lp.Problem, row int, v float64) *lp.Basis {
	t.Helper()
	q := &lp.Problem{Sense: p.Sense, Obj: p.Obj, Cons: slices.Clone(p.Cons)}
	q.Cons[row].RHS = v
	_, basis, err := lp.NewSolver().Solve(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return basis
}

// TestResidentResolveAllocs bounds a resident re-solve that needs no
// pivots: the Solution, its X and activities, and the exported Basis —
// no standard form, row mirror or factorization is rebuilt per point.
func TestResidentResolveAllocs(t *testing.T) {
	p, row := diskSweepLP(t)
	rs := lp.NewSolver().Resident(p)
	ctx := context.Background()
	_, basis, err := rs.Solve(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := p.Cons[row].RHS
	var sol *lp.Solution
	allocs := testing.AllocsPerRun(20, func() {
		rs.SetRHS(row, v)
		sol, basis, err = rs.Solve(ctx, basis)
	})
	if err != nil || sol.Iterations != 0 || sol.Refactorizations != 0 {
		t.Fatalf("re-solve: err %v, %d pivots, %d refactorizations; want a pivot-free resident solve", err, sol.Iterations, sol.Refactorizations)
	}
	if allocs > 8 {
		t.Errorf("pivot-free resident re-solve allocates %.0f times, want <= 8", allocs)
	}
}

// TestAtScaleNoRedundantLU: at sparse scale a cold solve perturbs the rhs
// and restores it once optimal; the restored basic values must come from
// the existing factorization (an FTRAN), not from a second LU of the
// unchanged basis. Every LU rebuild therefore follows at least one pivot
// since the previous rebuild, so Refactorizations counts distinct bases.
func TestAtScaleNoRedundantLU(t *testing.T) {
	p, _ := diskSweepLP(t)
	var events []lp.Snapshot
	rec := lp.MonitorFunc(func(s lp.Snapshot) { events = append(events, s) })
	sol, _, err := lp.NewSolver(lp.ForceAtScale(), lp.WithMonitor(rec)).Solve(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, lastPivots, ftranOnly := 0, -1, 0
	for _, ev := range events {
		if ev.Event == "start" {
			rebuilt, lastPivots = 0, -1
		}
		if ev.Event != "refactor" {
			continue
		}
		if ev.Refactorizations == rebuilt {
			ftranOnly++
			continue
		}
		if ev.Pivots == lastPivots {
			t.Errorf("LU rebuilt again at pivot %d with no basis change (refactorization %d)", ev.Pivots, ev.Refactorizations)
		}
		rebuilt, lastPivots = ev.Refactorizations, ev.Pivots
	}
	if ftranOnly == 0 {
		t.Errorf("no rhs-only recomputation in a perturbed at-scale solve (%d pivots, %d refactorizations)", sol.Iterations, sol.Refactorizations)
	}
}

// TestResidentHealthCountersPerSolve: the sparse kernel's health counters
// (FT rejections, hyper-sparse and dense solves) are per-solve totals on a
// resident state too — a pivot-free re-solve reports its own counts, the
// same as a fresh warm solve of that point, not the cold solve's before it.
func TestResidentHealthCountersPerSolve(t *testing.T) {
	p, row := diskSweepLP(t)
	var finish []lp.Snapshot
	rec := lp.WithMonitor(lp.MonitorFunc(func(s lp.Snapshot) {
		if s.Event == "finish" {
			finish = append(finish, s)
		}
	}))
	res, fresh := runChains(t, p, row, nil, steps(0.5, 0.5), func() []lp.Option { return []lp.Option{lp.ForceAtScale(), rec} })
	compareChains(t, "health", steps(0.5, 0.5), res, fresh)
	if len(finish) != 4 {
		t.Fatalf("%d finish events, want 4", len(finish))
	}
	cold, resident, warm := finish[0].Health, finish[1].Health, finish[3].Health
	if cold.HyperSolves+cold.DenseSolves == 0 {
		t.Fatalf("cold at-scale solve reports no sparse solves")
	}
	if resident.HyperSolves != warm.HyperSolves || resident.DenseSolves != warm.DenseSolves || resident.FTRejections != warm.FTRejections {
		t.Errorf("resident re-solve health counters %+v, fresh warm solve %+v", resident, warm)
	}
}
