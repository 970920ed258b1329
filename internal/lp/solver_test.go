package lp

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// kernelConfigs names the two configurations the basis-size rule selects
// between. On the small parity corpus the default solver always runs the
// dense kernel with Dantzig pricing; ForceAtScale runs the sparse
// Forrest–Tomlin kernel with Devex on the same problems.
var kernelConfigs = []struct {
	name string
	opts []Option
}{
	{"dense+dantzig", nil},
	{"sparse+devex", []Option{ForceAtScale()}},
}

// TestFactorizerPricerParity is the kernel contract: every corpus problem
// solved under both size-selected configurations reaches the verdict it
// has in exact arithmetic — certifyVerdict proves each Optimal, Infeasible
// and Unbounded answer — and every optimal solution is feasible for the
// original constraints. This is what licenses the solver to switch kernel
// and pricer by basis size without changing answers.
func TestFactorizerPricerParity(t *testing.T) {
	for name, p := range parityProblems() {
		for _, kc := range kernelConfigs {
			sol, basis, err := NewSolver(kc.opts...).Solve(context.Background(), p, nil)
			label := name + "/" + kc.name
			if cerr := certifyVerdict(p, sol, basis, certResiduals[name], kc.opts...); cerr != nil {
				t.Errorf("%s: %v verdict (err %v) not certified: %v", label, sol.Status, err, cerr)
				continue
			}
			if err != nil {
				continue
			}
			if !feasible(p, sol.X, 1e-6) {
				t.Errorf("%s: solution infeasible", label)
			}
			if sol.FactorNNZ <= 0 {
				t.Errorf("%s: FactorNNZ = %d, want positive", label, sol.FactorNNZ)
			}
		}
	}
}

// TestSolverWarmParity holds warm-started solves to the cold optimum across
// a bound sweep (the Pareto-neighbour pattern core relies on), under both
// kernels.
func TestSolverWarmParity(t *testing.T) {
	for _, kc := range kernelConfigs {
		s := NewSolver(kc.opts...)
		var warm *Basis
		for _, bound := range []float64{18, 16, 14, 12} {
			p := NewProblem(Maximize, 2)
			p.Obj = []float64{3, 5}
			p.AddConstraint("c1", []float64{1, 0}, LE, 4)
			p.AddConstraint("c2", []float64{0, 2}, LE, 12)
			p.AddConstraint("c3", []float64{3, 2}, LE, bound)
			warmSol, warmBasis, err := s.Solve(context.Background(), p, warm)
			if err != nil {
				t.Fatalf("%s bound=%g: %v", kc.name, bound, err)
			}
			coldSol, _, err := s.Solve(context.Background(), p, nil)
			if err != nil {
				t.Fatalf("%s bound=%g cold: %v", kc.name, bound, err)
			}
			if d := math.Abs(warmSol.Objective - coldSol.Objective); d > 1e-8 {
				t.Errorf("%s bound=%g: warm objective %g vs cold %g", kc.name, bound, warmSol.Objective, coldSol.Objective)
			}
			if warm != nil && !warmSol.WarmStarted {
				t.Errorf("%s bound=%g: warm basis supplied but solve went cold", kc.name, bound)
			}
			warm = warmBasis
		}
	}
}

// TestWithMaxPivots exercises the pivot budget: an absurdly small budget
// stops the solve with BudgetExceeded (error still wrapping ErrNotOptimal),
// a generous one leaves the solve untouched.
func TestWithMaxPivots(t *testing.T) {
	p := parityProblems()["balance-stiff"]

	sol, basis, err := NewSolver(WithMaxPivots(2)).Solve(context.Background(), p, nil)
	if sol.Status != BudgetExceeded {
		t.Fatalf("status = %v, want BudgetExceeded", sol.Status)
	}
	if basis != nil {
		t.Error("budget-stopped solve returned a basis")
	}
	if !errors.Is(err, ErrNotOptimal) {
		t.Errorf("err = %v, want wrap of ErrNotOptimal", err)
	}
	if sol.Iterations > 3 {
		t.Errorf("budget of 2 pivots reported %d iterations", sol.Iterations)
	}

	sol, _, err = NewSolver(WithMaxPivots(1<<20)).Solve(context.Background(), p, nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("generous budget: status %v err %v, want Optimal", sol.Status, err)
	}
}

// TestWithMaxPivotsWarm verifies a budget-stopped warm start is definitive —
// it must not silently fall back to a cold solve and double the budget.
func TestWithMaxPivotsWarm(t *testing.T) {
	p := parityProblems()["balance-stiff"]
	_, basis, err := NewSolver().Solve(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	// Tighten the problem so restoration needs pivots, then give it none.
	q := *p
	sol, _, err := NewSolver(WithMaxPivots(1)).Solve(context.Background(), &q, basis)
	if err == nil && sol.Iterations > 1 {
		t.Errorf("budget 1: solve reported %d iterations without error", sol.Iterations)
	}
	if sol.Status != Optimal && sol.Status != BudgetExceeded {
		t.Errorf("status = %v, want Optimal (0-pivot warm) or BudgetExceeded", sol.Status)
	}
}

// TestWithMaxPivotsWarmReportsWork holds a budget-stopped warm solve to the
// work-record contract every other exit keeps: stage timings and the
// factorization size come back with the status. Two independent blocks
// min x + 2y s.t. x + y ≥ 5, x ≤ u each leave the warm basis primal
// infeasible when u drops from 10 to 2, so restoring it takes one dual
// pivot per block — two in all, one more than the budget.
func TestWithMaxPivotsWarmReportsWork(t *testing.T) {
	build := func(u float64) *Problem {
		p := NewProblem(Minimize, 4)
		p.Obj = []float64{1, 2, 1, 2}
		for b := 0; b < 2; b++ {
			p.AddConstraintNZ("cover", []int{2 * b, 2*b + 1}, []float64{1, 1}, GE, 5)
			p.AddConstraintNZ("cap", []int{2 * b}, []float64{1}, LE, u)
		}
		return p
	}
	_, basis, err := NewSolver().Solve(context.Background(), build(10), nil)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	full, _, err := NewSolver().Solve(context.Background(), build(2), basis)
	if err != nil || !full.WarmStarted || full.Iterations < 2 {
		t.Fatalf("unbudgeted warm solve: err %v, warm %v, %d pivots; want a warm start needing ≥ 2 pivots",
			err, full.WarmStarted, full.Iterations)
	}
	sol, _, err := NewSolver(WithMaxPivots(1)).Solve(context.Background(), build(2), basis)
	if sol.Status != BudgetExceeded || !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("status %v err %v, want BudgetExceeded", sol.Status, err)
	}
	if sol.Timings.Total() <= 0 {
		t.Errorf("budget-stopped warm solve reported no stage time (%+v)", sol.Timings)
	}
	if sol.FactorNNZ <= 0 {
		t.Errorf("budget-stopped warm solve reported FactorNNZ = %d", sol.FactorNNZ)
	}
}

// TestWithWallClock verifies a wall-clock budget — a per-call deadline
// context — surfaces as Cancelled with a deadline cause.
func TestWithWallClock(t *testing.T) {
	p := parityProblems()["balance-stiff"]
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	sol, _, err := NewSolver().Solve(ctx, p, nil)
	if sol.Status != Cancelled {
		t.Fatalf("status = %v, want Cancelled", sol.Status)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want wrap of context.DeadlineExceeded", err)
	}
}

// TestTimingsStagesCoverEveryField: Stages lists every Timings field once,
// in field order and under the field's lower-cased name, so Total and every
// report that loops over Stages miss no stage.
func TestTimingsStagesCoverEveryField(t *testing.T) {
	var tm Timings
	v := reflect.ValueOf(&tm).Elem()
	var want time.Duration
	for i := range v.NumField() {
		v.Field(i).SetInt(1 << i)
		want += 1 << i
	}
	stages := tm.Stages()
	if len(stages) != v.NumField() {
		t.Fatalf("%d stages for %d Timings fields", len(stages), v.NumField())
	}
	for i, st := range stages {
		if name := strings.ToLower(v.Type().Field(i).Name); st.Name != name || st.D != 1<<i {
			t.Errorf("stage %d = %s %v, want %s %v", i, st.Name, st.D, name, time.Duration(1<<i))
		}
	}
	if tm.Total() != want {
		t.Errorf("Total = %v, want %v", tm.Total(), want)
	}
}
