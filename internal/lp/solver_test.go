package lp

import (
	"context"
	"errors"
	"math"
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
// solved under both size-selected configurations agrees with the dense-
// tableau reference on status, and on optimal instances the objectives
// agree within 1e-8. This is what licenses the solver to switch kernel and
// pricer by basis size without changing answers.
func TestFactorizerPricerParity(t *testing.T) {
	for name, p := range parityProblems() {
		ref, refErr := SolveDense(p)
		for _, kc := range kernelConfigs {
			sol, basis, err := NewSolver(kc.opts...).Solve(context.Background(), p, nil)
			label := name + "/" + kc.name
			if (err == nil) != (refErr == nil) || sol.Status != ref.Status {
				t.Errorf("%s: status %v (err %v) vs reference %v (err %v)",
					label, sol.Status, err, ref.Status, refErr)
				continue
			}
			if err != nil {
				continue
			}
			if basis == nil {
				t.Errorf("%s: optimal solve returned nil basis", label)
			}
			if d := math.Abs(sol.Objective - ref.Objective); d > 1e-8 {
				t.Errorf("%s: objective %.12g vs reference %.12g (Δ=%g)",
					label, sol.Objective, ref.Objective, d)
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

// TestWithWallClock verifies the wall-clock option surfaces as Cancelled
// with a deadline cause.
func TestWithWallClock(t *testing.T) {
	p := parityProblems()["balance-stiff"]
	sol, _, err := NewSolver(WithWallClock(time.Nanosecond)).Solve(context.Background(), p, nil)
	if sol.Status != Cancelled {
		t.Fatalf("status = %v, want Cancelled", sol.Status)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want wrap of context.DeadlineExceeded", err)
	}
}
