package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sweepProblem builds the family of LPs used by the warm-start tests:
// min 2x + 3y subject to x + y >= 10, x <= cap. The optimum is
// x = min(cap, 10), y = 10 − x when cap <= 10 (objective 30 − cap),
// and x = 10, y = 0 for cap >= 10 (objective 20).
func sweepProblem(cap float64) *Problem {
	p := NewProblem(Minimize, 2)
	p.Obj = []float64{2, 3}
	p.AddConstraint("cover", []float64{1, 1}, GE, 10)
	p.AddConstraint("cap", []float64{1, 0}, LE, cap)
	return p
}

func solveWithBasisOK(t *testing.T, p *Problem, warm *Basis) (*Solution, *Basis) {
	t.Helper()
	sol, basis, err := NewSolver().Solve(context.Background(), p, warm)
	if err != nil {
		t.Fatalf("Solve: %v (status %v)", err, sol.Status)
	}
	if basis == nil {
		t.Fatalf("optimal solve returned nil basis")
	}
	return sol, basis
}

func TestWarmStartRelaxedBound(t *testing.T) {
	// Relaxing the cap keeps the exported basis primal feasible, so the warm
	// solve should succeed without falling back.
	_, basis := solveWithBasisOK(t, sweepProblem(4), nil)
	sol, _ := solveWithBasisOK(t, sweepProblem(6), basis)
	if !sol.WarmStarted {
		t.Errorf("relaxed-bound solve did not warm-start")
	}
	if math.Abs(sol.Objective-24) > 1e-9 {
		t.Errorf("objective = %g, want 24", sol.Objective)
	}
}

func TestWarmStartTightenedBound(t *testing.T) {
	// Tightening the cap makes the old basis primal infeasible; the dual
	// simplex must restore feasibility (or the solver silently falls back —
	// either way the answer must be the cold one).
	_, basis := solveWithBasisOK(t, sweepProblem(8), nil)
	sol, _ := solveWithBasisOK(t, sweepProblem(3), basis)
	if math.Abs(sol.Objective-27) > 1e-9 {
		t.Errorf("objective = %g, want 27", sol.Objective)
	}
	cold, _ := solveWithBasisOK(t, sweepProblem(3), nil)
	if math.Abs(sol.Objective-cold.Objective) > 1e-9 {
		t.Errorf("warm %g != cold %g", sol.Objective, cold.Objective)
	}
	if math.Abs(sol.X[0]-cold.X[0]) > 1e-9 || math.Abs(sol.X[1]-cold.X[1]) > 1e-9 {
		t.Errorf("warm x %v != cold x %v", sol.X, cold.X)
	}
}

func TestWarmStartIncompatibleBasisFallsBack(t *testing.T) {
	// A basis from a structurally different problem must be rejected and the
	// cold path must still produce the right answer.
	other := NewProblem(Minimize, 3)
	other.Obj = []float64{1, 1, 1}
	other.AddConstraint("c", []float64{1, 1, 1}, GE, 3)
	_, foreign := solveWithBasisOK(t, other, nil)

	sol, _ := solveWithBasisOK(t, sweepProblem(4), foreign)
	if sol.WarmStarted {
		t.Errorf("incompatible basis was accepted as a warm start")
	}
	if math.Abs(sol.Objective-26) > 1e-9 {
		t.Errorf("objective = %g, want 26", sol.Objective)
	}
}

func TestWarmStartInfeasibleProblem(t *testing.T) {
	// Sweeping into an infeasible region must report Infeasible exactly as
	// the cold path does, and must not poison later warm solves.
	p := NewProblem(Minimize, 1)
	p.Obj = []float64{1}
	p.AddConstraint("lo", []float64{1}, GE, 5)
	p.AddConstraint("hi", []float64{1}, LE, 8)
	_, basis := solveWithBasisOK(t, p, nil)

	bad := NewProblem(Minimize, 1)
	bad.Obj = []float64{1}
	bad.AddConstraint("lo", []float64{1}, GE, 5)
	bad.AddConstraint("hi", []float64{1}, LE, 2)
	sol, b, err := NewSolver().Solve(context.Background(), bad, basis)
	if err == nil || sol.Status != Infeasible {
		t.Fatalf("status = %v, err = %v; want Infeasible", sol.Status, err)
	}
	if b != nil {
		t.Errorf("infeasible solve returned a basis")
	}
}

// TestWarmStartSweepMatchesCold chases a long randomized sweep of one RHS
// value through warm-started solves and checks every point against a cold
// solve: identical status, objective and solution vector.
func TestWarmStartSweepMatchesCold(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	build := func(bound float64) *Problem {
		// min x + 2y + 4z over a fixed polytope with a moving budget row.
		p := NewProblem(Minimize, 3)
		p.Obj = []float64{1, 2, 4}
		p.AddConstraint("mix", []float64{1, 1, 1}, GE, 6)
		p.AddConstraint("pair", []float64{1, 2, 0}, GE, 4)
		p.AddConstraint("budget", []float64{1, 0, 0}, LE, bound)
		return p
	}
	var warm *Basis
	warmHits := 0
	for i := 0; i < 60; i++ {
		bound := 8 * r.Float64() // swings across feasible shapes
		wSol, wBasis, wErr := NewSolver().Solve(context.Background(), build(bound), warm)
		cSol, _, cErr := NewSolver().Solve(context.Background(), build(bound), nil)
		if (wErr == nil) != (cErr == nil) || wSol.Status != cSol.Status {
			t.Fatalf("bound %g: warm status %v vs cold %v", bound, wSol.Status, cSol.Status)
		}
		if wErr == nil {
			if math.Abs(wSol.Objective-cSol.Objective) > 1e-9 {
				t.Fatalf("bound %g: warm obj %g vs cold %g", bound, wSol.Objective, cSol.Objective)
			}
			for j := range wSol.X {
				if math.Abs(wSol.X[j]-cSol.X[j]) > 1e-9 {
					t.Fatalf("bound %g: warm x %v vs cold %v", bound, wSol.X, cSol.X)
				}
			}
			if wSol.WarmStarted {
				warmHits++
			}
			warm = wBasis
		}
	}
	if warmHits == 0 {
		t.Errorf("no solve in the sweep actually warm-started")
	}
}

// TestBasisFromRows: a basis by rows puts the named structural column in
// each row that names one and the row's own starting column in every other
// — the slack of an LE row, the surplus of a GE row (a negative rhs flips
// LE to GE), the artificial of an EQ row — skipping rows the presolve
// drops. Malformed input yields nil. An optimal basis by rows solves in
// zero pivots; a basis naming one column twice is rejected and the solve
// falls back to the slack start with the same optimum. The same rows
// returned by Problem.Crash start a cold solve the same way, reported as
// Crashed; a budgeted solve never calls Crash, and a Crash that fails on
// a done context ends the solve Cancelled.
func TestBasisFromRows(t *testing.T) {
	p := NewProblem(Minimize, 3)
	p.Obj = []float64{1, 1, 2}
	p.AddConstraint("sum", []float64{1, 1, 1}, EQ, 1)
	p.AddConstraint("le", []float64{1, -1, 0}, LE, 0.5)
	p.AddConstraint("ge", []float64{0, 1, 1}, GE, 0.2)
	p.AddConstraint("empty", []float64{0, 0, 0}, LE, 1)
	p.AddConstraint("flipped", []float64{-1, 0, 0}, LE, -0.1)
	sf, st := newStdForm(p)
	if st != Optimal {
		t.Fatal(st)
	}
	// Standard-form rows 0–3 are sum, le, ge, flipped; columns 3–5 are the
	// slack of le and the surpluses of ge and flipped, 6–8 the artificials
	// of sum, ge and flipped.
	b := BasisFromRows(p, []int{-1, -1, -1, -1, -1})
	if want := []int{6, 3, 4, 5}; !b.compatible(sf) || !slices.Equal(b.cols, want) {
		t.Errorf("all-own basis %v, cols %v; want cols %v", b, b.cols, want)
	}
	b = BasisFromRows(p, []int{2, 0, 1, 0, -1})
	if want := []int{2, 0, 1, 5}; !b.compatible(sf) || !slices.Equal(b.cols, want) {
		t.Errorf("by-rows basis %v, cols %v; want cols %v", b, b.cols, want)
	}
	for _, bad := range [][]int{{-1, -1, -1, -1}, {-1, 3, -1, -1, -1}} {
		if b := BasisFromRows(p, bad); b != nil {
			t.Errorf("BasisFromRows(%v) = %v, want nil", bad, b)
		}
	}

	cold, _, err := NewSolver().Solve(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rows {x0, x1, own, own, own} are the vertex x = (0.75, 0.25, 0),
	// feasible with objective 1, the optimum: zero pivots. Naming x0
	// twice is rejected, and the slack start solves it.
	for _, tc := range []struct {
		rows   []int
		warm   bool
		pivots int
	}{{[]int{0, 1, -1, -1, -1}, true, 0}, {[]int{0, 0, -1, -1, -1}, false, cold.Iterations}} {
		sol, _, err := NewSolver().Solve(context.Background(), p, BasisFromRows(p, tc.rows))
		if err != nil || sol.Objective != cold.Objective || sol.WarmStarted != tc.warm || sol.Iterations != tc.pivots {
			t.Errorf("from rows %v: objective %v after %d pivots, warm %v (err %v); want %v after %d, warm %v",
				tc.rows, sol.Objective, sol.Iterations, sol.WarmStarted, err, cold.Objective, tc.pivots, tc.warm)
		}
		p.Crash = func(context.Context, *Problem) ([]int, error) { return tc.rows, nil }
		sol, _, err = NewSolver().Solve(context.Background(), p, nil)
		p.Crash = nil
		if err != nil || sol.Objective != cold.Objective || sol.Crashed != tc.warm || sol.WarmStarted || sol.Iterations != tc.pivots {
			t.Errorf("crash rows %v: objective %v after %d pivots, crashed %v, warm %v (err %v); want %v after %d, crashed %v",
				tc.rows, sol.Objective, sol.Iterations, sol.Crashed, sol.WarmStarted, err, cold.Objective, tc.pivots, tc.warm)
		}
	}

	calls := 0
	p.Crash = func(ctx context.Context, _ *Problem) ([]int, error) {
		calls++
		return nil, ctx.Err()
	}
	if sol, _, err := NewSolver(WithMaxPivots(100)).Solve(context.Background(), p, nil); err != nil || calls != 0 || sol.Objective != cold.Objective {
		t.Errorf("budgeted solve: %d Crash calls, objective %v (err %v); want none and %v", calls, sol.Objective, err, cold.Objective)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if sol, _, err := NewSolver().Solve(ctx, p, nil); calls != 1 || sol.Status != Cancelled || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled crash: %d Crash calls, status %v, err %v; want 1, Cancelled, context.Canceled", calls, sol.Status, err)
	}
}
