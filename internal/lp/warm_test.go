package lp

import (
	"context"
	"math"
	"math/rand"
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
