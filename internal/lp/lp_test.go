package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// solve is a cold solve under the default Solver.
func solve(p *Problem) (*Solution, error) {
	sol, _, err := NewSolver().Solve(context.Background(), p, nil)
	return sol, err
}

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := solve(p)
	if err != nil {
		t.Fatalf("Solve: %v (status %v)", err, sol.Status)
	}
	return sol
}

func TestMaximizeTextbook(t *testing.T) {
	// max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18 → (2, 6), obj 36.
	p := NewProblem(Maximize, 2)
	p.Obj = []float64{3, 5}
	p.AddConstraint("c1", []float64{1, 0}, LE, 4)
	p.AddConstraint("c2", []float64{0, 2}, LE, 12)
	p.AddConstraint("c3", []float64{3, 2}, LE, 18)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-36) > 1e-9 {
		t.Errorf("objective = %g, want 36", sol.Objective)
	}
	if math.Abs(sol.X[0]-2) > 1e-9 || math.Abs(sol.X[1]-6) > 1e-9 {
		t.Errorf("x = %v, want [2 6]", sol.X)
	}
}

func TestMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10; x >= 2 → optimum at (10, 0)? Check:
	// y has higher cost, so push x: x=10, y=0, obj 20.
	p := NewProblem(Minimize, 2)
	p.Obj = []float64{2, 3}
	p.AddConstraint("cover", []float64{1, 1}, GE, 10)
	p.AddConstraint("xmin", []float64{1, 0}, GE, 2)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-20) > 1e-9 {
		t.Errorf("objective = %g, want 20", sol.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 2y s.t. x + y == 5, x <= 3 → x=3, y=2, obj 7.
	p := NewProblem(Minimize, 2)
	p.Obj = []float64{1, 2}
	p.AddConstraint("sum", []float64{1, 1}, EQ, 5)
	p.AddConstraint("cap", []float64{1, 0}, LE, 3)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-7) > 1e-9 {
		t.Errorf("objective = %g, want 7", sol.Objective)
	}
	if math.Abs(sol.X[0]-3) > 1e-9 || math.Abs(sol.X[1]-2) > 1e-9 {
		t.Errorf("x = %v, want [3 2]", sol.X)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -2 with min x + y: equivalent to y >= x + 2 → x=0, y=2.
	p := NewProblem(Minimize, 2)
	p.Obj = []float64{1, 1}
	p.AddConstraint("c", []float64{1, -1}, LE, -2)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-2) > 1e-9 {
		t.Errorf("objective = %g, want 2", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(Minimize, 1)
	p.Obj = []float64{1}
	p.AddConstraint("lo", []float64{1}, GE, 5)
	p.AddConstraint("hi", []float64{1}, LE, 3)
	sol, err := solve(p)
	if !errors.Is(err, ErrNotOptimal) {
		t.Fatalf("err = %v, want ErrNotOptimal", err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want Infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(Maximize, 2)
	p.Obj = []float64{1, 1}
	p.AddConstraint("c", []float64{1, -1}, LE, 1)
	sol, err := solve(p)
	if !errors.Is(err, ErrNotOptimal) {
		t.Fatalf("err = %v, want ErrNotOptimal", err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want Unbounded", sol.Status)
	}
}

func TestZeroRowPresolve(t *testing.T) {
	p := NewProblem(Minimize, 2)
	p.Obj = []float64{1, 1}
	p.AddConstraint("trivial", []float64{0, 0}, LE, 1) // always true
	p.AddConstraint("cover", []float64{1, 1}, GE, 4)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-4) > 1e-9 {
		t.Errorf("objective = %g, want 4", sol.Objective)
	}

	bad := NewProblem(Minimize, 2)
	bad.Obj = []float64{1, 1}
	bad.AddConstraint("impossible", []float64{0, 0}, GE, 1) // 0 >= 1
	sol, err := solve(bad)
	if err == nil || sol.Status != Infeasible {
		t.Errorf("zero-row infeasibility not detected: status %v err %v", sol.Status, err)
	}
}

func TestDegenerateBeale(t *testing.T) {
	// Beale's classic cycling example; must terminate (Bland fallback) at
	// optimum -0.05.
	p := NewProblem(Minimize, 4)
	p.Obj = []float64{-0.75, 150, -0.02, 6}
	p.AddConstraint("r1", []float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddConstraint("r2", []float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddConstraint("r3", []float64{0, 0, 1, 0}, LE, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-(-0.05)) > 1e-9 {
		t.Errorf("objective = %g, want -0.05", sol.Objective)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// Duplicate equality rows leave a degenerate artificial in the basis;
	// the solver must still find the optimum.
	p := NewProblem(Minimize, 2)
	p.Obj = []float64{1, 3}
	p.AddConstraint("e1", []float64{1, 1}, EQ, 2)
	p.AddConstraint("e2", []float64{2, 2}, EQ, 4) // same hyperplane
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-2) > 1e-9 { // x=(2,0)
		t.Errorf("objective = %g, want 2", sol.Objective)
	}
}

func TestConstraintCoeffsCopied(t *testing.T) {
	p := NewProblem(Minimize, 2)
	p.Obj = []float64{1, 1}
	coeffs := []float64{1, 1}
	p.AddConstraint("c", coeffs, GE, 2)
	coeffs[0] = 99 // must not affect the stored constraint
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-2) > 1e-9 {
		t.Errorf("objective = %g, want 2 (coeffs were aliased?)", sol.Objective)
	}
}

func TestMismatchedCoeffsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("AddConstraint with wrong length did not panic")
		}
	}()
	p := NewProblem(Minimize, 2)
	p.AddConstraint("bad", []float64{1}, LE, 1)
}

// activity returns the row activity a'x of c for a dense x.
func activity(c *Constraint, x []float64) float64 {
	s := 0.0
	for k, j := range c.Cols {
		s += c.Vals[k] * x[j]
	}
	return s
}

// feasible reports whether x satisfies all constraints of p within tol.
func feasible(p *Problem, x []float64, tol float64) bool {
	for _, v := range x {
		if v < -tol {
			return false
		}
	}
	for _, c := range p.Cons {
		a := activity(&c, x)
		switch c.Rel {
		case LE:
			if a > c.RHS+tol {
				return false
			}
		case GE:
			if a < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(a-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// TestRandomFeasibleProperty generates random LE problems that are feasible
// by construction (RHS = A*x0 + margin for a random nonnegative x0) and
// checks that the solver (a) returns a feasible point and (b) does at least
// as well as x0.
func TestRandomFeasibleProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		m := 1 + r.Intn(6)
		p := NewProblem(Minimize, n)
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = r.Float64() * 5
			p.Obj[j] = r.NormFloat64()
		}
		for i := 0; i < m; i++ {
			coeffs := make([]float64, n)
			a := 0.0
			for j := range coeffs {
				coeffs[j] = math.Abs(r.NormFloat64()) // nonnegative rows keep min bounded below via >= rows
				a += coeffs[j] * x0[j]
			}
			// Mix of GE (keeps problem bounded for negative costs... not
			// necessarily) and LE rows around the feasible point.
			if r.Intn(2) == 0 {
				p.AddConstraint("le", coeffs, LE, a+r.Float64())
			} else {
				p.AddConstraint("ge", coeffs, GE, a-r.Float64()*a)
			}
		}
		sol, err := solve(p)
		if err != nil {
			// Unbounded is possible with negative costs and no binding LE
			// rows; that is a legitimate answer, not a solver failure.
			return sol.Status == Unbounded
		}
		if !feasible(p, sol.X, 1e-6) {
			return false
		}
		obj0 := 0.0
		for j := range x0 {
			obj0 += p.Obj[j] * x0[j]
		}
		return sol.Objective <= obj0+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// bruteForceBest enumerates all basic solutions of a standard-form problem
// with only LE rows (slack variables complete the basis) by trying every
// subset of active constraints; adequate for tiny instances.
func bruteForceBest(p *Problem, pts [][]float64) (float64, bool) {
	best := math.Inf(1)
	found := false
	for _, x := range pts {
		if !feasible(p, x, 1e-9) {
			continue
		}
		obj := 0.0
		for j, v := range p.Obj {
			obj += v * x[j]
		}
		if obj < best {
			best = obj
			found = true
		}
	}
	return best, found
}

// TestAgainstVertexEnumeration compares the solver with explicit vertex
// enumeration on 2-variable problems where vertices can be listed by
// intersecting constraint pairs (plus axes).
func TestAgainstVertexEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := NewProblem(Minimize, 2)
		p.Obj = []float64{r.NormFloat64(), r.NormFloat64()}
		m := 2 + r.Intn(3)
		type line struct{ a, b, c float64 }     // a x + b y <= c
		lines := []line{{-1, 0, 0}, {0, -1, 0}} // x >= 0, y >= 0 as LE form
		for i := 0; i < m; i++ {
			a, b := math.Abs(r.NormFloat64())+0.1, math.Abs(r.NormFloat64())+0.1
			c := 1 + r.Float64()*5
			p.AddConstraint("c", []float64{a, b}, LE, c)
			lines = append(lines, line{a, b, c})
		}
		// Bounded region (positive coefficients), so enumeration is complete.
		var pts [][]float64
		for i := 0; i < len(lines); i++ {
			for j := i + 1; j < len(lines); j++ {
				l1, l2 := lines[i], lines[j]
				det := l1.a*l2.b - l2.a*l1.b
				if math.Abs(det) < 1e-12 {
					continue
				}
				x := (l1.c*l2.b - l2.c*l1.b) / det
				y := (l1.a*l2.c - l2.a*l1.c) / det
				pts = append(pts, []float64{x, y})
			}
		}
		want, ok := bruteForceBest(p, pts)
		if !ok {
			continue
		}
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: objective %g, vertex enumeration %g", trial, sol.Objective, want)
		}
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterationLimit: "iteration limit",
		Numerical: "numerically unstable", Cancelled: "cancelled",
		BudgetExceeded: "pivot budget exceeded", Status(99): "unknown",
	} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	for r, want := range map[Rel]string{LE: "<=", EQ: "==", GE: ">=", Rel(9): "?"} {
		if r.String() != want {
			t.Errorf("Rel.String() = %q, want %q", r.String(), want)
		}
	}
}

func TestLargeBalanceLikeSystem(t *testing.T) {
	// A structure resembling LP2: n states, 2 actions, balance equalities
	// plus a budget row. Verifies equality-heavy systems solve cleanly.
	r := rand.New(rand.NewSource(3))
	n := 20
	nv := n * 2
	p := NewProblem(Minimize, nv)
	for j := 0; j < nv; j++ {
		p.Obj[j] = r.Float64()
	}
	alpha := 0.95
	// Random stochastic matrix per action.
	P := make([][][]float64, 2)
	for a := 0; a < 2; a++ {
		P[a] = make([][]float64, n)
		for s := 0; s < n; s++ {
			row := make([]float64, n)
			sum := 0.0
			for j := range row {
				row[j] = r.Float64()
				sum += row[j]
			}
			for j := range row {
				row[j] /= sum
			}
			P[a][s] = row
		}
	}
	for j := 0; j < n; j++ {
		coeffs := make([]float64, nv)
		for a := 0; a < 2; a++ {
			coeffs[j*2+a] += 1
			for s := 0; s < n; s++ {
				coeffs[s*2+a] -= alpha * P[a][s][j]
			}
		}
		rhs := 0.0
		if j == 0 {
			rhs = 1 - alpha // scaled initial distribution
		}
		p.AddConstraint("balance", coeffs, EQ, rhs)
	}
	sol := solveOK(t, p)
	// Total frequency must equal 1 after scaling.
	total := 0.0
	for _, v := range sol.X {
		total += v
	}
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("total scaled frequency = %g, want 1", total)
	}
}
