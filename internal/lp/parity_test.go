package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// parityProblems returns the named corpus whose verdicts the kernel
// parity test certifies: every fixed instance the unit tests exercise plus
// randomized families covering LE/GE/EQ mixes, degenerate and redundant
// rows, and the balance-equation structure of LP2.
func parityProblems() map[string]*Problem {
	probs := map[string]*Problem{}

	p := NewProblem(Maximize, 2)
	p.Obj = []float64{3, 5}
	p.AddConstraint("c1", []float64{1, 0}, LE, 4)
	p.AddConstraint("c2", []float64{0, 2}, LE, 12)
	p.AddConstraint("c3", []float64{3, 2}, LE, 18)
	probs["textbook-max"] = p

	p = NewProblem(Minimize, 2)
	p.Obj = []float64{2, 3}
	p.AddConstraint("cover", []float64{1, 1}, GE, 10)
	p.AddConstraint("xmin", []float64{1, 0}, GE, 2)
	probs["min-ge"] = p

	p = NewProblem(Minimize, 2)
	p.Obj = []float64{1, 2}
	p.AddConstraint("sum", []float64{1, 1}, EQ, 5)
	p.AddConstraint("cap", []float64{1, 0}, LE, 3)
	probs["equality"] = p

	p = NewProblem(Minimize, 2)
	p.Obj = []float64{1, 1}
	p.AddConstraint("c", []float64{1, -1}, LE, -2)
	probs["neg-rhs"] = p

	p = NewProblem(Minimize, 1)
	p.Obj = []float64{1}
	p.AddConstraint("lo", []float64{1}, GE, 5)
	p.AddConstraint("hi", []float64{1}, LE, 3)
	probs["infeasible"] = p

	p = NewProblem(Maximize, 2)
	p.Obj = []float64{1, 1}
	p.AddConstraint("c", []float64{1, -1}, LE, 1)
	probs["unbounded"] = p

	p = NewProblem(Minimize, 4)
	p.Obj = []float64{-0.75, 150, -0.02, 6}
	p.AddConstraint("r1", []float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddConstraint("r2", []float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddConstraint("r3", []float64{0, 0, 1, 0}, LE, 1)
	probs["beale"] = p

	p = NewProblem(Minimize, 2)
	p.Obj = []float64{1, 3}
	p.AddConstraint("e1", []float64{1, 1}, EQ, 2)
	p.AddConstraint("e2", []float64{2, 2}, EQ, 4)
	probs["redundant-eq"] = p

	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(6)
		m := 1 + r.Intn(6)
		q := NewProblem(Minimize, n)
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = r.Float64() * 5
			q.Obj[j] = r.NormFloat64()
		}
		for i := 0; i < m; i++ {
			coeffs := make([]float64, n)
			a := 0.0
			for j := range coeffs {
				coeffs[j] = math.Abs(r.NormFloat64())
				a += coeffs[j] * x0[j]
			}
			switch r.Intn(3) {
			case 0:
				q.AddConstraint("le", coeffs, LE, a+r.Float64())
			case 1:
				q.AddConstraint("ge", coeffs, GE, a-r.Float64()*a)
			default:
				q.AddConstraint("eq", coeffs, EQ, a)
			}
		}
		probs["random-"+string(rune('a'+trial%26))+string(rune('0'+trial/26))] = q
	}

	// Balance-like LP2 structure at a stiff discount factor.
	r = rand.New(rand.NewSource(3))
	for _, alpha := range []float64{0.95, 1 - 1e-6} {
		n := 12
		nv := n * 2
		q := NewProblem(Minimize, nv)
		for j := 0; j < nv; j++ {
			q.Obj[j] = r.Float64()
		}
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
				rhs = 1 - alpha
			}
			q.AddConstraint("balance", coeffs, EQ, rhs)
		}
		name := "balance-mild"
		if alpha > 0.999 {
			name = "balance-stiff"
		}
		probs[name] = q
	}
	return probs
}

// certResiduals names the corpus instances whose optimal basis, under both
// kernel configurations, is optimal only up to an exact residual far below
// the solver's tolerances, and accepts each at its measured residual:
//
//   - random-h0: a basic artificial at +1.4415e-16 (every basic value is
//     ≥ 1.0830e-17; the reduced costs are exactly dual feasible);
//   - random-r0: a basic artificial at −4.5206e-18, its smallest basic
//     value (exactly dual feasible).
//
// Every other instance's verdict is certified exactly.
var certResiduals = map[string]float64{
	"random-h0": 1.45e-16,
	"random-r0": 4.53e-18,
}

// TestRevisedMatchesDense is the cross-kernel contract: on every corpus
// problem the at-scale configuration (sparse Forrest–Tomlin kernel, Devex
// pricing) and the default solver's dense LU kernel with Dantzig pricing
// agree on status, and on optimal instances the objectives agree within
// 1e-8, both solutions are feasible for the original constraints and every
// row activity agrees within 1e-6.
func TestRevisedMatchesDense(t *testing.T) {
	for name, p := range parityProblems() {
		rev, _, revErr := NewSolver(ForceAtScale()).Solve(context.Background(), p, nil)
		den, denErr := solve(p)
		if (revErr == nil) != (denErr == nil) || rev.Status != den.Status {
			t.Errorf("%s: sparse status %v (err %v) vs dense %v (err %v)",
				name, rev.Status, revErr, den.Status, denErr)
			continue
		}
		if revErr != nil {
			continue
		}
		if d := math.Abs(rev.Objective - den.Objective); d > 1e-8 {
			t.Errorf("%s: sparse objective %.12g vs dense %.12g (Δ=%g)",
				name, rev.Objective, den.Objective, d)
		}
		if !feasible(p, rev.X, 1e-6) {
			t.Errorf("%s: sparse solution infeasible", name)
		}
		if !feasible(p, den.X, 1e-6) {
			t.Errorf("%s: dense solution infeasible", name)
		}
		for i := range p.Cons {
			c := &p.Cons[i]
			if ra, da := activity(c, rev.X), activity(c, den.X); math.Abs(ra-da) > 1e-6 {
				t.Errorf("%s: activity[%d] sparse %g vs dense %g", name, i, ra, da)
			}
		}
	}
}
