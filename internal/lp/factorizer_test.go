package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestDenseFactorizerSteadyStateAllocs gates the small-LP kernel's
// allocation contract: once a first refactorization cycle has sized its
// buffers and eta vectors, Refactor, Ftran, Btran, BtranSp and Update
// allocate nothing — a pivot costs arithmetic only.
func TestDenseFactorizerSteadyStateAllocs(t *testing.T) {
	p := parityProblems()["balance-stiff"]
	sf, st := newStdForm(p)
	if st != Optimal {
		t.Fatalf("presolve status %v", st)
	}
	f := &denseFactorizer{}
	basis := append([]int(nil), sf.initBasis...)
	in, out := mat.NewSpVec(sf.m), mat.NewSpVec(sf.m)
	w, y := mat.NewVector(sf.m), mat.NewVector(sf.m)
	const updates = 4
	cycle := func() {
		if err := f.Refactor(sf.a, basis); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < updates; u++ {
			// Enter structural column u at the row where its direction is
			// largest; the basis itself is left alone, so every cycle
			// refactorizes the same matrix and repeats the same work.
			clear(w)
			rows, vals := sf.a.ColNZ(u)
			for k, i := range rows {
				w[i] = vals[k]
			}
			f.Ftran(w)
			row := 0
			for i := range w {
				if math.Abs(w[i]) > math.Abs(w[row]) {
					row = i
				}
			}
			in.Reset()
			in.Set(row, 1)
			f.BtranSp(in, out)
			copy(y, w)
			f.Btran(y)
			if err := f.Update(row, w, rows, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // sizes the LU buffers and the eta file
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("steady-state refactor + %d × (Ftran, BtranSp, Btran, Update) allocated %.1f times, want 0", updates, allocs)
	}
}

// balanceLP returns a discounted-balance LP shaped like the policy LPs of
// the paper: n states × 2 actions, each state–action pair moving to three
// random successors, one balance equality per state and a cost-budget row,
// so the basis has n+1 rows.
func balanceLP(n int, seed int64) *Problem {
	r := rand.New(rand.NewSource(seed))
	const alpha = 0.99
	p := NewProblem(Minimize, 2*n)
	cost := make([]float64, 2*n)
	rows := make([][]float64, n)
	for j := range rows {
		rows[j] = make([]float64, 2*n)
	}
	for s := 0; s < n; s++ {
		for a := 0; a < 2; a++ {
			v := 2*s + a
			p.Obj[v] = r.Float64()
			cost[v] = r.Float64()
			rows[s][v] += 1
			for k := 0; k < 3; k++ {
				rows[r.Intn(n)][v] -= alpha / 3
			}
		}
	}
	for j, coeffs := range rows {
		rhs := 0.0
		if j == 0 {
			rhs = 1 - alpha
		}
		p.AddConstraint("balance", coeffs, EQ, rhs)
	}
	p.AddConstraint("budget", cost, LE, 0.6)
	return p
}

// TestSparseFactorizerSteadyStateAllocs is the at-scale sibling of
// TestDenseFactorizerSteadyStateAllocs: on the optimal basis of a 321-row
// LP (past AtScaleRows, so the solver runs the sparse LU kernel), once a
// first cycle has sized the factorizer's storage, refactorizing the basis,
// the dense FTRAN and BTRAN, and the FTRANs, hyper-sparse BTRANs and
// Forrest–Tomlin updates of four pivots allocate nothing.
func TestSparseFactorizerSteadyStateAllocs(t *testing.T) {
	_, r, err := NewSolver().solve(context.Background(), balanceLP(320, 5), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sf := r.sf
	if sf.m < AtScaleRows {
		t.Fatalf("basis has %d rows, want an at-scale basis of at least %d", sf.m, AtScaleRows)
	}
	if _, ok := r.fact.(*sparseFactorizer); !ok {
		t.Fatalf("solver ran %T at m=%d, want the sparse kernel", r.fact, sf.m)
	}
	basis := append([]int(nil), r.basis...)
	basic := make([]bool, sf.nTot)
	for _, j := range basis {
		basic[j] = true
	}
	// The entering columns: the first nonbasic columns with entries.
	var enter []int
	for j := 0; j < sf.nTot && len(enter) < 4; j++ {
		if rows, _ := sf.a.ColNZ(j); !basic[j] && len(rows) > 0 {
			enter = append(enter, j)
		}
	}
	f := &sparseFactorizer{}
	in, out := mat.NewSpVec(sf.m), mat.NewSpVec(sf.m)
	w, v := mat.NewVector(sf.m), mat.NewVector(sf.m)
	cycle := func() {
		if err := f.Refactor(sf.a, basis); err != nil {
			t.Fatal(err)
		}
		// The dense solves the solver runs once per refactorization: the
		// basic values and the duals.
		copy(v, sf.b)
		f.Ftran(v)
		f.Btran(v)
		for _, j := range enter {
			// Enter column j at the row where its direction is largest; the
			// basis itself is left alone, so every cycle refactorizes the
			// same matrix and repeats the same work.
			clear(w)
			rows, vals := sf.a.ColNZ(j)
			for k, i := range rows {
				w[i] = vals[k]
			}
			f.Ftran(w)
			row := 0
			for i := range w {
				if math.Abs(w[i]) > math.Abs(w[row]) {
					row = i
				}
			}
			in.Reset()
			in.Set(row, 1)
			f.BtranSp(in, out)
			if err := f.Update(row, w, rows, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // sizes the factorization's storage and the eta file
	if f.Updates() != len(enter) {
		t.Fatalf("absorbed %d updates, want %d", f.Updates(), len(enter))
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("steady-state refactor + Ftran + Btran + %d × (Ftran, BtranSp, Update) allocated %.1f times, want 0", len(enter), allocs)
	}
}
