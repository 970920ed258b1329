package mat_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
	"repro/internal/mat"
)

// diskBasis returns a 67×67 basis of the paper's disk study (66 states × 5
// commands, horizon 10⁶, SR(0.002, 0.3), minimum power under
// penalty ≤ 0.5): the frequency-LP columns of the policy that picks each
// state's most frequent command at the optimum, plus the bound row's
// slack. That is the shape of the bases the simplex factors on sweep-disk.
func diskBasis(tb testing.TB) *mat.Matrix {
	tb.Helper()
	sys := devices.DiskSystem(core.TwoStateSR("w", 0.002, 0.3))
	m, err := sys.Build()
	if err != nil {
		tb.Fatal(err)
	}
	prob, err := core.BuildFrequencyLP(m, core.Options{
		Alpha:     core.HorizonToAlpha(1e6),
		Initial:   core.Delta(m.N, sys.Index(core.State{SP: devices.DiskActive})),
		Objective: core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		Bounds:    []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: 0.5}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	sol, _, err := lp.NewSolver().Solve(context.Background(), prob, nil)
	if err != nil {
		tb.Fatal(err)
	}
	rows := len(prob.Cons)
	b := mat.NewMatrix(rows, rows)
	for s := 0; s < m.N; s++ {
		best := s * m.A
		for a := best + 1; a < (s+1)*m.A; a++ {
			if sol.X[a] > sol.X[best] {
				best = a
			}
		}
		for i, c := range prob.Cons {
			for k, j := range c.Cols {
				if j == best {
					b.Set(i, s, c.Vals[k])
				}
			}
		}
	}
	b.Set(m.N, m.N, 1) // the penalty row's slack
	return b
}

// TestLUSolveAccuracyDisk holds the LU solves' residuals on the disk basis
// to the row-oriented oracle's, in both directions, on a dense right-hand
// side and on every unit vector.
func TestLUSolveAccuracyDisk(t *testing.T) {
	a := diskBasis(t)
	n := a.Rows
	f, err := mat.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	rhs := []mat.Vector{mat.NewVector(n)}
	for i := range rhs[0] {
		rhs[0][i] = float64(i%7) - 3
	}
	for i := 0; i < n; i++ {
		e := mat.NewVector(n)
		e[i] = 1
		rhs = append(rhs, e)
	}
	x := mat.NewVector(n)
	for k, b := range rhs {
		f.SolveInto(x, b)
		mat.CheckResidual(t, fmt.Sprintf("rhs %d SolveInto", k), a, false, b, x, mat.OracleSolve(a, b, false))
		f.SolveTInto(x, b.Clone())
		mat.CheckResidual(t, fmt.Sprintf("rhs %d SolveTInto", k), a, true, b, x, mat.OracleSolve(a, b, true))
	}
}

// TestLUSolveAllocs: the solves the simplex's dense kernel runs per pivot
// allocate nothing.
func TestLUSolveAllocs(t *testing.T) {
	a := diskBasis(t)
	n := a.Rows
	var f mat.LU
	if err := f.FactorInPlace(a.Clone()); err != nil {
		t.Fatal(err)
	}
	x, b := mat.NewVector(n), mat.NewVector(n)
	for name, solve := range map[string]func(){
		"SolveInto":  func() { clear(b); b[0] = 1; f.SolveInto(x, b) },
		"SolveTInto": func() { clear(b); b[0] = 1; f.SolveTInto(x, b) },
	} {
		if allocs := testing.AllocsPerRun(100, solve); allocs != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, allocs)
		}
	}
}

// BenchmarkLUSolve times the dense LU solves on the disk basis: dense is a
// right-hand side with every entry nonzero, unit is e_0, the kind of
// sparse rhs that FTRAN of a slack column and BTRAN of a leaving row see.
func BenchmarkLUSolve(b *testing.B) {
	a := diskBasis(b)
	n := a.Rows
	var f mat.LU
	if err := f.FactorInPlace(a.Clone()); err != nil {
		b.Fatal(err)
	}
	dense := mat.NewVector(n)
	for i := range dense {
		dense[i] = float64(i%7) - 3
	}
	unit := mat.NewVector(n)
	unit[0] = 1
	x, rhs := mat.NewVector(n), mat.NewVector(n)
	for _, c := range []struct {
		name string
		b    mat.Vector
	}{{"dense", dense}, {"unit", unit}} {
		b.Run("ftran/"+c.name, func(b *testing.B) {
			for range b.N {
				f.SolveInto(x, c.b)
			}
		})
		b.Run("btran/"+c.name, func(b *testing.B) {
			for range b.N {
				copy(rhs, c.b)
				f.SolveTInto(x, rhs)
			}
		})
	}
}
