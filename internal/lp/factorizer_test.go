package lp

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// TestDenseFactorizerSteadyStateAllocs gates the small-LP kernel's
// allocation contract: once a first refactorization cycle has sized its
// buffers and eta vectors, Refactor, FtranSp, BtranSp and Update allocate
// nothing — a pivot costs arithmetic only.
func TestDenseFactorizerSteadyStateAllocs(t *testing.T) {
	p := parityProblems()["balance-stiff"]
	sf, st := newStdForm(p)
	if st != Optimal {
		t.Fatalf("presolve status %v", st)
	}
	f := newDenseFactorizer()
	basis := append([]int(nil), sf.initBasis...)
	in, out := mat.NewSpVec(sf.m), mat.NewSpVec(sf.m)
	w := mat.NewVector(sf.m)
	const updates = 4
	cycle := func() {
		if err := f.Refactor(sf.a, basis); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < updates; u++ {
			// Enter structural column u at the row where its direction is
			// largest; the basis itself is left alone, so every cycle
			// refactorizes the same matrix and repeats the same work.
			in.Reset()
			rows, vals := sf.a.ColNZ(u)
			for k, i := range rows {
				in.Set(i, vals[k])
			}
			f.FtranSp(in, out)
			copy(w, out.Val)
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
	cycle() // sizes the LU buffers and the eta file
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("steady-state refactor + %d × (FtranSp, BtranSp, Update) allocated %.1f times, want 0", updates, allocs)
	}
}
