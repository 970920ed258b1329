package mat

import (
	"math/rand"
	"testing"
)

// spFromDense scatters the nonzeros of b into a fresh SpVec.
func spFromDense(b Vector) *SpVec {
	v := NewSpVec(len(b))
	for i, x := range b {
		if x != 0 {
			v.Set(i, x)
		}
	}
	return v
}

// checkBitIdentical compares a SolveTSp result against the dense-path
// reference entry by entry. Equality must be exact (==, which deliberately
// identifies ±0): the reachability walk performs the dense pass's own
// operations in the dense pass's own order, so any difference at all means
// the symbolic phase missed a dependency.
func checkBitIdentical(t *testing.T, tag string, sp *SpVec, ref Vector) {
	t.Helper()
	for i := range ref {
		if sp.Val[i] != ref[i] {
			t.Fatalf("%s: entry %d = %g, dense path %g", tag, i, sp.Val[i], ref[i])
		}
	}
	if sp.Dense {
		return
	}
	// Pattern soundness: every nonzero must be covered by the pattern.
	inPat := make(map[int]bool, len(sp.Ind))
	last := -1
	for _, i := range sp.Ind {
		if i <= last {
			t.Fatalf("%s: pattern not sorted ascending at %d", tag, i)
		}
		last = i
		inPat[i] = true
	}
	for i, x := range ref {
		if x != 0 && !inPat[i] {
			t.Fatalf("%s: nonzero entry %d missing from pattern", tag, i)
		}
	}
}

// checkSolveSp solves b through SolveSp and holds the result to Solve(b):
// the same entries, marked Dense.
func checkSolveSp(t *testing.T, tag string, f *SparseLU, b Vector, x *SpVec) {
	t.Helper()
	f.SolveSp(spFromDense(b), x)
	if !x.Dense {
		t.Fatalf("%s: SolveSp result not marked Dense", tag)
	}
	checkBitIdentical(t, tag, x, f.Solve(b))
}

// sparseRHS builds a right-hand side with nnz random nonzeros.
func sparseRHS(rng *rand.Rand, n, nnz int) Vector {
	b := NewVector(n)
	for c := 0; c < nnz; c++ {
		b[rng.Intn(n)] = rng.NormFloat64()
	}
	return b
}

// TestSolveSpBitIdentical holds SolveTSp to exact equality with SolveTInto
// across sizes, densities, rhs supports, and interleaved Forrest–Tomlin
// updates — the property the simplex pivot-sequence invariance rests on —
// and SolveSp, the dense solve, to Solve.
func TestSolveSpBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 40, 150, 400} {
		for _, density := range []float64{0.02, 0.15} {
			col, d := randSparseLU(rng, n, density)
			sf, err := FactorColumns(n, col, 0.1)
			if err != nil {
				t.Fatalf("n=%d density=%g: FactorColumns: %v", n, density, err)
			}
			x := NewSpVec(n)
			y := NewSpVec(n)
			step := 0
			check := func(tag string) {
				for _, nnz := range []int{1, 2, n/10 + 1, n} {
					checkSolveSp(t, tag+" SolveSp", sf, sparseRHS(rng, n, nnz), x)
					c := sparseRHS(rng, n, nnz)
					sf.SolveTSp(spFromDense(c), y)
					checkBitIdentical(t, tag+" SolveTSp", y, sparseSolveT(sf, c))
				}
				// Unit vectors: the BTRAN shape the simplex actually issues.
				for trial := 0; trial < 3; trial++ {
					e := NewVector(n)
					e[rng.Intn(n)] = 1
					sf.SolveTSp(spFromDense(e), y)
					checkBitIdentical(t, tag+" SolveTSp unit", y, sparseSolveT(sf, e))
					checkSolveSp(t, tag+" SolveSp unit", sf, e, x)
				}
				step++
			}
			check("fresh")
			// Interleave column-replacement updates (growing the eta file and
			// mutating V) with solve checks.
			for u := 0; u < 6; u++ {
				slot := rng.Intn(n)
				var rows []int
				var vals []float64
				for i := 0; i < n; i++ {
					switch {
					case i == slot:
						rows = append(rows, i)
						vals = append(vals, 2+rng.Float64()*3)
					case rng.Float64() < 0.15:
						rows = append(rows, i)
						vals = append(vals, rng.NormFloat64())
					}
				}
				for i := 0; i < n; i++ {
					d.Set(i, slot, 0)
				}
				for idx, r := range rows {
					d.Set(r, slot, vals[idx])
				}
				if err := sf.Update(slot, rows, vals); err != nil {
					t.Fatalf("n=%d update %d: %v", n, u, err)
				}
			}
			check("updated")
		}
	}
}

// TestSolveSpDenseFallback forces SolveTSp's density fallback with a full
// rhs and checks the result is still exact and marked Dense, as SolveSp's
// always is.
func TestSolveSpDenseFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 200
	col, _ := randSparseLU(rng, n, 0.1)
	sf, err := FactorColumns(n, col, 0.1)
	if err != nil {
		t.Fatalf("FactorColumns: %v", err)
	}
	b := NewVector(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	checkSolveSp(t, "dense fallback SolveSp", sf, b, NewSpVec(n))
	y := NewSpVec(n)
	sf.SolveTSp(spFromDense(b), y)
	if !y.Dense {
		t.Error("SolveTSp with a full rhs did not mark the result Dense")
	}
	checkBitIdentical(t, "dense fallback SolveTSp", y, sparseSolveT(sf, b))
}

// TestSpVecReset verifies Reset restores the exact all-zero state in both
// representations.
func TestSpVecReset(t *testing.T) {
	v := NewSpVec(8)
	v.Set(3, 1.5)
	v.Set(6, -2)
	v.Reset()
	for i, x := range v.Val {
		if x != 0 {
			t.Fatalf("after sparse Reset, Val[%d] = %g", i, x)
		}
	}
	if len(v.Ind) != 0 || v.Dense {
		t.Fatal("after Reset, pattern not empty")
	}
	for i := range v.Val {
		v.Val[i] = float64(i)
	}
	v.Dense = true
	v.Reset()
	for i, x := range v.Val {
		if x != 0 {
			t.Fatalf("after dense Reset, Val[%d] = %g", i, x)
		}
	}
	if v.Dense {
		t.Fatal("Reset left Dense set")
	}
}
