package mat

import (
	"math"
	"testing"
)

// OracleSolve solves A x = b, or Aᵀ x = b when transposed is set, through
// the reference factorization and the row-oriented loops of
// refLU.oracleSolve: the accuracy oracle for the LU solves' column sweeps.
// It returns nil when a is singular.
func OracleSolve(a *Matrix, b Vector, transposed bool) Vector {
	ref, err := refFactor(a)
	if err != nil {
		return nil
	}
	if transposed {
		return ref.oracleSolveT(b)
	}
	return ref.oracleSolve(b)
}

// residualFactor is how far the solves' residual ‖Ax−b‖∞ may exceed the
// oracle's: a reordered sum moves the answer by roundoff of the same order,
// so a few times the oracle's residual, plus a floor of a few ulps of the
// problem's scale for the exact-residual cases (n = 1, triangular pivots),
// is all the headroom a correct sweep needs.
const residualFactor = 4

// CheckResidual fails t when x's residual against a (or aᵀ) and b exceeds
// residualFactor times the oracle's, with a floor of residualFactor·ε·
// (‖a‖∞‖x‖∞ + ‖b‖∞).
func CheckResidual(t testing.TB, label string, a *Matrix, transposed bool, b, x, oracle Vector) {
	t.Helper()
	got, want := residual(a, transposed, b, x), residual(a, transposed, b, oracle)
	norm := 0.0
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for j := 0; j < a.Cols; j++ {
			if transposed {
				s += math.Abs(a.At(j, i))
			} else {
				s += math.Abs(a.At(i, j))
			}
		}
		norm = math.Max(norm, s)
	}
	floor := residualFactor * 0x1p-52 * (norm*infNorm(x) + infNorm(b))
	if got > residualFactor*want+floor {
		t.Errorf("%s: residual %.3g, row-oriented oracle %.3g (floor %.3g)", label, got, want, floor)
	}
}

func residual(a *Matrix, transposed bool, b, x Vector) float64 {
	worst := 0.0
	for i := 0; i < a.Rows; i++ {
		s := -b[i]
		for j := 0; j < a.Cols; j++ {
			if transposed {
				s += a.At(j, i) * x[j]
			} else {
				s += a.At(i, j) * x[j]
			}
		}
		worst = math.Max(worst, math.Abs(s))
	}
	return worst
}

func infNorm(v Vector) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}
