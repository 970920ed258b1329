package lp

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"
)

// TestCertifyExactRejects: the certificate proves textbook-max's optimal
// basis optimal at exactly 36, and rejects what is not an optimal basis of
// the problem at hand — the feasible but unpriced slack basis, the optimum
// of the same rows under the opposite sense, and a basis of a problem of
// another shape.
func TestCertifyExactRejects(t *testing.T) {
	corpus := parityProblems()
	p := corpus["textbook-max"]
	_, opt, err := NewSolver().Solve(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CertifyExact(p, opt)
	if err != nil || !optimalWithin(c, 0) || c.Objective.Cmp(big.NewRat(36, 1)) != 0 {
		t.Fatalf("optimal basis: certificate %+v, err %v; want optimal at exactly 36", c, err)
	}

	slack := &Basis{cols: []int{2, 3, 4}, nv: 2, ns: 3}
	if c, err := CertifyExact(p, slack); err != nil || optimalWithin(c, 0) || c.MinReducedCost.Sign() >= 0 {
		t.Errorf("slack basis: certificate %+v, err %v; want feasible but not dual feasible", c, err)
	}

	flipped := *p
	flipped.Sense = Minimize
	if c, err := CertifyExact(&flipped, opt); err != nil || optimalWithin(c, 0) {
		t.Errorf("max optimum under min: certificate %+v, err %v; want rejected", c, err)
	}

	if _, err := CertifyExact(corpus["min-ge"], opt); err == nil {
		t.Error("a basis of another problem's shape was accepted")
	}
}

// FuzzRandomLP decodes bytes into a small LP and holds both kernel
// configurations to the exact verdict contract: no panic, no Numerical or
// IterationLimit status, and every Optimal, Infeasible and Unbounded
// verdict proved by certifyVerdict with no residual allowed. The bytes past
// the LP name one structural column per row (or none), and the same LP is
// solved again from that basis by rows (BasisFromRows), whose verdict is
// held to the same contract. The seeds are corpus instances rounded onto
// the fuzz grid (see encodeLP), bare and with a basis by rows.
func FuzzRandomLP(f *testing.F) {
	corpus := parityProblems()
	for _, name := range []string{"unbounded", "infeasible", "random-h0", "beale", "textbook-max", "redundant-eq", "neg-rhs"} {
		f.Add(encodeLP(corpus[name]))
		f.Add(append(encodeLP(corpus[name]), 1, 2, 3, 4, 5, 6))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, rest := decodeLP(data)
		crash := BasisFromRows(p, decodeRowBasis(p, rest))
		for _, kc := range kernelConfigs {
			for _, start := range []struct {
				name  string
				basis *Basis
			}{{"cold", nil}, {"by rows", crash}} {
				sol, basis, err := NewSolver(kc.opts...).Solve(context.Background(), p, start.basis)
				if cerr := certifyVerdict(p, sol, basis, 0, kc.opts...); cerr != nil {
					t.Fatalf("%s, %s: %v verdict (err %v) not certified: %v\n%s", kc.name, start.name, sol.Status, err, cerr, lpString(p))
				}
			}
		}
	})
}

// decodeRowBasis reads one byte per row of p from data (missing bytes read
// as zero): byte b names structural column b mod (n+1) − 1, where −1 is
// none, the row's own slack or artificial.
func decodeRowBasis(p *Problem, data []byte) []int {
	cols := make([]int, len(p.Cons))
	for i := range cols {
		b := 0
		if i < len(data) {
			b = int(data[i])
		}
		cols[i] = b%(p.NumVars()+1) - 1
	}
	return cols
}

// decodeLP reads a small LP from fuzz bytes; missing bytes read as zero.
// Byte 0 picks 1–6 variables and the sense, byte 1 picks 0–6 rows; then
// come the objective, one byte per variable, and per row a relation byte,
// one coefficient byte per variable and a right-hand-side byte. It returns
// the bytes it did not read.
//
// Objective and row coefficients are integers in [−3, 3], right-hand sides
// integers in [−6, 6]. On such data every basic value, dual, reduced cost
// and phase-1 residual is an integer over det B, and Hadamard's bound for
// a basis of at most six columns of norm ≤ 3·√6 puts |det B| below 1.6e5,
// so each of them is zero or at least 6e-6 in magnitude. That is above
// every solver tolerance, the scale-relative ones included, so a verdict
// the exact certificate rejects is a solver fault, not rounding the
// tolerances allow.
func decodeLP(data []byte) (*Problem, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	coef := func() float64 { return float64(int8(next()) % 4) }
	head := next()
	n := 1 + int(head%6)
	p := NewProblem(Sense(head/6%2), n)
	m := int(next() % 7)
	for j := range p.Obj {
		p.Obj[j] = coef()
	}
	for i := 0; i < m; i++ {
		rel := Rel(next() % 3)
		row := make([]float64, n)
		for j := range row {
			row[j] = coef()
		}
		p.AddConstraint(fmt.Sprint("r", i), row, rel, float64(int8(next())%7))
	}
	return p, data
}

// encodeLP is decodeLP's inverse on the fuzz grid. Other data it rounds
// to the nearest grid value, clamped to the grid's range, so a corpus
// instance seeds the fuzzer with its shape, relations and sign pattern.
func encodeLP(p *Problem) []byte {
	grid := func(v, lim float64) byte { return byte(int8(math.Max(-lim, math.Min(lim, math.Round(v))))) }
	n := p.NumVars()
	data := []byte{byte(n - 1 + 6*int(p.Sense)), byte(len(p.Cons))}
	for _, v := range p.Obj {
		data = append(data, grid(v, 3))
	}
	for _, c := range p.Cons {
		row := make([]float64, n)
		for k, j := range c.Cols {
			row[j] = c.Vals[k]
		}
		data = append(data, byte(c.Rel))
		for _, v := range row {
			data = append(data, grid(v, 3))
		}
		data = append(data, grid(c.RHS, 6))
	}
	return data
}

// lpString renders p for a failure report.
func lpString(p *Problem) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sense %d obj %v\n", p.Sense, p.Obj)
	for _, c := range p.Cons {
		fmt.Fprintf(&b, "  %v %v %v %g\n", c.Cols, c.Vals, c.Rel, c.RHS)
	}
	return b.String()
}
