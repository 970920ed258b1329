package core

import (
	"context"
	"math"
	"math/big"
	"sort"
	"testing"

	"repro/internal/lp"
)

// TestFrequencyLPCertified solves the assembled policy LPs (LP2 and the
// constrained LP3/LP4 shapes, at mild and paper-stiff discount factors)
// with the revised simplex and proves each returned basis optimal in exact
// rational arithmetic (lp.CertifyExact), with the exact objective matching
// the reported one to 1e-9 relative. service-ge is accepted within its
// measured residual: one nonbasic reduced cost at −4.7205e-16. The sparse
// kernel's leg on the same LPs lives in package lp (corelp_test.go), which
// can force it below the size threshold.
func TestFrequencyLPCertified(t *testing.T) {
	sys := exampleSystem()
	m := buildExample(t)
	q0 := Delta(m.N, sys.Index(State{SP: 0, SR: 0, Q: 0}))

	cases := []struct {
		name     string
		opts     Options
		residual float64
	}{
		{"unconstrained-1e4", Options{
			Alpha:     HorizonToAlpha(1e4),
			Objective: Objective{Metric: MetricPower, Sense: lp.Minimize},
		}, 0},
		{"exampleA2-1e5", Options{
			Alpha:     HorizonToAlpha(1e5),
			Initial:   q0,
			Objective: Objective{Metric: MetricPower, Sense: lp.Minimize},
			Bounds: []Bound{
				{Metric: MetricPenalty, Rel: lp.LE, Value: 0.5},
				{Metric: MetricLoss, Rel: lp.LE, Value: 0.3},
			},
		}, 0},
		{"service-ge", Options{
			Alpha:     HorizonToAlpha(1e4),
			Objective: Objective{Metric: MetricPower, Sense: lp.Minimize},
			Bounds:    []Bound{{Metric: MetricService, Rel: lp.GE, Value: 0.3}},
		}, 4.73e-16},
		{"penalty-objective", Options{
			Alpha:     0.99,
			Objective: Objective{Metric: MetricPenalty, Sense: lp.Minimize},
			Bounds:    []Bound{{Metric: MetricPower, Rel: lp.LE, Value: 2}},
		}, 0},
	}
	for _, tc := range cases {
		prob, err := BuildFrequencyLP(m, tc.opts)
		if err != nil {
			t.Fatalf("%s: BuildFrequencyLP: %v", tc.name, err)
		}
		sol, basis, err := lp.NewSolver().Solve(context.Background(), prob, nil)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		c, err := lp.CertifyExact(prob, basis)
		if err != nil {
			t.Fatalf("%s: CertifyExact: %v", tc.name, err)
		}
		tol := new(big.Rat).SetFloat64(tc.residual)
		tol.Neg(tol)
		if c.MinBasic.Sign() < 0 || c.Artificial.Sign() != 0 || c.MinReducedCost.Cmp(tol) < 0 {
			t.Errorf("%s: basis not optimal: min basic %s, artificial %s, min reduced cost %s", tc.name,
				c.MinBasic.FloatString(20), c.Artificial.FloatString(20), c.MinReducedCost.FloatString(20))
		}
		if obj, _ := c.Objective.Float64(); math.Abs(obj-sol.Objective) > 1e-9*(1+math.Abs(obj)) {
			t.Errorf("%s: reported objective %.17g, exact %.17g", tc.name, sol.Objective, obj)
		}
		if sol.FactorNNZ <= 0 {
			t.Errorf("%s: FactorNNZ = %d, want positive", tc.name, sol.FactorNNZ)
		}
	}
}

// TestBuildFrequencyLPSparseRows pins the sparse assembly against the LP2
// definition: row 0 is the normalization Σy = 1, the balance row of state
// j ≥ 1 carries +1 on every (j,a) column, −α p_{s,j}(a) on incoming (s,a)
// columns (merged when s = j), and the RHS (1−α)q0_j; bound rows carry the
// metric table entries.
func TestBuildFrequencyLPSparseRows(t *testing.T) {
	m := buildExample(t)
	alpha := 0.9
	opts := Options{
		Alpha:     alpha,
		Objective: Objective{Metric: MetricPower, Sense: lp.Minimize},
		Bounds:    []Bound{{Metric: MetricPenalty, Rel: lp.LE, Value: 0.5}},
	}
	prob, err := BuildFrequencyLP(m, opts)
	if err != nil {
		t.Fatalf("BuildFrequencyLP: %v", err)
	}
	if prob.NumVars() != m.N*m.A {
		t.Fatalf("NumVars = %d, want %d", prob.NumVars(), m.N*m.A)
	}
	if len(prob.Cons) != m.N+1 {
		t.Fatalf("%d constraints, want %d", len(prob.Cons), m.N+1)
	}
	norm := &prob.Cons[0]
	if norm.Name != "normalize" || norm.Rel != lp.EQ || norm.RHS != 1 || len(norm.Cols) != m.N*m.A {
		t.Fatalf("row 0 %q %v %g with %d nonzeros, want normalize == 1 over all %d columns", norm.Name, norm.Rel, norm.RHS, len(norm.Cols), m.N*m.A)
	}
	for k, v := range norm.Vals {
		if norm.Cols[k] != k || v != 1 {
			t.Fatalf("normalize entry %d: column %d value %g, want column %d value 1", k, norm.Cols[k], v, k)
		}
	}
	for j := 1; j < m.N; j++ {
		c := &prob.Cons[j]
		if c.Rel != lp.EQ {
			t.Fatalf("balance[%d] relation %v", j, c.Rel)
		}
		for s := 0; s < m.N; s++ {
			for a := 0; a < m.A; a++ {
				want := -alpha * m.P[a].At(s, j)
				if s == j {
					want += 1
				}
				if got := coeff(c, s*m.A+a); math.Abs(got-want) > 1e-15 {
					t.Errorf("balance[%d] coeff (s=%d,a=%d) = %g, want %g", j, s, a, got, want)
				}
			}
		}
		if math.Abs(c.RHS-(1-alpha)/float64(m.N)) > 1e-15 {
			t.Errorf("balance[%d] RHS = %g", j, c.RHS)
		}
	}
	bound := &prob.Cons[m.N]
	penalty, _ := m.Metric(MetricPenalty)
	for s := 0; s < m.N; s++ {
		for a := 0; a < m.A; a++ {
			if got := coeff(bound, s*m.A+a); got != penalty.At(s, a) {
				t.Errorf("bound coeff (s=%d,a=%d) = %g, want %g", s, a, got, penalty.At(s, a))
			}
		}
	}
}

// coeff returns c's coefficient on variable j (zero if not stored).
func coeff(c *lp.Constraint, j int) float64 {
	k := sort.SearchInts(c.Cols, j)
	if k < len(c.Cols) && c.Cols[k] == j {
		return c.Vals[k]
	}
	return 0
}
