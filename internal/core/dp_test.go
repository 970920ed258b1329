package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
	"repro/internal/mat"
)

// policyIteration solves the unconstrained problem min E[Σ αᵗ metric] by
// the crash's sparse policy iteration at λ = 0, from the all-zero policy.
func policyIteration(m *Model, metric string, alpha float64) (*DPResult, error) {
	pi, err := newPolicyIter(m, alpha)
	if err != nil {
		return nil, err
	}
	cost, err := m.Metric(metric)
	if err != nil {
		return nil, err
	}
	copy(pi.cost, cost.Data)
	if ok, _ := pi.solve(context.Background()); !ok {
		return nil, fmt.Errorf("policy iteration stopped after %d rounds", pi.rounds)
	}
	pol, err := DeterministicPolicy(pi.cmd, m.A)
	if err != nil {
		return nil, err
	}
	return &DPResult{Value: pi.v, Policy: pol, Iterations: pi.rounds}, nil
}

// TestValueIterationMatchesLP: the three solution methods Appendix A cites
// (successive approximations, policy improvement, linear programming) must
// agree on the unconstrained optimum.
func TestValueIterationMatchesLP(t *testing.T) {
	m := buildExample(t)
	alpha := 0.99
	q0 := Uniform(m.N)

	vi, err := ValueIteration(m, MetricPower, alpha, 1e-10)
	if err != nil {
		t.Fatalf("ValueIteration: %v", err)
	}
	pi, err := policyIteration(m, MetricPower, alpha)
	if err != nil {
		t.Fatalf("policy iteration: %v", err)
	}
	lpRes, err := Optimize(m, Options{
		Alpha:          alpha,
		Initial:        q0,
		Objective:      Objective{Metric: MetricPower, Sense: lp.Minimize},
		SkipEvaluation: true,
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}

	// Value vectors agree.
	if d := vi.Value.MaxAbsDiff(pi.Value); d > 1e-7 {
		t.Errorf("VI vs PI value vectors differ by %g", d)
	}
	// LP2's per-slice objective equals (1−α)·q0·v*.
	wantObj := (1 - alpha) * q0.Dot(vi.Value)
	if math.Abs(lpRes.Objective-wantObj) > 1e-7 {
		t.Errorf("LP objective %g vs (1−α)q0·v* = %g", lpRes.Objective, wantObj)
	}
	// Both DP policies are deterministic and optimal (Theorem A.1).
	for name, r := range map[string]*DPResult{"VI": vi, "PI": pi} {
		if len(r.Policy.RandomizedStates(1e-12)) != 0 {
			t.Errorf("%s policy not deterministic", name)
		}
		ev, err := Evaluate(m, r.Policy, q0, alpha)
		if err != nil {
			t.Fatalf("%s evaluate: %v", name, err)
		}
		if math.Abs(ev.Average(MetricPower)-lpRes.Objective) > 1e-7 {
			t.Errorf("%s policy cost %g vs LP optimum %g", name, ev.Average(MetricPower), lpRes.Objective)
		}
	}
}

// TestLP1MatchesValueIteration: the value-function LP (LP1) recovers the
// optimal value vector.
func TestLP1MatchesValueIteration(t *testing.T) {
	m := buildExample(t)
	alpha := 0.95
	vi, err := ValueIteration(m, MetricPenalty, alpha, 1e-10)
	if err != nil {
		t.Fatalf("ValueIteration: %v", err)
	}
	v1, err := SolveLP1(m, MetricPenalty, alpha)
	if err != nil {
		t.Fatalf("SolveLP1: %v", err)
	}
	if d := vi.Value.MaxAbsDiff(v1); d > 1e-6 {
		t.Errorf("LP1 vs VI value vectors differ by %g", d)
	}
}

// TestBellmanResidual: the optimal value has (near-)zero residual, a
// perturbed one does not.
func TestBellmanResidual(t *testing.T) {
	m := buildExample(t)
	alpha := 0.9
	vi, err := ValueIteration(m, MetricPower, alpha, 1e-11)
	if err != nil {
		t.Fatalf("ValueIteration: %v", err)
	}
	res, err := BellmanResidual(m, MetricPower, alpha, vi.Value)
	if err != nil {
		t.Fatalf("BellmanResidual: %v", err)
	}
	if res > 1e-9 {
		t.Errorf("optimal value residual %g", res)
	}
	bad := vi.Value.Clone()
	bad[0] += 1
	res, err = BellmanResidual(m, MetricPower, alpha, bad)
	if err != nil {
		t.Fatalf("BellmanResidual: %v", err)
	}
	if res < 0.5 {
		t.Errorf("perturbed value residual %g, want ≈1", res)
	}
	if _, err := BellmanResidual(m, MetricPower, alpha, mat.NewVector(1)); err == nil {
		t.Errorf("short vector accepted")
	}
}

// TestDPValidation: parameter checking.
func TestDPValidation(t *testing.T) {
	m := buildExample(t)
	if _, err := ValueIteration(m, MetricPower, 1.0, 0); err == nil {
		t.Errorf("alpha=1 accepted by VI")
	}
	if _, err := policyIteration(m, MetricPower, -0.1); err == nil {
		t.Errorf("alpha<0 accepted by PI")
	}
	if _, err := ValueIteration(m, "bogus", 0.9, 0); err == nil {
		t.Errorf("unknown metric accepted by VI")
	}
	if _, err := SolveLP1(m, "bogus", 0.9); err == nil {
		t.Errorf("unknown metric accepted by LP1")
	}
	if _, err := SolveLP1(m, MetricPower, 1.0); err == nil {
		t.Errorf("alpha=1 accepted by LP1")
	}
}

// Property: on random systems the three solvers agree.
func TestSolverAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sys := randomSystem(r)
		m, err := sys.Build()
		if err != nil {
			return false
		}
		alpha := 0.5 + 0.45*r.Float64()
		vi, err := ValueIteration(m, MetricPower, alpha, 1e-10)
		if err != nil {
			return false
		}
		pi, err := policyIteration(m, MetricPower, alpha)
		if err != nil {
			return false
		}
		if vi.Value.MaxAbsDiff(pi.Value) > 1e-6 {
			return false
		}
		q0 := Uniform(m.N)
		lpRes, err := Optimize(m, Options{
			Alpha:          alpha,
			Initial:        q0,
			Objective:      Objective{Metric: MetricPower, Sense: lp.Minimize},
			SkipEvaluation: true,
		})
		if err != nil {
			return false
		}
		want := (1 - alpha) * q0.Dot(vi.Value)
		return math.Abs(lpRes.Objective-want) < 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
