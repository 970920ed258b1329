package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
	"repro/internal/mat"
)

func TestPolicyConstructors(t *testing.T) {
	p, err := DeterministicPolicy([]int{0, 1, 0}, 2)
	if err != nil {
		t.Fatalf("DeterministicPolicy: %v", err)
	}
	if !p.IsDeterministic(1e-12) {
		t.Errorf("deterministic policy not detected")
	}
	if p.ModeCommand(1) != 1 {
		t.Errorf("ModeCommand = %d, want 1", p.ModeCommand(1))
	}
	if _, err := DeterministicPolicy([]int{2}, 2); err == nil {
		t.Errorf("out-of-range command accepted")
	}
	c, err := ConstantPolicy(4, 3, 2)
	if err != nil {
		t.Fatalf("ConstantPolicy: %v", err)
	}
	for s := 0; s < 4; s++ {
		if c.ModeCommand(s) != 2 {
			t.Errorf("constant policy state %d issues %d", s, c.ModeCommand(s))
		}
	}
	if _, err := NewPolicy(mat.FromRows([][]float64{{0.5, 0.2}})); err == nil {
		t.Errorf("non-stochastic policy accepted")
	}
}

func TestRandomizedStates(t *testing.T) {
	m := mat.FromRows([][]float64{
		{1, 0},
		{0.4, 0.6},
		{0, 1},
	})
	p, err := NewPolicy(m)
	if err != nil {
		t.Fatalf("NewPolicy: %v", err)
	}
	rs := p.RandomizedStates(1e-6)
	if len(rs) != 1 || rs[0] != 1 {
		t.Errorf("RandomizedStates = %v, want [1]", rs)
	}
	if p.IsDeterministic(1e-6) {
		t.Errorf("IsDeterministic true for randomized policy")
	}
}

func TestPolicyChainComposition(t *testing.T) {
	m := buildExample(t)
	// Always-on policy: chain equals P[s_on].
	p, _ := ConstantPolicy(m.N, m.A, 0)
	chain, err := p.Chain(m)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	if chain.Sparse().MaxAbsDiff(m.P[0]) > 1e-12 {
		t.Errorf("constant-policy chain differs from P[0]")
	}
	// A 50/50 policy gives the average matrix (Eq. 5).
	half := mat.NewMatrix(m.N, m.A)
	for s := 0; s < m.N; s++ {
		half.Set(s, 0, 0.5)
		half.Set(s, 1, 0.5)
	}
	hp, _ := NewPolicy(half)
	chain2, err := hp.Chain(m)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	want := m.P[0].Dense().Scale(0.5).AddMatrixScaled(0.5, m.P[1].Dense())
	if chain2.P().MaxAbsDiff(want) > 1e-12 {
		t.Errorf("mixed-policy chain wrong")
	}
}

func TestEvaluateAlwaysOn(t *testing.T) {
	sys := exampleSystem()
	m := buildExample(t)
	p, _ := ConstantPolicy(m.N, m.A, 0)
	q0 := Delta(m.N, sys.Index(State{SP: 0, SR: 0, Q: 0}))
	ev, err := Evaluate(m, p, q0, HorizonToAlpha(1e5))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if !ev.Occupancy.IsDistribution(1e-8) {
		t.Errorf("occupancy not a distribution: sum=%g", ev.Occupancy.Sum())
	}
	// Always-on keeps the SP on (from on, s_on keeps it there), so power
	// should be ~3 W and the occupancy of SP=off states ~0 at long horizon.
	if pw := ev.Average(MetricPower); math.Abs(pw-3) > 1e-3 {
		t.Errorf("always-on power = %g, want ≈3", pw)
	}
	if math.IsNaN(ev.Average("nope")) == false {
		t.Errorf("missing metric should be NaN")
	}
}

func TestOptimizeUnconstrainedDeterministic(t *testing.T) {
	// Theorem A.1: the unconstrained optimum is deterministic.
	m := buildExample(t)
	res, err := Optimize(m, Options{
		Alpha:     HorizonToAlpha(1e4),
		Objective: Objective{Metric: MetricPower, Sense: lp.Minimize},
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status %v", res.Status)
	}
	// Visited states must carry deterministic decisions; unvisited states
	// are filled deterministically by construction.
	if !res.Policy.IsDeterministic(1e-6) {
		t.Errorf("unconstrained optimal policy is randomized")
	}
	// Min power with no constraints: shut everything off, power → ~0.
	if res.Objective > 0.3 {
		t.Errorf("unconstrained min power = %g, want near 0", res.Objective)
	}
}

// TestOptimizeExampleA2 reproduces the structure of paper Example A.2:
// min power s.t. E[queue] ≤ 0.5 and a request-loss bound at horizon 10⁵,
// starting from (on, no request, empty queue). The paper's exact SR numbers
// are not fully recoverable from the text; with our Example-3.2-consistent
// SR (burst persistence 0.85) the minimum achievable loss is ≈0.25 (a full
// queue stays full through a burst — the Eq. 3 corner case), so the loss
// bound here is 0.3 rather than the paper's 0.2. The structural claims are
// unchanged: the optimal policy must be randomized in at least one state
// (Theorem A.2: an active constraint forces randomization), and the optimal
// power must improve on the never-shut-down policy (3 W).
func TestOptimizeExampleA2(t *testing.T) {
	sys := exampleSystem()
	m := buildExample(t)
	alpha := HorizonToAlpha(1e5)
	q0 := Delta(m.N, sys.Index(State{SP: 0, SR: 0, Q: 0}))
	res, err := Optimize(m, Options{
		Alpha:     alpha,
		Initial:   q0,
		Objective: Objective{Metric: MetricPower, Sense: lp.Minimize},
		Bounds: []Bound{
			{Metric: MetricPenalty, Rel: lp.LE, Value: 0.5},
			{Metric: MetricLoss, Rel: lp.LE, Value: 0.3},
		},
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Objective >= 3 {
		t.Errorf("optimal power %g does not improve on always-on (3 W)", res.Objective)
	}
	if res.Objective < 1 {
		t.Errorf("optimal power %g implausibly low given 40%% load", res.Objective)
	}
	// Constraints honored.
	if res.Averages[MetricPenalty] > 0.5+1e-6 {
		t.Errorf("penalty %g exceeds bound", res.Averages[MetricPenalty])
	}
	if res.Averages[MetricLoss] > 0.3+1e-6 {
		t.Errorf("loss %g exceeds bound", res.Averages[MetricLoss])
	}
	// At least one constraint is active, so the policy is randomized
	// (Theorem A.2).
	// The randomization probability can be very small (a per-slice shutdown
	// probability of ~1e-5 suffices to pin the long-horizon average at the
	// bound), so detect it with a tolerance just above LP numerical noise.
	activePenalty := res.Averages[MetricPenalty] > 0.5-1e-4
	activeLoss := res.Averages[MetricLoss] > 0.3-1e-4
	if activePenalty || activeLoss {
		if len(res.Policy.RandomizedStates(1e-6)) == 0 {
			t.Errorf("active constraint but deterministic policy (contradicts Theorem A.2)")
		}
	}
	// Consistency: LP objective equals the exact evaluation of the
	// extracted policy (the paper tool's optimizer/simulator cross-check,
	// here in analytic form).
	if d := math.Abs(res.Eval.Average(MetricPower) - res.Objective); d > 1e-6 {
		t.Errorf("LP objective %g vs exact evaluation %g (Δ=%g)",
			res.Objective, res.Eval.Average(MetricPower), d)
	}
	for _, metric := range []string{MetricPenalty, MetricLoss, MetricService} {
		if d := math.Abs(res.Eval.Average(metric) - res.Averages[metric]); d > 1e-6 {
			t.Errorf("metric %s: LP %g vs evaluation %g", metric, res.Averages[metric], res.Eval.Average(metric))
		}
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	m := buildExample(t)
	_, err := Optimize(m, Options{
		Alpha:     HorizonToAlpha(1e4),
		Objective: Objective{Metric: MetricPower, Sense: lp.Minimize},
		// Average queue length cannot be negative.
		Bounds: []Bound{{Metric: MetricPenalty, Rel: lp.LE, Value: -0.5}},
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestOptimizeValidation(t *testing.T) {
	m := buildExample(t)
	if _, err := Optimize(m, Options{Alpha: 1}); err == nil {
		t.Errorf("alpha=1 accepted")
	}
	if _, err := Optimize(m, Options{Alpha: 0.5, Initial: mat.Vector{1}}); err == nil {
		t.Errorf("short initial distribution accepted")
	}
	if _, err := Optimize(m, Options{Alpha: 0.5, Objective: Objective{Metric: "bogus"}}); err == nil {
		t.Errorf("unknown metric accepted")
	}
	if _, err := Optimize(m, Options{Alpha: 0.5, UnvisitedCommand: 99}); err == nil {
		t.Errorf("bad unvisited command accepted")
	}
	bad := mat.NewVector(m.N)
	bad[0] = 2
	if _, err := Optimize(m, Options{Alpha: 0.5, Initial: bad}); err == nil {
		t.Errorf("non-distribution initial accepted")
	}
}

func TestHorizonAlphaRoundTrip(t *testing.T) {
	for _, h := range []float64{1, 10, 1e5, 1e6} {
		if got := AlphaToHorizon(HorizonToAlpha(h)); math.Abs(got-h)/h > 1e-9 {
			t.Errorf("round trip %g → %g", h, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("HorizonToAlpha(<1) did not panic")
		}
	}()
	HorizonToAlpha(0.5)
}

func TestWaitingTimeBound(t *testing.T) {
	sr := exampleSR() // arrival rate 0.4
	b, err := WaitingTimeBound(sr, 2.5)
	if err != nil {
		t.Fatalf("WaitingTimeBound: %v", err)
	}
	if b.Metric != MetricPenalty || b.Rel != lp.LE || math.Abs(b.Value-1.0) > 1e-12 {
		t.Errorf("WaitingTimeBound = %+v", b)
	}
}

// TestParetoSweepShape checks Section IV-A's structure: as the performance
// bound loosens, optimal power is non-increasing, and the curve is convex
// (Theorem 4.1). Points below the minimum achievable queue length are
// infeasible.
func TestParetoSweepShape(t *testing.T) {
	sys := exampleSystem()
	m := buildExample(t)
	opts := Options{
		Alpha:          HorizonToAlpha(1e5),
		Initial:        Delta(m.N, sys.Index(State{SP: 0, SR: 0, Q: 0})),
		Objective:      Objective{Metric: MetricPower, Sense: lp.Minimize},
		SkipEvaluation: true,
	}
	bounds := []float64{0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8}
	pts, err := ParetoSweep(m, opts, MetricPenalty, lp.LE, bounds)
	if err != nil {
		t.Fatalf("ParetoSweep: %v", err)
	}
	if len(pts) != len(bounds) {
		t.Fatalf("got %d points", len(pts))
	}
	// Feasibility is monotone: once feasible, stays feasible.
	seenFeasible := false
	for _, p := range pts {
		if p.Feasible {
			seenFeasible = true
		} else if seenFeasible {
			t.Errorf("feasibility not monotone at bound %g", p.BoundValue)
		}
	}
	if !seenFeasible {
		t.Fatalf("no feasible point in sweep")
	}
	// Monotone non-increasing objective over feasible points.
	prev := math.Inf(1)
	var feas []ParetoPoint
	for _, p := range pts {
		if !p.Feasible {
			continue
		}
		if p.Objective > prev+1e-7 {
			t.Errorf("objective increased at bound %g: %g > %g", p.BoundValue, p.Objective, prev)
		}
		prev = p.Objective
		feas = append(feas, p)
	}
	// Convexity over equally-informative triples (Theorem 4.1): for
	// consecutive feasible bounds b1<b2<b3 with b2=(b1+b3)/2,
	// f(b2) ≤ (f(b1)+f(b3))/2.
	for i := 0; i+2 < len(feas); i++ {
		b1, b2, b3 := feas[i], feas[i+1], feas[i+2]
		if math.Abs((b1.BoundValue+b3.BoundValue)/2-b2.BoundValue) > 1e-9 {
			continue
		}
		if b2.Objective > (b1.Objective+b3.Objective)/2+1e-6 {
			t.Errorf("convexity violated at bound %g: f=%g, midpoint bound %g",
				b2.BoundValue, b2.Objective, (b1.Objective+b3.Objective)/2)
		}
	}
}

// TestOptimalityAgainstRandomPolicies is the central optimality property:
// no randomly sampled Markov stationary policy can beat the LP optimum.
func TestOptimalityAgainstRandomPolicies(t *testing.T) {
	m := buildExample(t)
	alpha := HorizonToAlpha(1e3)
	q0 := Uniform(m.N)
	res, err := Optimize(m, Options{
		Alpha:          alpha,
		Initial:        q0,
		Objective:      Objective{Metric: MetricPenalty, Sense: lp.Minimize},
		SkipEvaluation: true,
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pm := mat.NewMatrix(m.N, m.A)
		for s := 0; s < m.N; s++ {
			row := pm.Row(s)
			sum := 0.0
			for a := range row {
				row[a] = r.Float64() + 1e-6
				sum += row[a]
			}
			row.Scale(1 / sum)
		}
		pol, err := NewPolicy(pm)
		if err != nil {
			return false
		}
		ev, err := Evaluate(m, pol, q0, alpha)
		if err != nil {
			return false
		}
		return ev.Average(MetricPenalty) >= res.Objective-1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFrequencyBalance checks that the optimizer's frequencies satisfy the
// scaled balance equations and sum to one.
func TestFrequencyBalance(t *testing.T) {
	m := buildExample(t)
	alpha := 0.99
	q0 := Uniform(m.N)
	res, err := Optimize(m, Options{
		Alpha:          alpha,
		Initial:        q0,
		Objective:      Objective{Metric: MetricPower, Sense: lp.Minimize},
		Bounds:         []Bound{{Metric: MetricPenalty, Rel: lp.LE, Value: 0.4}},
		SkipEvaluation: true,
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	total := 0.0
	for _, y := range res.Frequencies.Data {
		if y < -1e-9 {
			t.Errorf("negative frequency %g", y)
		}
		total += y
	}
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("frequencies sum to %g, want 1", total)
	}
	for j := 0; j < m.N; j++ {
		lhs := res.Frequencies.Row(j).Sum()
		rhs := (1 - alpha) * q0[j]
		for a := 0; a < m.A; a++ {
			for s := 0; s < m.N; s++ {
				rhs += alpha * m.P[a].At(s, j) * res.Frequencies.At(s, a)
			}
		}
		if math.Abs(lhs-rhs) > 1e-6 {
			t.Errorf("balance violated at state %d: %g vs %g", j, lhs, rhs)
		}
	}
}

// TestOccupancyMatchesFrequencies: the extracted policy's occupancy measure
// reproduces the LP's per-state frequencies (the theoretical identity that
// justifies policy extraction).
func TestOccupancyMatchesFrequencies(t *testing.T) {
	m := buildExample(t)
	alpha := 0.995
	q0 := Uniform(m.N)
	res, err := Optimize(m, Options{
		Alpha:     alpha,
		Initial:   q0,
		Objective: Objective{Metric: MetricPower, Sense: lp.Minimize},
		Bounds:    []Bound{{Metric: MetricPenalty, Rel: lp.LE, Value: 0.45}},
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	for s := 0; s < m.N; s++ {
		want := res.Frequencies.Row(s).Sum()
		if math.Abs(res.Eval.Occupancy[s]-want) > 1e-6 {
			t.Errorf("state %d occupancy %g vs frequency %g", s, res.Eval.Occupancy[s], want)
		}
	}
}

// TestGEObjectiveConstraint exercises a ≥ constraint on the service metric
// (the web-server pattern: min power s.t. throughput ≥ T).
func TestGEObjectiveConstraint(t *testing.T) {
	m := buildExample(t)
	res, err := Optimize(m, Options{
		Alpha:          HorizonToAlpha(1e4),
		Objective:      Objective{Metric: MetricPower, Sense: lp.Minimize},
		Bounds:         []Bound{{Metric: MetricService, Rel: lp.GE, Value: 0.3}},
		SkipEvaluation: true,
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Averages[MetricService] < 0.3-1e-6 {
		t.Errorf("service %g below bound", res.Averages[MetricService])
	}
}

func TestPolicyChainDimensionMismatch(t *testing.T) {
	m := buildExample(t)
	p, _ := ConstantPolicy(3, m.A, 0)
	if _, err := p.Chain(m); err == nil {
		t.Errorf("mismatched policy accepted")
	}
	if _, err := Evaluate(m, p, Uniform(m.N), 0.9); err == nil {
		t.Errorf("Evaluate with mismatched policy accepted")
	}
	good, _ := ConstantPolicy(m.N, m.A, 0)
	if _, err := Evaluate(m, good, mat.Vector{1}, 0.9); err == nil {
		t.Errorf("Evaluate with short q0 accepted")
	}
}

// TestParetoSweepWarmStarts checks the warm-starting contract on a real
// policy LP: the sequential sweep actually reuses bases after the first
// feasible point, and every warm-started point agrees with an independent
// cold solve to tight tolerance.
func TestParetoSweepWarmStarts(t *testing.T) {
	sys := exampleSystem()
	m := buildExample(t)
	opts := Options{
		Alpha:          HorizonToAlpha(1e5),
		Initial:        Delta(m.N, sys.Index(State{SP: 0, SR: 0, Q: 0})),
		Objective:      Objective{Metric: MetricPower, Sense: lp.Minimize},
		SkipEvaluation: true,
	}
	bounds := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8}
	pts, err := ParetoSweep(m, opts, MetricPenalty, lp.LE, bounds)
	if err != nil {
		t.Fatalf("ParetoSweep: %v", err)
	}
	warmed := 0
	for i, p := range pts {
		if !p.Feasible {
			continue
		}
		if p.Result.Basis == nil {
			t.Errorf("feasible point %d carries no basis", i)
		}
		if p.Result.WarmStarted {
			warmed++
		}
		o := opts
		o.Bounds = []Bound{{Metric: MetricPenalty, Rel: lp.LE, Value: p.BoundValue}}
		cold, err := Optimize(m, o)
		if err != nil {
			t.Fatalf("cold solve at bound %g: %v", p.BoundValue, err)
		}
		if math.Abs(cold.Objective-p.Objective) > 1e-9 {
			t.Errorf("bound %g: warm objective %g vs cold %g", p.BoundValue, p.Objective, cold.Objective)
		}
	}
	if warmed == 0 {
		t.Errorf("no point of the sweep warm-started")
	}
}

// TestParetoSweepPointAllocs bounds what one more pivot-free point costs a
// warm sweep in allocations: the point's Result (frequencies, policy,
// averages), its Solution and exported Basis, and the swept row's name —
// a few dozen, where assembling the point's LP afresh would cost several
// per constraint row. It keeps the per-point rebuild from creeping back
// into the resident sweep.
func TestParetoSweepPointAllocs(t *testing.T) {
	sys := exampleSystem()
	m := buildExample(t)
	opts := Options{
		Alpha:          HorizonToAlpha(1e5),
		Initial:        Delta(m.N, sys.Index(State{SP: 0, SR: 0, Q: 0})),
		Objective:      Objective{Metric: MetricPower, Sense: lp.Minimize},
		SkipEvaluation: true,
	}
	sweepOf := func(n int) float64 {
		values := make([]float64, n)
		for i := range values {
			values[i] = 0.4
		}
		return testing.AllocsPerRun(5, func() {
			pts, err := ParetoSweep(m, opts, MetricPenalty, lp.LE, values)
			if err != nil || !pts[n-1].Feasible || (n > 1 && pts[n-1].Result.LPIterations != 0) {
				t.Fatalf("sweep of %d: err %v, or its last point was infeasible or pivoted", n, err)
			}
		})
	}
	const extra = 8
	perPoint := (sweepOf(1+extra) - sweepOf(1)) / extra
	build := testing.AllocsPerRun(5, func() {
		if _, err := BuildFrequencyLP(m, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per resident point; one LP assembly costs %.0f", perPoint, build)
	if perPoint > 40 {
		t.Errorf("a pivot-free sweep point allocates %.1f times, want <= 40", perPoint)
	}
	if build <= 40 {
		t.Errorf("LP assembly allocates only %.0f times: the bound no longer tells a rebuild apart", build)
	}
}
