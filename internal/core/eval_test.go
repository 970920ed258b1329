package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// randFactoredSystem composes 2–3 random parts into a queued system. With
// masked set, both command-space masks are exercised: a per-part subset on
// the last part and the at-most-one-move joint predicate.
func randFactoredSystem(t *testing.T, rng *rand.Rand, masked bool) *System {
	t.Helper()
	k := 2 + rng.Intn(2)
	parts := make([]*ServiceProvider, k)
	for i := range parts {
		parts[i] = randPart(rng, string(rune('a'+i)))
	}
	comp := &Composite{Name: "sys", Parts: parts, Rate: parallelRate(parts)}
	if masked {
		sub := make([][]int, k)
		sub[k-1] = []int{0, 1}
		comp.PartCommands = sub
		comp.Allow = func(cmds []int) bool {
			moved := 0
			for _, c := range cmds {
				if c != 0 {
					moved++
				}
			}
			return moved <= 1
		}
		comp.AllowTag = "one/v1"
	}
	sp, err := comp.Build()
	if err != nil {
		t.Fatalf("Composite.Build: %v", err)
	}
	return &System{
		Name:     "sys",
		SP:       sp,
		SR:       TwoStateSR("w", 0.1+0.5*rng.Float64(), 0.2+0.5*rng.Float64()),
		QueueCap: 1 + rng.Intn(3),
	}
}

func randDist(rng *rand.Rand, n int) mat.Vector {
	v := mat.NewVector(n)
	for i := range v {
		v[i] = rng.Float64()
	}
	v.Normalize()
	return v
}

// TestCommandOpMatchesModel: the three-stage matrix-free operator reproduces
// the compiled Model's composed CSR exactly (≤ 1e-12) in both application
// directions, for factored providers — masked and unmasked — and for a plain
// dense provider.
func TestCommandOpMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		sys := randFactoredSystem(t, rng, trial%2 == 1)
		if trial == 6 {
			// Plain (non-factored) provider leg: same operator algebra, SP
			// stage falls back to the provider's own joint chain.
			p := randPart(rng, "solo")
			sys = &System{Name: "plain", SP: p, SR: TwoStateSR("w", 0.3, 0.4), QueueCap: 2}
		}
		m, err := sys.Build()
		if err != nil {
			t.Fatalf("trial %d: Build: %v", trial, err)
		}
		n := sys.NumStates()
		for a := 0; a < sys.SP.A(); a++ {
			op, err := sys.CommandOp(a)
			if err != nil {
				t.Fatalf("trial %d: CommandOp(%d): %v", trial, a, err)
			}
			if op.Rows() != n || op.Cols() != n || op.cmd != a {
				t.Fatalf("trial %d: operator shape %dx%d cmd %d", trial, op.Rows(), op.Cols(), op.cmd)
			}
			x := randDist(rng, n)
			got := mat.NewVector(n)
			op.MulVecTInto(got, x)
			if d := maxAbsDiffVec(got, m.P[a].VecMul(x)); d > 1e-12 {
				t.Fatalf("trial %d cmd %d: MulVecTInto differs from composed CSR by %g", trial, a, d)
			}
			v := mat.NewVector(n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			op.MulVecInto(got, v)
			if d := maxAbsDiffVec(got, m.P[a].MulVec(v)); d > 1e-12 {
				t.Fatalf("trial %d cmd %d: MulVecInto differs from composed CSR by %g", trial, a, d)
			}
		}
	}
}

func maxAbsDiffVec(a, b mat.Vector) float64 {
	d := 0.0
	for i := range a {
		if x := math.Abs(a[i] - b[i]); x > d {
			d = x
		}
	}
	return d
}

// TestPolicyOpMatchesPolicyChain: the masked per-command accumulation equals
// the rowwise policy mix of Eq. 5 compiled through the Model, including when
// some commands are never issued.
func TestPolicyOpMatchesPolicyChain(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 6; trial++ {
		sys := randFactoredSystem(t, rng, trial%2 == 0)
		m, err := sys.Build()
		if err != nil {
			t.Fatalf("trial %d: Build: %v", trial, err)
		}
		n, na := m.N, m.A
		pm := mat.NewMatrix(n, na)
		// Sparse rows over the first na-1 commands: the last command is
		// never issued, so PolicyOp must skip building its operator.
		for s := 0; s < n; s++ {
			row := pm.Row(s)
			row[rng.Intn(na-1)] += 0.5 + 0.5*rng.Float64()
			row[rng.Intn(na-1)] += rng.Float64()
			mat.Vector(row).Normalize()
		}
		pol, err := NewPolicy(pm)
		if err != nil {
			t.Fatalf("trial %d: NewPolicy: %v", trial, err)
		}
		po, err := sys.PolicyOp(pol)
		if err != nil {
			t.Fatalf("trial %d: PolicyOp: %v", trial, err)
		}
		if po.ops[na-1] != nil {
			t.Fatalf("trial %d: unissued command %d got an operator", trial, na-1)
		}
		ch, err := pol.Chain(m)
		if err != nil {
			t.Fatalf("trial %d: policy chain: %v", trial, err)
		}
		x := randDist(rng, n)
		got := mat.NewVector(n)
		po.MulVecTInto(got, x)
		if d := maxAbsDiffVec(got, ch.Step(x)); d > 1e-12 {
			t.Fatalf("trial %d: policy MulVecTInto differs by %g", trial, d)
		}
		v := mat.NewVector(n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		po.MulVecInto(got, v)
		if d := maxAbsDiffVec(got, ch.Sparse().MulVec(v)); d > 1e-12 {
			t.Fatalf("trial %d: policy MulVecInto differs by %g", trial, d)
		}
	}
}

// TestEvaluateFactoredMatchesEvaluate: the Model-free evaluation agrees with
// the compiled-Model path to 1e-8 on the occupancy and every metric average.
func TestEvaluateFactoredMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 4; trial++ {
		sys := randFactoredSystem(t, rng, trial%2 == 0)
		m, err := sys.Build()
		if err != nil {
			t.Fatalf("trial %d: Build: %v", trial, err)
		}
		pol, err := ConstantPolicy(m.N, m.A, rng.Intn(m.A))
		if err != nil {
			t.Fatalf("trial %d: policy: %v", trial, err)
		}
		if trial%2 == 0 {
			pm := mat.NewMatrix(m.N, m.A)
			for s := 0; s < m.N; s++ {
				copy(pm.Row(s), randDist(rng, m.A))
			}
			pol = &Policy{M: pm}
		}
		q0 := randDist(rng, m.N)
		alpha := 0.9 + 0.05*rng.Float64()

		want, err := Evaluate(m, pol, q0, alpha)
		if err != nil {
			t.Fatalf("trial %d: Evaluate: %v", trial, err)
		}
		got, err := EvaluateFactored(sys, pol, q0, alpha)
		if err != nil {
			t.Fatalf("trial %d: EvaluateFactored: %v", trial, err)
		}
		if d := maxAbsDiffVec(got.Occupancy, want.Occupancy); d > 1e-8 {
			t.Fatalf("trial %d: occupancies differ by %g", trial, d)
		}
		if len(got.Averages) != len(want.Averages) {
			t.Fatalf("trial %d: %d averages vs %d", trial, len(got.Averages), len(want.Averages))
		}
		for name, w := range want.Averages {
			g, ok := got.Averages[name]
			if !ok {
				t.Fatalf("trial %d: factored evaluation lacks metric %q", trial, name)
			}
			if math.Abs(g-w) > 1e-8 {
				t.Fatalf("trial %d: metric %q = %g factored vs %g exact", trial, name, g, w)
			}
		}
	}
}

// TestFactoredSPLazy: handing out operators and sampling successors compiles
// no joint chains; only an explicit Chain call does, once.
func TestFactoredSPLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	parts := []*ServiceProvider{randPart(rng, "x"), randPart(rng, "y")}
	fsp, err := (&Composite{Name: "lazy", Parts: parts, Rate: parallelRate(parts)}).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := fsp.CompiledChains(); got != 0 {
		t.Fatalf("fresh provider has %d compiled chains", got)
	}
	op := fsp.Op(0)
	x := randDist(rng, fsp.N())
	lazyStep := mat.NewVector(fsp.N())
	op.MulVecTInto(lazyStep, x)
	for s := 0; s < fsp.N(); s++ {
		fsp.SampleNext(s, 0, rng.Float64)
	}
	if got := fsp.CompiledChains(); got != 0 {
		t.Fatalf("operator use compiled %d chains", got)
	}
	joint := fsp.Chain(0)
	if got := fsp.CompiledChains(); got != 1 {
		t.Fatalf("Chain(0) left %d compiled chains, want 1", got)
	}
	if d := maxAbsDiffVec(lazyStep, joint.VecMul(x)); d > 1e-12 {
		t.Fatalf("lazy operator differs from compiled chain by %g", d)
	}
	if fsp.Chain(0) != joint {
		t.Fatalf("Chain(0) recompiled instead of returning the cached CSR")
	}
}

// TestCommandOpErrors: the documented refusals.
func TestCommandOpErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sys := randFactoredSystem(t, rng, false)
	if _, err := sys.CommandOp(-1); err == nil {
		t.Errorf("command -1 accepted")
	}
	if _, err := sys.CommandOp(sys.SP.A()); err == nil {
		t.Errorf("out-of-range command accepted")
	}
	hooked := *sys
	hooked.SPRow = func(p, cmd, r int) mat.Vector { return nil }
	if _, err := hooked.CommandOp(0); err == nil {
		t.Errorf("SPRow-hooked system factored")
	}
	if _, err := EvaluateFactored(sys, nil, mat.NewVector(3), 0.9); err == nil {
		t.Errorf("wrong-length q0 accepted")
	}
}
