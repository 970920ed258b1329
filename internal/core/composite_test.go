package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/lp"
	"repro/internal/mat"
)

// randStochastic returns an n×n row-stochastic matrix with small out-degree
// (2 draws per row), mirroring the sparse chains real device models have.
func randStochastic(rng *rand.Rand, n int) *mat.Matrix {
	m := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		p := 0.2 + 0.6*rng.Float64()
		m.Add(i, rng.Intn(n), p)
		m.Add(i, rng.Intn(n), 1-p)
	}
	return m
}

// randPart builds a random but valid service provider.
func randPart(rng *rand.Rand, name string) *ServiceProvider {
	n := 2 + rng.Intn(3)
	a := 2 + rng.Intn(2)
	states := make([]string, n)
	for i := range states {
		states[i] = name + "s" + string(rune('0'+i))
	}
	cmds := make([]string, a)
	for i := range cmds {
		cmds[i] = name + "c" + string(rune('0'+i))
	}
	ps := make([]*mat.Matrix, a)
	for i := range ps {
		ps[i] = randStochastic(rng, n)
	}
	rate := mat.NewMatrix(n, a)
	power := mat.NewMatrix(n, a)
	for s := 0; s < n; s++ {
		for c := 0; c < a; c++ {
			rate.Set(s, c, rng.Float64())
			power.Set(s, c, 3*rng.Float64())
		}
	}
	return &ServiceProvider{
		Name: name, States: states, Commands: cmds,
		P: ps, ServiceRate: rate, Power: power,
	}
}

// parallelRate is the saturating parallel-server combiner used across the
// composite tests.
func parallelRate(parts []*ServiceProvider) func(states, cmds []int) float64 {
	return func(states, cmds []int) float64 {
		miss := 1.0
		for i := range states {
			miss *= 1 - parts[i].ServiceRate.At(states[i], cmds[i])
		}
		return 1 - miss
	}
}

// TestCompositeParityRandomized: the factored Kronecker Build must agree
// with the legacy dense CompositeSP on everything observable — vocabularies,
// transition rows, power, rate — and the two compiled systems must optimize
// to the same objective, on a corpus of random 2–3 part composites.
func TestCompositeParityRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 15; trial++ {
		k := 2 + rng.Intn(2)
		parts := make([]*ServiceProvider, k)
		for i := range parts {
			parts[i] = randPart(rng, string(rune('a'+i)))
		}
		rate := parallelRate(parts)

		dense, err := CompositeSP("comp", parts, rate)
		if err != nil {
			t.Fatalf("trial %d: CompositeSP: %v", trial, err)
		}
		fact, err := (&Composite{Name: "comp", Parts: parts, Rate: rate}).Build()
		if err != nil {
			t.Fatalf("trial %d: Composite.Build: %v", trial, err)
		}

		if fact.N() != dense.N() || fact.A() != dense.A() {
			t.Fatalf("trial %d: factored %d×%d vs dense %d×%d", trial, fact.N(), fact.A(), dense.N(), dense.A())
		}
		for s, name := range dense.States {
			if fact.StateNames()[s] != name {
				t.Fatalf("trial %d: state %d named %q vs %q", trial, s, fact.StateNames()[s], name)
			}
		}
		for a, name := range dense.Commands {
			if fact.CommandNames()[a] != name {
				t.Fatalf("trial %d: command %d named %q vs %q", trial, a, fact.CommandNames()[a], name)
			}
		}
		for a := 0; a < dense.A(); a++ {
			if d := fact.Chain(a).MaxAbsDiff(mat.FromDense(dense.P[a])); d > 1e-12 {
				t.Fatalf("trial %d: chain %d differs by %g", trial, a, d)
			}
			for s := 0; s < dense.N(); s++ {
				if got, want := fact.PowerAt(s, a), dense.Power.At(s, a); !close8(got, want) {
					t.Fatalf("trial %d: power(%d,%d) = %g, want %g", trial, s, a, got, want)
				}
				if got, want := fact.RateAt(s, a), dense.ServiceRate.At(s, a); !close8(got, want) {
					t.Fatalf("trial %d: rate(%d,%d) = %g, want %g", trial, s, a, got, want)
				}
			}
		}

		// End to end: same composed model, same optimal objective.
		sr := TwoStateSR("w", 0.1, 0.3)
		opts := Options{
			Alpha:          0.995,
			Objective:      Objective{Metric: MetricPower, Sense: lp.Minimize},
			Bounds:         []Bound{{Metric: MetricPenalty, Rel: lp.LE, Value: 1.2}},
			SkipEvaluation: true,
		}
		objs := make([]float64, 2)
		for v, sp := range []Provider{dense, fact} {
			sys := &System{Name: "par", SP: sp, SR: sr, QueueCap: 2}
			model, err := sys.Build()
			if err != nil {
				t.Fatalf("trial %d: Build(%d): %v", trial, v, err)
			}
			res, err := Optimize(model, opts)
			if err != nil {
				// Infeasible bounds are a property of the instance, not of
				// the representation: both variants must agree.
				objs[v] = -1
				continue
			}
			objs[v] = res.Objective
		}
		if diff := objs[0] - objs[1]; diff > 1e-8 || diff < -1e-8 {
			t.Fatalf("trial %d: dense objective %g vs factored %g", trial, objs[0], objs[1])
		}
	}
}

func close8(a, b float64) bool {
	d := a - b
	return d < 1e-8 && d > -1e-8
}

// TestCompositeModelParity: the compiled *system* models (chains and metric
// tables, not just the providers) must be identical between the dense and
// factored representations.
func TestCompositeModelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := []*ServiceProvider{randPart(rng, "x"), randPart(rng, "y")}
	rate := parallelRate(parts)
	dense, err := CompositeSP("m", parts, rate)
	if err != nil {
		t.Fatal(err)
	}
	fact, err := (&Composite{Name: "m", Parts: parts, Rate: rate}).Build()
	if err != nil {
		t.Fatal(err)
	}
	sr := TwoStateSR("w", 0.2, 0.4)
	md, err := (&System{Name: "d", SP: dense, SR: sr, QueueCap: 3}).Build()
	if err != nil {
		t.Fatal(err)
	}
	mf, err := (&System{Name: "f", SP: fact, SR: sr, QueueCap: 3}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if md.N != mf.N || md.A != mf.A {
		t.Fatalf("models %d×%d vs %d×%d", md.N, md.A, mf.N, mf.A)
	}
	for a := 0; a < md.A; a++ {
		if d := md.P[a].MaxAbsDiff(mf.P[a]); d > 1e-12 {
			t.Errorf("composed chain %d differs by %g", a, d)
		}
	}
	for name, td := range md.Metrics {
		if d := td.MaxAbsDiff(mf.Metrics[name]); d > 1e-12 {
			t.Errorf("metric %q differs by %g", name, d)
		}
	}
}

// TestCompositeMasking: per-part subsets and the joint predicate prune the
// compiled command space, and the surviving commands keep their original
// per-part indices and names.
func TestCompositeMasking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	parts := []*ServiceProvider{randPart(rng, "a"), randPart(rng, "b"), randPart(rng, "c")}
	rate := parallelRate(parts)

	// Joint predicate: at most one part off its first command.
	atMostOne := func(cmds []int) bool {
		n := 0
		for _, c := range cmds {
			if c != 0 {
				n++
			}
		}
		return n <= 1
	}
	f, err := (&Composite{Name: "masked", Parts: parts, Rate: rate, Allow: atMostOne, AllowTag: "one/v1"}).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	want := 1
	for _, p := range parts {
		want += p.A() - 1
	}
	if f.A() != want {
		t.Fatalf("masked command count %d, want %d", f.A(), want)
	}
	for a := 0; a < f.A(); a++ {
		if !atMostOne(f.cmdIdx[a]) {
			t.Errorf("command %d (%s) violates the mask", a, f.CommandNames()[a])
		}
	}

	// Per-part subset: part 1 pinned to command 0 only.
	sub := make([][]int, len(parts))
	sub[1] = []int{0}
	f2, err := (&Composite{Name: "sub", Parts: parts, Rate: rate, PartCommands: sub}).Build()
	if err != nil {
		t.Fatalf("Build with subset: %v", err)
	}
	if got, want := f2.A(), parts[0].A()*parts[2].A(); got != want {
		t.Fatalf("subset command count %d, want %d", got, want)
	}
	for a := 0; a < f2.A(); a++ {
		if f2.cmdIdx[a][1] != 0 {
			t.Errorf("command %d uses part-1 command %d, want 0", a, f2.cmdIdx[a][1])
		}
	}
}

// TestCompositeMaskErrors: the documented error paths of command masking.
func TestCompositeMaskErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	parts := []*ServiceProvider{randPart(rng, "a"), randPart(rng, "b")}
	rate := parallelRate(parts)

	cases := map[string]struct {
		c    Composite
		want string
	}{
		"empty mask for one part": {
			Composite{Name: "m", Parts: parts, Rate: rate, PartCommands: [][]int{nil, {}}},
			"excludes every command of part 1",
		},
		"mask excluding every joint command": {
			Composite{Name: "m", Parts: parts, Rate: rate, Allow: func([]int) bool { return false }},
			"excludes every joint command",
		},
		"out-of-range command index": {
			Composite{Name: "m", Parts: parts, Rate: rate, PartCommands: [][]int{{0, 99}, nil}},
			"no command 99",
		},
		"repeated command index": {
			Composite{Name: "m", Parts: parts, Rate: rate, PartCommands: [][]int{{0, 0}, nil}},
			"repeated",
		},
		"subset count mismatch": {
			Composite{Name: "m", Parts: parts, Rate: rate, PartCommands: [][]int{nil}},
			"1 command subsets for 2 parts",
		},
		"no parts": {
			Composite{Name: "m", Rate: rate},
			"at least one part",
		},
		"no combiner": {
			Composite{Name: "m", Parts: parts},
			"service-rate combiner",
		},
	}
	for name, tc := range cases {
		_, err := tc.c.Build()
		if err == nil {
			t.Errorf("%s: no error", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// TestCompositeRateValidation: a combiner escaping [0,1] fails the build
// with the offending state and command named.
func TestCompositeRateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	parts := []*ServiceProvider{randPart(rng, "a")}
	_, err := (&Composite{Name: "bad", Parts: parts, Rate: func([]int, []int) float64 { return 1.5 }}).Build()
	if err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
		t.Fatalf("rate 1.5 accepted: %v", err)
	}
}

// TestFactoredFingerprint: factored providers fingerprint through the
// system exactly like dense ones — deterministic, sensitive to the mask,
// and refusing untagged closures.
func TestFactoredFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	parts := []*ServiceProvider{randPart(rng, "a"), randPart(rng, "b")}
	rate := parallelRate(parts)
	sys := func(c Composite) *System {
		f, err := c.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return &System{Name: "s", SP: f, SR: TwoStateSR("w", 0.1, 0.2), QueueCap: 1}
	}

	base := Composite{Name: "c", Parts: parts, Rate: rate, RateTag: "par/v1"}
	a1, err := sys(base).Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	a2, err := sys(base).Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	if a1 != a2 {
		t.Errorf("identical factored systems fingerprint differently")
	}

	masked := base
	masked.PartCommands = [][]int{{0}, nil}
	if b, err := sys(masked).Fingerprint(); err != nil {
		t.Errorf("masked fingerprint: %v", err)
	} else if b == a1 {
		t.Errorf("command mask did not move the fingerprint")
	}

	untagged := Composite{Name: "c", Parts: parts, Rate: rate}
	if _, err := sys(untagged).Fingerprint(); err == nil || !strings.Contains(err.Error(), "RateTag") {
		t.Errorf("untagged rate combiner fingerprinted: %v", err)
	}
	noAllowTag := base
	noAllowTag.Allow = func(cmds []int) bool { return cmds[0] == 0 }
	if _, err := sys(noAllowTag).Fingerprint(); err == nil || !strings.Contains(err.Error(), "AllowTag") {
		t.Errorf("untagged mask predicate fingerprinted: %v", err)
	}
}
