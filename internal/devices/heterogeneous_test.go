package devices

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lp"
)

func TestNICSP(t *testing.T) {
	nic := NICSP("nic")
	if err := nic.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	run := nic.CommandIndex("run")
	// Data-sheet shape: doze wakes in ~2 slices, off in ~25.
	if et, err := nic.ExpectedTransitionTime(1, 0, run); err != nil || math.Abs(et-2) > 1e-9 {
		t.Errorf("doze wake time %g (%v), want 2", et, err)
	}
	if et, err := nic.ExpectedTransitionTime(2, 0, run); err != nil || math.Abs(et-25) > 1e-9 {
		t.Errorf("off wake time %g (%v), want 25", et, err)
	}
}

func TestCPUWakeSP(t *testing.T) {
	sp := CPUWakeSP()
	if err := sp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Commanded wake: sleep reaches active under run in two slices
	// (sleep → t_up → active), where CPUSP's sleep is absorbing.
	if et, err := sp.ExpectedTransitionTime(CPUSleep, CPUActive, CPURun); err != nil || math.Abs(et-2) > 1e-9 {
		t.Errorf("commanded wake time %g (%v), want 2", et, err)
	}
	if _, err := CPUSP().ExpectedTransitionTime(CPUSleep, CPUActive, CPURun); err == nil {
		t.Errorf("CPUSP sleep should be absorbing under run (wake is the system's job)")
	}
}

// TestHeterogeneousSystemMasking: the preset's joint command space is the
// single-command-bus mask over the (subset-restricted) part commands.
func TestHeterogeneousSystemMasking(t *testing.T) {
	sr := core.TwoStateSR("w", 0.05, 0.2)
	for _, tc := range []struct {
		k, wantA, wantSPStates int
	}{
		// k=3: disk(2c) cpu(2c) nic(3c): A = 1 + 1+1+2 = 5.
		{3, 5, 3 * 4 * 3},
		// k=5: + disk(2c) + nic restricted to {run,off}: A = 5 + 1 + 1 = 7.
		{5, 7, 3 * 4 * 3 * 3 * 3},
	} {
		sys, err := HeterogeneousSystem(tc.k, 1, sr)
		if err != nil {
			t.Fatalf("k=%d: %v", tc.k, err)
		}
		sp := sys.SP.(*core.FactoredSP)
		if sp.N() != tc.wantSPStates || sp.A() != tc.wantA {
			t.Errorf("k=%d: joint SP is %d states × %d commands, want %d×%d",
				tc.k, sp.N(), sp.A(), tc.wantSPStates, tc.wantA)
		}
		// Joint command names join the part command names with "+"; each
		// part's command index is recovered from its own vocabulary.
		parts, _ := heterogeneousParts(tc.k)
		doze := NICSP("nic").CommandIndex("doze")
		for a, name := range sp.CommandNames() {
			cmds := strings.Split(name, "+")
			if len(cmds) != tc.k {
				t.Fatalf("k=%d: joint command %q has %d parts", tc.k, name, len(cmds))
			}
			moved := 0
			for i, c := range cmds {
				idx := parts[i].CommandIndex(c)
				if idx < 0 {
					t.Fatalf("k=%d: joint command %q names unknown part-%d command %q", tc.k, name, i, c)
				}
				if idx != 0 {
					moved++
				}
				// The secondary NIC (part 4) must never be commanded to doze.
				if i == 4 && idx == doze {
					t.Errorf("secondary NIC commanded to doze by %q", name)
				}
			}
			if moved > 1 {
				t.Errorf("k=%d: joint command %d %q retargets %d parts", tc.k, a, name, moved)
			}
		}
	}
	if _, err := HeterogeneousSystem(2, 1, sr); err == nil {
		t.Errorf("k=2 accepted")
	}
}

// TestHeterogeneousSolveSmall: the k=3 preset solves an optimize query end
// to end and the optimal policy beats all-on power.
func TestHeterogeneousSolveSmall(t *testing.T) {
	sys, err := HeterogeneousSystem(3, 2, core.TwoStateSR("w", 0.05, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Optimize(m, core.Options{
		Alpha:          core.HorizonToAlpha(1e5),
		Initial:        core.Delta(m.N, 0),
		Objective:      core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		Bounds:         []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: 1.5}},
		SkipEvaluation: true,
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	allOn := 2.5 + 0.3 + 1.4 // disk active + cpu active + nic on
	if res.Objective <= 0 || res.Objective >= allOn {
		t.Errorf("optimal power %g outside (0, %g)", res.Objective, allOn)
	}
	if res.LPIterations <= 0 || res.LPRefactorizations <= 0 {
		t.Errorf("work counters not plumbed: %d pivots, %d refactorizations",
			res.LPIterations, res.LPRefactorizations)
	}
}

// TestMultiDiskScaled: MultiDiskSystem builds (factored, full command
// space) at the k=4–6 scale the dense enumeration could not reach.
func TestMultiDiskScaled(t *testing.T) {
	sr := core.TwoStateSR("w", 0.05, 0.2)
	for _, k := range []int{4, 6} {
		sys, err := MultiDiskSystem(k, 1, sr)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		m, err := sys.Build()
		if err != nil {
			t.Fatalf("k=%d: Build: %v", k, err)
		}
		wantN := 1
		for i := 0; i < k; i++ {
			wantN *= 3
		}
		wantN *= 2 * 2 // SR × queue
		if m.N != wantN || m.A != 1<<k {
			t.Errorf("k=%d: model %d×%d, want %d×%d", k, m.N, m.A, wantN, 1<<k)
		}
		for a := 0; a < m.A; a++ {
			if err := m.P[a].CheckStochastic(1e-9); err != nil {
				t.Fatalf("k=%d command %d: %v", k, a, err)
			}
		}
	}
}
