package core_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
)

func patchOpts() core.Options {
	return core.Options{
		Alpha:          core.HorizonToAlpha(1e4),
		Objective:      core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		Bounds:         []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: 1.9}},
		SkipEvaluation: true,
	}
}

func buildDisk(t *testing.T, p01, p10 float64) *core.Model {
	t.Helper()
	m, err := devices.DiskSystem(core.TwoStateSR("w", p01, p10)).Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPatchFrequencyLPMatchesBuild: patching the LP of one SR onto the
// model of a drifted SR must reproduce the freshly built LP bit-for-bit —
// objective, every row's pattern and values, and every RHS.
func TestPatchFrequencyLPMatchesBuild(t *testing.T) {
	opts := patchOpts()
	m1 := buildDisk(t, 0.02, 0.30)
	m2 := buildDisk(t, 0.35, 0.05)

	prob, err := core.BuildFrequencyLP(m1, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.BuildFrequencyLP(m2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.PatchFrequencyLP(prob, m2, opts); err != nil {
		t.Fatalf("PatchFrequencyLP: %v", err)
	}

	if len(prob.Obj) != len(want.Obj) {
		t.Fatalf("objective length %d, want %d", len(prob.Obj), len(want.Obj))
	}
	for j, v := range want.Obj {
		if prob.Obj[j] != v {
			t.Fatalf("objective[%d] = %g, want %g", j, prob.Obj[j], v)
		}
	}
	if len(prob.Cons) != len(want.Cons) {
		t.Fatalf("%d rows, want %d", len(prob.Cons), len(want.Cons))
	}
	for i := range want.Cons {
		got, exp := &prob.Cons[i], &want.Cons[i]
		if got.Rel != exp.Rel || got.RHS != exp.RHS {
			t.Fatalf("row %d: rel/rhs (%v, %g), want (%v, %g)", i, got.Rel, got.RHS, exp.Rel, exp.RHS)
		}
		if len(got.Cols) != len(exp.Cols) {
			t.Fatalf("row %d: %d nonzeros, want %d", i, len(got.Cols), len(exp.Cols))
		}
		for k := range exp.Cols {
			if got.Cols[k] != exp.Cols[k] {
				t.Fatalf("row %d nz %d: column %d, want %d", i, k, got.Cols[k], exp.Cols[k])
			}
			if got.Vals[k] != exp.Vals[k] {
				t.Fatalf("row %d nz %d: value %v, want %v (not bit-identical)", i, k, got.Vals[k], exp.Vals[k])
			}
		}
	}

	// The patched problem must solve to the drifted model's optimum.
	res2, err := core.Optimize(m2, opts)
	if err != nil {
		t.Fatal(err)
	}
	resP, err := core.OptimizeProblemCtx(t.Context(), m2, opts, prob)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.Objective-resP.Objective) > 1e-9 {
		t.Errorf("patched solve objective %g, fresh build %g", resP.Objective, res2.Objective)
	}
}

// TestPatchFrequencyLPPatternChange: an SR probability moving to exactly
// zero removes nonzeros from the balance rows; the patch must refuse with
// ErrPatchPattern rather than silently corrupt the program.
func TestPatchFrequencyLPPatternChange(t *testing.T) {
	opts := patchOpts()
	m1 := buildDisk(t, 0.02, 0.30)
	mZero := buildDisk(t, 0, 0.30) // p01 = 0: the idle→busy entries vanish

	prob, err := core.BuildFrequencyLP(m1, opts)
	if err != nil {
		t.Fatal(err)
	}
	err = core.PatchFrequencyLP(prob, mZero, opts)
	if !errors.Is(err, core.ErrPatchPattern) {
		t.Fatalf("patch onto structurally different SR: err = %v, want ErrPatchPattern", err)
	}
}

// TestPatchFrequencyLPShapeChecks: nil problems, changed bound sets,
// changed senses and changed relations are refused as shape errors.
func TestPatchFrequencyLPShapeChecks(t *testing.T) {
	opts := patchOpts()
	m := buildDisk(t, 0.02, 0.30)
	prob, err := core.BuildFrequencyLP(m, opts)
	if err != nil {
		t.Fatal(err)
	}

	if err := core.PatchFrequencyLP(nil, m, opts); !errors.Is(err, core.ErrPatchShape) {
		t.Errorf("nil problem: err = %v, want ErrPatchShape", err)
	}

	extra := opts
	extra.Bounds = append(append([]core.Bound{}, opts.Bounds...),
		core.Bound{Metric: core.MetricLoss, Rel: lp.LE, Value: 0.1})
	if err := core.PatchFrequencyLP(prob, m, extra); !errors.Is(err, core.ErrPatchShape) {
		t.Errorf("extra bound row: err = %v, want ErrPatchShape", err)
	}

	flipped := opts
	flipped.Objective.Sense = lp.Maximize
	if err := core.PatchFrequencyLP(prob, m, flipped); !errors.Is(err, core.ErrPatchShape) {
		t.Errorf("sense change: err = %v, want ErrPatchShape", err)
	}

	rel := opts
	rel.Bounds = []core.Bound{{Metric: core.MetricPenalty, Rel: lp.GE, Value: 1.9}}
	if err := core.PatchFrequencyLP(prob, m, rel); !errors.Is(err, core.ErrPatchShape) {
		t.Errorf("relation change: err = %v, want ErrPatchShape", err)
	}

	// A successful patch after the refusals proves they left the structure
	// reusable.
	if err := core.PatchFrequencyLP(prob, m, opts); err != nil {
		t.Errorf("patch after refused patches: %v", err)
	}
}

// TestPatchRefreshAllocs bounds what one online refresh of the disk model —
// PatchModel plus PatchFrequencyLP — allocates. Both rewrite in place and
// reuse their row generators' scratch across rows and commands. What is
// left is one allocation per row inside lp.CompressRow's sort (397 rows)
// plus a per-command constant (the transposed chains, the metric
// evaluators): 643 in all, against 1292 before the generators were shared.
// A generator that allocated once more per row would add ~400.
func TestPatchRefreshAllocs(t *testing.T) {
	opts := patchOpts()
	sys1 := devices.DiskSystem(core.TwoStateSR("w", 0.02, 0.30))
	sys2 := devices.DiskSystem(core.TwoStateSR("w", 0.35, 0.05))
	m, err := sys1.Build()
	if err != nil {
		t.Fatal(err)
	}
	prob, err := core.BuildFrequencyLP(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	flip := false
	allocs := testing.AllocsPerRun(20, func() {
		sys := sys1
		if flip = !flip; flip {
			sys = sys2
		}
		if err := core.PatchModel(m, sys); err != nil {
			t.Fatal(err)
		}
		if err := core.PatchFrequencyLP(prob, m, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per refresh of a %d-state, %d-command model", allocs, m.N, m.A)
	if allocs > 700 {
		t.Errorf("one refresh allocates %.0f times, want <= 700", allocs)
	}
}
