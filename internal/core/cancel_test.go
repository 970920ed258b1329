package core_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cancelwalk"
	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
	"repro/internal/obs"
)

// TestParetoSweepKeepsCancelCause: a sweep cancelled between points with a
// cause — the way a DELETE of a running solve stops it — returns an error
// matching that cause, not a bare context.Canceled. The monitor cancels on
// the first solve's finish snapshot, so the first point completes and the
// check before the second point sees the cancellation.
func TestParetoSweepKeepsCancelCause(t *testing.T) {
	sys := devices.DiskSystem(core.TwoStateSR("w", 0.002, 0.3))
	m, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("sweep withdrawn")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	opts := core.Options{
		Alpha:          core.HorizonToAlpha(1e6),
		Initial:        core.Delta(m.N, sys.Index(core.State{SP: devices.DiskActive})),
		Objective:      core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		SkipEvaluation: true,
		LPMonitor: lp.MonitorFunc(func(sn lp.Snapshot) {
			if sn.Event == "finish" {
				cancel(cause)
			}
		}),
	}
	_, err = core.ParetoSweepCtx(ctx, m, opts, core.MetricPenalty, lp.LE, []float64{0.5, 1, 1.5}, false)
	if !errors.Is(err, cause) {
		t.Errorf("sweep cancelled with a cause returned %v, want the cause", err)
	}
}

// TestParetoSweepCancellationWalk cancels a two-point disk-preset Pareto
// sweep at each of its context polls in turn: the check before the sweep,
// the check before each point, and the pivot loops of the first point's
// cold solve and the second point's warm resident re-solve. Every
// cancelled sweep must return an error carrying the cause and no points,
// and leave no goroutine behind; the sweep past the last poll must equal
// the uncancelled one bit for bit, solver timings aside. (A cold-mode
// sweep polls at the same sites, only more often.)
func TestParetoSweepCancellationWalk(t *testing.T) {
	sys := devices.DiskSystem(core.TwoStateSR("w", 0.002, 0.3))
	m, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{
		Alpha:          core.HorizonToAlpha(1e6),
		Initial:        core.Delta(m.N, sys.Index(core.State{SP: devices.DiskActive})),
		Objective:      core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		SkipEvaluation: true,
	}
	values := []float64{2, 1.5}
	want, err := core.ParetoSweepCtx(context.Background(), m, opts, core.MetricPenalty, lp.LE, values, false)
	if err != nil {
		t.Fatal(err)
	}
	if !want[1].Result.WarmStarted || want[1].Result.LPIterations == 0 {
		t.Fatalf("second point: warm %v after %d pivots, want a warm start that pivots",
			want[1].Result.WarmStarted, want[1].Result.LPIterations)
	}
	base := runtime.NumGoroutine()
	n := cancelwalk.Walk(func(ctx *cancelwalk.Context) {
		got, err := core.ParetoSweepCtx(ctx, m, opts, core.MetricPenalty, lp.LE, values, false)
		if g := runtime.NumGoroutine(); g > base {
			t.Errorf("%d goroutines after the sweep, %d before", g, base)
		}
		if ctx.Fired() {
			if got != nil || !errors.Is(err, cancelwalk.ErrWalk) {
				t.Errorf("cancelled sweep returned %d points, err %v", len(got), err)
			}
			return
		}
		if err != nil || !reflect.DeepEqual(untimed(got), untimed(want)) {
			t.Errorf("sweep past the last poll differs from the uncancelled one (err %v)", err)
		}
	})
	pivots := want[0].Result.LPIterations + want[1].Result.LPIterations
	if n <= pivots+len(values) {
		t.Errorf("%d polls for %d points and %d pivots", n-1, len(values), pivots)
	}
}

// TestCrashCancellationWalk cancels a cold solve that starts from the
// policy-iteration crash — the solve-k5 LP, 649 rows under one drops bound
// — at each of its context polls in turn: one per policy-iteration round,
// then the pivot loop of the simplex started from the crash basis. Every
// cancelled solve must return Status lp.Cancelled and an error carrying
// the cause, and leave no goroutine behind; the solve past the last poll
// must equal the uncancelled one, solver timings aside.
func TestCrashCancellationWalk(t *testing.T) {
	sys, err := devices.HeterogeneousSystem(5, 0, core.TwoStateSR("w", 0.05, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{
		Alpha:          core.HorizonToAlpha(1e5),
		Initial:        core.Delta(m.N, 0),
		Objective:      core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		Bounds:         []core.Bound{{Metric: core.MetricDrops, Rel: lp.LE, Value: 0.04}},
		SkipEvaluation: true,
	}
	ctx, tr := obs.StartTrace(context.Background(), "crash", "")
	want, err := core.OptimizeCtx(ctx, m, opts)
	if err != nil {
		t.Fatalf("uncancelled solve: %v", err)
	}
	// The crash runs inside the simplex's solve, so its span is a child of
	// the solve span.
	rounds, crashed := -1, false
	for _, sp := range tr.Export().Spans {
		if sp.Name != "solve" {
			continue
		}
		crashed, _ = sp.Attrs["crashed"].(bool)
		for _, c := range sp.Spans {
			if c.Name == "crash" {
				rounds, _ = c.Attrs["rounds"].(int)
			}
		}
	}
	if !crashed {
		t.Fatal("uncancelled solve did not start from the crash basis")
	}
	if rounds <= 0 {
		t.Fatalf("crash span reports %d policy-iteration rounds", rounds)
	}
	base := runtime.NumGoroutine()
	poll := 0
	n := cancelwalk.Walk(func(ctx *cancelwalk.Context) {
		poll++
		got, err := core.OptimizeCtx(ctx, m, opts)
		if g := runtime.NumGoroutine(); g > base {
			t.Errorf("%d goroutines after the solve, %d before", g, base)
		}
		if ctx.Fired() {
			if got == nil || got.Status != lp.Cancelled || !errors.Is(err, cancelwalk.ErrWalk) {
				t.Errorf("poll %d: cancelled solve returned %+v, err %v", poll, got, err)
			}
			// The first polls are policy iteration's: the simplex never
			// started.
			if poll <= rounds && got != nil && got.LPRefactorizations != 0 {
				t.Errorf("poll %d of %d policy-iteration rounds: the simplex ran", poll, rounds)
			}
			return
		}
		one := func(r *core.Result) []core.ParetoPoint { return untimed([]core.ParetoPoint{{Result: r}}) }
		if err != nil || !reflect.DeepEqual(one(got), one(want)) {
			t.Errorf("solve past the last poll differs from the uncancelled one (err %v)", err)
		}
	})
	if n-1 < rounds+want.LPIterations {
		t.Errorf("%d polls for %d policy-iteration rounds and %d pivots", n-1, rounds, want.LPIterations)
	}
}

// untimed returns the sweep's points with the solver's wall-clock timings
// zeroed, the one field two identical sweeps do not share.
func untimed(pts []core.ParetoPoint) []core.ParetoPoint {
	out := slices.Clone(pts)
	for i := range out {
		if r := out[i].Result; r != nil {
			c := *r
			c.LPTimings = lp.Timings{}
			out[i].Result = &c
		}
	}
	return out
}
