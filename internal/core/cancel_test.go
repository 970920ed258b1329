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
