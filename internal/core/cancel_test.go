package core_test

import (
	"context"
	"errors"
	"testing"

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
