package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
)

// finishLog records every solve attempt's finish snapshot.
type finishLog struct{ snaps []lp.Snapshot }

func (f *finishLog) Observe(sn lp.Snapshot) {
	if sn.Event == "finish" {
		f.snaps = append(f.snaps, sn)
	}
}

// trajectory digests a sweep's solver work and answers bit for bit: every
// attempt's finish phase, pivots, refactorizations and objective bits
// (infeasible points included), then every point's feasibility, warm-start
// flag, objective bits and frequency bits. It also returns the work totals.
func trajectory(log *finishLog, points []core.ParetoPoint) (digest string, pivots, refactors int) {
	h := sha256.New()
	bits := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	for _, sn := range log.snaps {
		fmt.Fprintf(h, "%s;%d;%d;", sn.Phase, sn.Pivots, sn.Refactorizations)
		bits(sn.Objective)
		pivots += sn.Pivots
		refactors += sn.Refactorizations
	}
	for _, p := range points {
		fmt.Fprintf(h, "|%g;%v;", p.BoundValue, p.Feasible)
		if !p.Feasible {
			continue
		}
		fmt.Fprintf(h, "%v;", p.Result.WarmStarted)
		bits(p.Objective)
		for _, v := range p.Result.Frequencies.Data {
			bits(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), pivots, refactors
}

// TestColdSweepPin pins ParetoSweepCtx's cold mode on the 20-point disk grid
// of package sweep's tests, whose lowest bounds are infeasible. Cold mode
// runs on the sweep's one resident LP and never carries a basis forward, so
// every point is a fresh solve: the trajectory must equal solving every
// point through OptimizeCtx on its own freshly built LP, and both must equal
// the pinned digest and work totals.
func TestColdSweepPin(t *testing.T) {
	sr := core.TwoStateSR("w", 0.002, 0.3)
	sys := devices.DiskSystem(sr)
	m, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{
		Alpha:            core.HorizonToAlpha(1e6),
		Initial:          core.Delta(m.N, sys.Index(core.State{SP: devices.DiskActive})),
		Objective:        core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		UnvisitedCommand: devices.DiskGoActive,
		SkipEvaluation:   true,
	}
	bounds := make([]float64, 20)
	for i := range bounds {
		bounds[i] = 0.001 * math.Pow(1.55, float64(i))
	}
	ctx := context.Background()

	var sweepLog finishLog
	o := opts
	o.LPMonitor = &sweepLog
	points, err := core.ParetoSweepCtx(ctx, m, o, core.MetricPenalty, lp.LE, bounds, true)
	if err != nil {
		t.Fatal(err)
	}

	var refLog finishLog
	o.LPMonitor = &refLog
	ref := make([]core.ParetoPoint, 0, len(bounds))
	for _, v := range bounds {
		o.Bounds = []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: v}}
		r, err := core.OptimizeCtx(ctx, m, o)
		switch {
		case err == nil:
			ref = append(ref, core.ParetoPoint{BoundValue: v, Feasible: true, Objective: r.Objective, Result: r})
		case errors.Is(err, core.ErrInfeasible):
			ref = append(ref, core.ParetoPoint{BoundValue: v})
		default:
			t.Fatal(err)
		}
	}

	const (
		wantDigest                = "f07e73521afe4f75c40bbda07ed90cc284ba7e27a39309833f989e7b212d45bf"
		wantPivots, wantRefactors = 1619, 72
		wantFeasible              = 14
	)
	feasible := 0
	for _, p := range points {
		if p.Feasible {
			feasible++
		}
	}
	got, pivots, refactors := trajectory(&sweepLog, points)
	want, refPivots, refRefactors := trajectory(&refLog, ref)
	if got != want {
		t.Errorf("cold sweep trajectory %s (%d pivots, %d refactorizations) differs from per-point OptimizeCtx %s (%d, %d)",
			got, pivots, refactors, want, refPivots, refRefactors)
	}
	if got != wantDigest || pivots != wantPivots || refactors != wantRefactors || feasible != wantFeasible {
		t.Errorf("cold sweep: digest %s, %d pivots, %d refactorizations, %d feasible points; pinned %s, %d, %d, %d",
			got, pivots, refactors, feasible, wantDigest, wantPivots, wantRefactors, wantFeasible)
	}
}
