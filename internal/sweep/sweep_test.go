package sweep

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
)

// diskSweep is the fixture shared by the determinism tests and benchmarks:
// the paper's largest case study (Table-I disk, 66 states × 5 commands,
// horizon 10⁶) with a 20-point performance-bound sweep whose lowest values
// are infeasible.
func diskSweep(t testing.TB) (*core.Model, core.Options, []float64) {
	t.Helper()
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
		bounds[i] = 0.001 * math.Pow(1.55, float64(i)) // ~0.001 … ~3.9
	}
	return m, opts, bounds
}

func comparePoints(t *testing.T, label string, got, want []core.ParetoPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.BoundValue != w.BoundValue {
			t.Errorf("%s[%d]: bound %g, want %g (order not deterministic)", label, i, g.BoundValue, w.BoundValue)
		}
		if g.Feasible != w.Feasible {
			t.Errorf("%s[%d]: feasible=%v, want %v", label, i, g.Feasible, w.Feasible)
			continue
		}
		// 1e-8 is the repo-wide objective-parity tolerance (lp and core
		// parity suites): warm and cold solves may stop at different
		// optimal vertices whose objectives agree only to the solver's
		// scale-relative optimality tolerance on stiff discounts.
		if w.Feasible && math.Abs(g.Objective-w.Objective) > 1e-8 {
			t.Errorf("%s[%d]: objective %.15g, want %.15g (Δ=%g)", label, i, g.Objective, w.Objective,
				math.Abs(g.Objective-w.Objective))
		}
	}
}

// TestParetoMatchesSequential is the determinism contract: for any worker
// count, warm or cold, the parallel engine returns the same points in the
// same order with the same values (within the 1e-8 objective-parity
// tolerance) as the sequential core.ParetoSweep path.
func TestParetoMatchesSequential(t *testing.T) {
	m, opts, bounds := diskSweep(t)
	seq, err := core.ParetoSweep(m, opts, core.MetricPenalty, lp.LE, bounds)
	if err != nil {
		t.Fatalf("sequential sweep: %v", err)
	}
	feas := 0
	for _, p := range seq {
		if p.Feasible {
			feas++
		}
	}
	if feas == 0 || feas == len(seq) {
		t.Fatalf("fixture not discriminating: %d/%d feasible", feas, len(seq))
	}

	for _, cfg := range []Config{
		{Workers: 1},
		{Workers: 3},
		{Workers: 8},
		{Workers: 8, Cold: true},
		{Workers: 64}, // more workers than points
	} {
		par, err := Pareto(context.Background(), m, opts, core.MetricPenalty, lp.LE, bounds, cfg)
		if err != nil {
			t.Fatalf("parallel sweep %+v: %v", cfg, err)
		}
		comparePoints(t, "parallel", par, seq)
	}
}

// TestParetoWarmStartsWithinChunks checks that the engine actually reuses
// bases: with one worker every feasible point after the first warm-starts,
// and warm solves pivot less than cold ones in aggregate.
func TestParetoWarmStartsWithinChunks(t *testing.T) {
	m, opts, bounds := diskSweep(t)
	warm, err := Pareto(context.Background(), m, opts, core.MetricPenalty, lp.LE, bounds, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Pareto(context.Background(), m, opts, core.MetricPenalty, lp.LE, bounds, Config{Workers: 1, Cold: true})
	if err != nil {
		t.Fatal(err)
	}
	ws, cs := Tally(warm), Tally(cold)
	if cs.WarmStarted != 0 {
		t.Errorf("cold sweep reports %d warm starts", cs.WarmStarted)
	}
	if ws.WarmStarted == 0 {
		t.Errorf("warm sweep never reused a basis")
	}
	if ws.Pivots >= cs.Pivots {
		t.Errorf("warm sweep pivots %d not below cold %d", ws.Pivots, cs.Pivots)
	}
	t.Logf("pivots: warm %d vs cold %d (%d/%d points warm-started)",
		ws.Pivots, cs.Pivots, ws.WarmStarted, ws.Feasible)
}

func TestParetoCancellation(t *testing.T) {
	m, opts, bounds := diskSweep(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Pareto(ctx, m, opts, core.MetricPenalty, lp.LE, bounds, Config{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep returned %v, want context.Canceled", err)
	}
}

// TestEmptyInputKeepsCancelCause: Map and Pareto with nothing to do under a
// context cancelled with a cause return that cause, as a cancellation
// between work items does.
func TestEmptyInputKeepsCancelCause(t *testing.T) {
	cause := errors.New("sweep withdrawn")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := Map(ctx, Config{}, 0, func(context.Context, int) (int, error) { return 0, nil }); !errors.Is(err, cause) {
		t.Errorf("Map on empty input returned %v, want the cause", err)
	}
	m, opts, _ := diskSweep(t)
	if _, err := Pareto(ctx, m, opts, core.MetricPenalty, lp.LE, nil, Config{}); !errors.Is(err, cause) {
		t.Errorf("Pareto on empty input returned %v, want the cause", err)
	}
}

func TestMapOrderAndBounds(t *testing.T) {
	got, err := Map(context.Background(), Config{Workers: 7}, 100, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if _, err := Map(context.Background(), Config{}, 0, func(_ context.Context, i int) (int, error) {
		t.Error("fn called for empty input")
		return 0, nil
	}); err != nil {
		t.Errorf("empty Map: %v", err)
	}
}

func TestMapErrorCancelsRemainingWork(t *testing.T) {
	// With a single worker execution is strictly sequential, so the cutoff
	// after the failing item is deterministic.
	sentinel := errors.New("boom")
	calls := 0
	_, err := Map(context.Background(), Config{Workers: 1}, 64, func(ctx context.Context, i int) (int, error) {
		calls++
		if i == 5 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 6 {
		t.Errorf("%d items ran, want 6 (work after the error must not run)", calls)
	}

	// Multi-worker: some tagged error must surface, never a bare
	// context.Canceled from the self-inflicted cancellation.
	_, err = Map(context.Background(), Config{Workers: 4}, 64, func(ctx context.Context, i int) (int, error) {
		return 0, sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("multi-worker err = %v, want sentinel", err)
	}
}

// perPointChunk is the reference for the resident chunk worker: every point
// assembled and solved afresh by core.OptimizeCtx, warm-started from the
// previous feasible point's basis — the per-point loop ParetoSweepCtx ran
// before its LP became resident.
func perPointChunk(t *testing.T, m *core.Model, opts core.Options, values []float64) []core.ParetoPoint {
	t.Helper()
	var pts []core.ParetoPoint
	var warm *lp.Basis
	for _, v := range values {
		o := opts
		o.Bounds = []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: v}}
		o.WarmBasis = warm
		res, err := core.OptimizeCtx(context.Background(), m, o)
		switch {
		case err == nil:
			warm = res.Basis
			pts = append(pts, core.ParetoPoint{BoundValue: v, Feasible: true, Objective: res.Objective, Result: res})
		case errors.Is(err, core.ErrInfeasible):
			pts = append(pts, core.ParetoPoint{BoundValue: v, Objective: math.Inf(1)})
		default:
			t.Fatal(err)
		}
	}
	return pts
}

// TestParetoResidentMatchesPerPointSolves: with each chunk's LP resident,
// the sweep is bit-identical to solving every point afresh from the
// previous feasible point's basis — objective, every frequency, pivots,
// warm-start flags and the exported bases — at one, two and three workers,
// on a grid whose lowest bounds are infeasible. Only the LU rebuilds
// drop. Every point's Result and Basis are independent snapshots (the
// server caches both), not views of the resident state.
func TestParetoResidentMatchesPerPointSolves(t *testing.T) {
	m, opts, bounds := diskSweep(t)
	n := len(bounds)
	for _, w := range []int{1, 2, 3} {
		got, err := Pareto(context.Background(), m, opts, core.MetricPenalty, lp.LE, bounds, Config{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		var want []core.ParetoPoint
		for k := 0; k < w; k++ {
			want = append(want, perPointChunk(t, m, opts, bounds[k*n/w:(k+1)*n/w])...)
		}
		seenBasis := map[*lp.Basis]bool{}
		seenFreq := map[*float64]bool{}
		for i := range want {
			g, f := got[i], want[i]
			if g.Feasible != f.Feasible {
				t.Fatalf("workers %d, bound %g: feasible %v, per-point %v", w, bounds[i], g.Feasible, f.Feasible)
			}
			if !g.Feasible {
				continue
			}
			gr, fr := g.Result, f.Result
			if math.Float64bits(g.Objective) != math.Float64bits(f.Objective) ||
				gr.LPIterations != fr.LPIterations || gr.WarmStarted != fr.WarmStarted {
				t.Errorf("workers %d, bound %g: objective %v pivots %d warm %v, per-point %v %d %v",
					w, bounds[i], g.Objective, gr.LPIterations, gr.WarmStarted, f.Objective, fr.LPIterations, fr.WarmStarted)
			}
			for j, y := range fr.Frequencies.Data {
				if math.Float64bits(gr.Frequencies.Data[j]) != math.Float64bits(y) {
					t.Errorf("workers %d, bound %g: frequency %d = %v, per-point %v", w, bounds[i], j, gr.Frequencies.Data[j], y)
					break
				}
			}
			gb, _ := gr.Basis.MarshalBinary()
			fb, _ := fr.Basis.MarshalBinary()
			if string(gb) != string(fb) {
				t.Errorf("workers %d, bound %g: exported basis differs from the per-point solve's", w, bounds[i])
			}
			if seenBasis[gr.Basis] || seenFreq[&gr.Frequencies.Data[0]] {
				t.Errorf("workers %d, bound %g: Result shares its basis or frequencies with another point", w, bounds[i])
			}
			seenBasis[gr.Basis], seenFreq[&gr.Frequencies.Data[0]] = true, true
		}
		if gs, fs := Tally(got), Tally(want); gs.Refactorizations >= fs.Refactorizations {
			t.Errorf("workers %d: %d refactorizations, per-point solves %d: no LU rebuild was saved", w, gs.Refactorizations, fs.Refactorizations)
		}
	}
}
