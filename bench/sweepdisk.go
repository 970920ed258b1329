package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
	"repro/internal/sweep"
)

// sweep-disk is the paper's own workload: one op is a 16-point penalty-bound
// Pareto curve on the disk study (66 states × 5 commands, horizon 10⁶,
// SR(0.002, 0.3)) through sweep.Pareto at its default worker count. Its LPs
// have 67 rows (dense LU) and take a few warm pivots each, so per-solve fixed
// cost in core and the sweep pool dominate, not pivoting.
const (
	sweepCurvesPerSec = 70 // nominal op rate; fixes the op count
	sweepCheckEvery   = 50 // every 50th curve is re-solved cold and sequentially
	sweepTraceEvery   = 4  // the traced run traces every 4th curve
	sweepPoints       = 16 // bounds 0.05, 0.10, ..., 0.80
	sweepJitter       = 0.02
)

type diskStudy struct {
	sys  *core.System
	m    *core.Model
	opts core.Options
}

func newDiskStudy() (*diskStudy, error) {
	sys := devices.DiskSystem(core.TwoStateSR("w", 0.002, 0.3))
	m, err := sys.Build()
	if err != nil {
		return nil, err
	}
	return &diskStudy{sys: sys, m: m, opts: core.Options{
		Alpha:            core.HorizonToAlpha(1e6),
		Initial:          core.Delta(m.N, sys.Index(core.State{SP: devices.DiskActive})),
		Objective:        core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		UnvisitedCommand: devices.DiskGoActive,
		SkipEvaluation:   true,
	}}, nil
}

// sweepInputs draws n curves: the 0.05-step bound grid, each bound moved by
// a seeded uniform jitter of at most ±0.02 (so bounds stay increasing).
func sweepInputs(seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	curves := make([][]float64, n)
	for i := range curves {
		c := make([]float64, sweepPoints)
		for j := range c {
			c[j] = 0.05*float64(j+1) + sweepJitter*(2*rng.Float64()-1)
		}
		curves[i] = c
	}
	return curves
}

func runSweepDisk(cfg config) (*report, error) {
	ctx := context.Background()
	var st *diskStudy
	setup, err := timeSetup(31, func() (err error) { st, err = newDiskStudy(); return err })
	if err != nil {
		return nil, err
	}
	rep := &report{setup: setup}
	curves := sweepInputs(cfg.seed, opCount(cfg.seconds, sweepCurvesPerSec, 2))
	if cfg.trace {
		curves = curves[:traceOps(len(curves), 2)]
	}
	if _, err := st.pareto(ctx, curves[0], sweep.Config{}); err != nil {
		return nil, fmt.Errorf("warm-up curve: %w", err)
	}

	var ls *layerStats
	if cfg.trace {
		ls = newLayerStats()
	}
	var tally lpTally
	var busy time.Duration
	limit, start := measureCap(cfg.seconds), time.Now()
	for i, bounds := range curves {
		if time.Since(start) > limit {
			break
		}
		// A traced curve is also run through the traced calls: after the
		// measured curve, or before it on every other traced curve, so
		// neither side always finds the caches warm.
		traced := ls != nil && i%sweepTraceEvery == 0
		var tr *sweepTrace
		if traced && (i/sweepTraceEvery)%2 == 1 {
			if tr, err = st.trace(ctx, i, bounds); err != nil {
				return nil, fmt.Errorf("tracing curve %d: %w", i, err)
			}
		}
		u0, t0 := usageSelf(), time.Now()
		pts, err := st.pareto(ctx, bounds, sweep.Config{})
		d := time.Since(t0)
		rep.cost = rep.cost.add(usageSelf().sub(u0))
		busy += d
		rep.lat = append(rep.lat, d)
		rep.attempted++
		if err == nil {
			err = st.check(ctx, pts, bounds, i%sweepCheckEvery == 0)
		}
		if err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "curve %d: %v\n", i, err)
			continue
		}
		for _, p := range pts {
			tally.addResult(p.Result)
		}
		if traced && tr == nil {
			if tr, err = st.trace(ctx, i, bounds); err != nil {
				return nil, fmt.Errorf("tracing curve %d: %w", i, err)
			}
		}
		if traced {
			if err := tr.finish(ls, d, pts); err != nil {
				return nil, fmt.Errorf("tracing curve %d: %w", i, err)
			}
		}
	}
	rep.opsPerSec = float64(rep.attempted) / busy.Seconds()
	if ls == nil {
		return rep, nil
	}
	rep.layers = map[string]metric{}
	ls.metrics(rep.layers)
	tally.metrics(rep.layers, rep.attempted, ls.lpOther, ls.ops)
	zeroCounters(rep.layers)
	probeOpts := st.opts
	probeOpts.Bounds = []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: 0.4}}
	drift := devices.DiskSystem(core.TwoStateSR("w", 0.004, 0.25))
	if err := probeLayers(st.sys, drift, probeOpts, rep.layers); err != nil {
		return nil, err
	}
	return rep, ls.write(cfg.traceDir, "sweep-disk", cfg.seed)
}

func (st *diskStudy) pareto(ctx context.Context, bounds []float64, c sweep.Config) ([]core.ParetoPoint, error) {
	return sweep.Pareto(ctx, st.m, st.opts, core.MetricPenalty, lp.LE, bounds, c)
}

// check verifies a curve: every point feasible and the optimal power
// non-increasing as the penalty bound loosens; with resolve, the curve
// solved again cold and sequentially must match to 1e-8.
func (st *diskStudy) check(ctx context.Context, pts []core.ParetoPoint, bounds []float64, resolve bool) error {
	if len(pts) != len(bounds) {
		return fmt.Errorf("%d points for %d bounds", len(pts), len(bounds))
	}
	for j, p := range pts {
		if !p.Feasible || p.Result == nil {
			return fmt.Errorf("bound %g infeasible", bounds[j])
		}
		if j > 0 && p.Objective > pts[j-1].Objective+1e-9*max(1, pts[j-1].Objective) {
			return fmt.Errorf("power rose from %g to %g as the bound loosened to %g", pts[j-1].Objective, p.Objective, bounds[j])
		}
	}
	if !resolve {
		return nil
	}
	ref, err := st.pareto(ctx, bounds, sweep.Config{Workers: 1, Cold: true})
	if err != nil {
		return fmt.Errorf("cold re-solve: %w", err)
	}
	for j := range pts {
		if !relClose(pts[j].Objective, ref[j].Objective, 1e-8) {
			return fmt.Errorf("bound %g: power %g, cold sequential re-solve %g", bounds[j], pts[j].Objective, ref[j].Objective)
		}
	}
	return nil
}

// sweepTrace is one curve run through the calls sweep.Pareto makes, with
// spans.
type sweepTrace struct {
	o   *opTrace
	pts []tracedPoint
}

type tracedPoint struct {
	prob *lp.Problem
	opts core.Options
	res  *core.Result
	span int
}

// trace runs the curve through the calls sweep.Pareto makes — the same
// contiguous chunks on sweep.Map, each chunk a warm-started sequence of
// core.BuildFrequencyLP and core.OptimizeProblemCtx — with a span around
// each call.
func (st *diskStudy) trace(ctx context.Context, id int, bounds []float64) (*sweepTrace, error) {
	n := len(bounds)
	w := min(runtime.GOMAXPROCS(0), n)
	t := &sweepTrace{o: newOp(id), pts: make([]tracedPoint, n)}
	o := t.o
	sp := o.begin(0, "sweep.Map", "sweep")
	_, err := sweep.Map(ctx, sweep.Config{Workers: w}, w, func(ctx context.Context, c int) (struct{}, error) {
		var warm *lp.Basis
		for j := c * n / w; j < (c+1)*n/w; j++ {
			opts := st.opts
			opts.Bounds = []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: bounds[j]}}
			opts.WarmBasis = warm
			b := o.begin(sp, "core.BuildFrequencyLP", "core")
			prob, err := core.BuildFrequencyLP(st.m, opts)
			o.end(b)
			if err != nil {
				return struct{}{}, err
			}
			s := o.begin(sp, "core.OptimizeProblemCtx", "core")
			res, err := core.OptimizeProblemCtx(ctx, st.m, opts, prob)
			o.end(s)
			if err != nil && !errors.Is(err, core.ErrInfeasible) {
				return struct{}{}, err
			}
			if err == nil {
				warm = res.Basis
				t.pts[j] = tracedPoint{prob, opts, res, s}
			}
		}
		return struct{}{}, nil
	})
	o.end(sp)
	o.finish()
	return t, err
}

// finish replays every solve of the traced curve to split lp glue from
// core's extraction, checks its pivots against the measured curve (want),
// and records the op.
func (t *sweepTrace) finish(ls *layerStats, untraced time.Duration, want []core.ParetoPoint) error {
	for j, p := range t.pts {
		if p.res == nil {
			continue
		}
		if p.res.LPIterations != want[j].Result.LPIterations {
			ls.mismatches++
		}
		lpWall, sol, err := ls.replaySolve(p.prob, p.opts.WarmBasis, p.res.LPIterations)
		if err != nil {
			return err
		}
		ls.lpInner(t.o, p.span, p.res.LPTimings, lpWall, sol.Timings)
	}
	ls.add(t.o, untraced)
	return nil
}
