package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
)

// solve-k5 is the pivot-bound workload: one op is a cold core.Optimize on
// the five-component heterogeneous platform (648 states × 7 commands, 649 LP
// rows), minimizing power under a seeded drops bound. Sparse LU,
// Forrest–Tomlin updates, hyper-sparse FTRAN/BTRAN and Devex pricing do the
// work; core and sweep are negligible.
const (
	k5SolvesPerSec = 3  // nominal op rate; fixes the op count
	k5CheckEvery   = 10 // every 10th policy is evaluated independently
	k5TraceEvery   = 2  // the traced run traces every 2nd solve
	k5BoundLo      = 0.039
	k5BoundHi      = 0.041
)

type k5Study struct {
	sys  *core.System
	m    *core.Model
	opts core.Options
}

func k5System(sr *core.ServiceRequester) (*core.System, error) {
	return devices.HeterogeneousSystem(5, 0, sr)
}

func newK5Study() (*k5Study, error) {
	sys, err := k5System(core.TwoStateSR("w", 0.05, 0.2))
	if err != nil {
		return nil, err
	}
	m, err := sys.Build()
	if err != nil {
		return nil, err
	}
	return &k5Study{sys: sys, m: m, opts: core.Options{
		Alpha:          core.HorizonToAlpha(1e5),
		Initial:        core.Delta(m.N, 0),
		Objective:      core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		SkipEvaluation: true,
	}}, nil
}

// k5Inputs draws n drops bounds stratified over the feasible band
// [0.039, 0.041]: bound i lies in its own 1/n-wide stratum, at a seeded
// position, in a seeded order. Pivot counts vary sharply with the bound, so
// stratifying keeps a run's mix of easy and hard solves alike across seeds.
func k5Inputs(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i, s := range rng.Perm(n) {
		out[i] = k5BoundLo + (k5BoundHi-k5BoundLo)*(float64(s)+rng.Float64())/float64(n)
	}
	return out
}

func (st *k5Study) options(bound float64) core.Options {
	o := st.opts
	o.Bounds = []core.Bound{{Metric: core.MetricDrops, Rel: lp.LE, Value: bound}}
	return o
}

func runSolveK5(cfg config) (*report, error) {
	var st *k5Study
	setup, err := timeSetup(15, func() (err error) { st, err = newK5Study(); return err })
	if err != nil {
		return nil, err
	}
	rep := &report{setup: setup}
	bounds := k5Inputs(cfg.seed, opCount(cfg.seconds, k5SolvesPerSec, 2))
	if cfg.trace {
		bounds = bounds[:traceOps(len(bounds), 2)]
	}
	if _, err := core.Optimize(st.m, st.options(0.04)); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}

	var ls *layerStats
	if cfg.trace {
		ls = newLayerStats()
	}
	var tally lpTally
	var busy time.Duration
	limit, start := measureCap(cfg.seconds), time.Now()
	for i, bound := range bounds {
		if time.Since(start) > limit {
			break
		}
		opts := st.options(bound)
		// A traced solve also runs through the traced calls: after the
		// measured solve, or before it on every other traced solve.
		traced := ls != nil && i%k5TraceEvery == 0
		var tr *k5Trace
		if traced && (i/k5TraceEvery)%2 == 1 {
			if tr, err = st.trace(i, opts); err != nil {
				return nil, fmt.Errorf("tracing solve %d: %w", i, err)
			}
		}
		u0, t0 := usageSelf(), time.Now()
		res, err := core.Optimize(st.m, opts)
		d := time.Since(t0)
		rep.cost = rep.cost.add(usageSelf().sub(u0))
		busy += d
		rep.lat = append(rep.lat, d)
		rep.attempted++
		if err == nil {
			err = st.check(res, opts, i%k5CheckEvery == 0)
		}
		if err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "solve %d (drops <= %g): %v\n", i, bound, err)
			continue
		}
		tally.addResult(res)
		if traced && tr == nil {
			if tr, err = st.trace(i, opts); err != nil {
				return nil, fmt.Errorf("tracing solve %d: %w", i, err)
			}
		}
		if traced {
			if err := tr.finish(ls, d, res.LPIterations); err != nil {
				return nil, fmt.Errorf("tracing solve %d: %w", i, err)
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
	drift, err := k5System(core.TwoStateSR("w", 0.08, 0.15))
	if err != nil {
		return nil, err
	}
	if err := probeLayers(st.sys, drift, st.options(0.04), rep.layers); err != nil {
		return nil, err
	}
	return rep, ls.write(cfg.traceDir, "solve-k5", cfg.seed)
}

// check verifies one solve: optimal, the drops bound met within 1e-9, and
// with evaluate, the extracted policy's power under an exact evaluation of
// its Markov chain within 1e-6 of the LP objective.
func (st *k5Study) check(res *core.Result, opts core.Options, evaluate bool) error {
	if res.Status != lp.Optimal {
		return fmt.Errorf("status %v", res.Status)
	}
	bound := opts.Bounds[0].Value
	if drops := res.Averages[core.MetricDrops]; drops > bound+1e-9 {
		return fmt.Errorf("drops %g above bound %g", drops, bound)
	}
	if !evaluate {
		return nil
	}
	ev, err := core.Evaluate(st.m, res.Policy, opts.Initial, opts.Alpha)
	if err != nil {
		return fmt.Errorf("evaluating policy: %w", err)
	}
	if p := ev.Average(core.MetricPower); !relClose(p, res.Objective, 1e-6) {
		return fmt.Errorf("evaluated power %g, LP objective %g", p, res.Objective)
	}
	return nil
}

// k5Trace is one solve run through the calls core.Optimize makes, with
// spans.
type k5Trace struct {
	o    *opTrace
	prob *lp.Problem
	res  *core.Result
	span int
}

// trace runs the solve through the calls core.Optimize makes —
// core.BuildFrequencyLP, then core.OptimizeProblemCtx — with a span around
// each.
func (st *k5Study) trace(id int, opts core.Options) (*k5Trace, error) {
	o := newOp(id)
	b := o.begin(0, "core.BuildFrequencyLP", "core")
	prob, err := core.BuildFrequencyLP(st.m, opts)
	o.end(b)
	if err != nil {
		return nil, err
	}
	s := o.begin(0, "core.OptimizeProblemCtx", "core")
	res, err := core.OptimizeProblemCtx(context.Background(), st.m, opts, prob)
	o.end(s)
	o.finish()
	if err != nil {
		return nil, err
	}
	return &k5Trace{o, prob, res, s}, nil
}

// finish replays the solve to split lp glue from core's extraction, checks
// its pivots against the measured solve's, and records the op.
func (t *k5Trace) finish(ls *layerStats, untraced time.Duration, pivots int) error {
	if t.res.LPIterations != pivots {
		ls.mismatches++
	}
	lpWall, sol, err := ls.replaySolve(t.prob, nil, t.res.LPIterations)
	if err != nil {
		return err
	}
	ls.lpInner(t.o, t.span, t.res.LPTimings, lpWall, sol.Timings)
	ls.add(t.o, untraced)
	return nil
}
