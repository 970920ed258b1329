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
	"repro/internal/online"
	"repro/internal/trace"
)

// online-drift drives the online adapter on the disk system: one op is one
// Adapter.Observe of 64 slices from a seeded trace.OnOff stream that cycles
// through four (p01, p10) regimes every 3000 slices. Most ops only ingest;
// about one in seventy re-solves after drift, by patching the resident model
// and LP in place and warm-starting the simplex. It runs the same lp/core
// code as sweep-disk through different calls (patches instead of fresh
// assembly), so a change that speeds assembly but slows patching shows here.
const (
	onlineOpsPerSec  = 130000 // nominal op rate; fixes the op count
	onlineBatch      = 64
	onlinePeriod     = 3000 // slices per regime
	onlineSetupOps   = 2    // the first refresh needs MinSlices (100) slices
	onlineCheckEvery = 200  // every 200th refresh is re-solved from scratch
	onlineTraceEvery = 10   // the traced run traces every 10th op
)

// onlineRegimes are the stream's (p01, p10) workloads. The busiest keeps the
// least penalty the disk can reach well under the 1.5 bound even when a
// short estimation window overstates its load, so no refresh is infeasible.
var onlineRegimes = [4][2]float64{{0.05, 0.2}, {0.02, 0.3}, {0.08, 0.2}, {0.03, 0.12}}

// onlineOpts are the options every refresh solves under: minimum power with
// the mean queue at most 1.5 requests, horizon 10⁵.
var onlineOpts = core.Options{
	Alpha:     core.HorizonToAlpha(1e5),
	Objective: core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
	Bounds:    []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: 1.5}},
}

// countStream generates the workload's count stream one regime period at a time.
type countStream struct {
	rng    *rand.Rand
	buf    []int
	period int
}

func (s *countStream) next(n int) []int {
	for len(s.buf) < n {
		r := onlineRegimes[s.period%len(onlineRegimes)]
		s.buf = append(s.buf, trace.OnOff(s.rng, onlinePeriod, r[0], r[1])...)
		s.period++
	}
	out := append([]int(nil), s.buf[:n]...)
	s.buf = s.buf[n:]
	return out
}

func runOnlineDrift(cfg config) (*report, error) {
	ctx := context.Background()
	n := opCount(cfg.seconds, onlineOpsPerSec, 2*onlineSetupOps)
	// The setup batches are the same for every repetition.
	prefix := &countStream{rng: rand.New(rand.NewSource(cfg.seed))}
	batches := make([][]int, onlineSetupOps)
	for i := range batches {
		batches[i] = prefix.next(onlineBatch)
	}
	newAdapter := func() (*mirror, error) {
		mr, err := newMirror(devices.DiskSystem, onlineOpts, online.Config{})
		if err != nil {
			return nil, err
		}
		for _, b := range batches {
			if _, err := mr.ad.Observe(ctx, b); err != nil {
				return nil, err
			}
		}
		if mr.ad.Current() == nil {
			return nil, fmt.Errorf("no policy after %d set-up slices", onlineSetupOps*onlineBatch)
		}
		return mr, nil
	}
	var a *mirror
	setup, err := timeSetup(15, func() (err error) { a, err = newAdapter(); return err })
	if err != nil {
		return nil, err
	}
	rep := &report{setup: setup, lat: make([]time.Duration, 0, n)}

	var ls *layerStats
	var b *mirror // the traced twin of a, fed the same batches
	if cfg.trace {
		ls = newLayerStats()
		if b, err = newAdapter(); err != nil {
			return nil, err
		}
		n = traceOps(n, 2*onlineSetupOps)
	}
	var tally lpTally
	var busy, refreshBusy time.Duration
	refreshes := 0
	limit, start := measureCap(cfg.seconds), time.Now()
	// The stream is generated a chunk at a time, outside the usage measured
	// for the ops.
	const chunk = 4096
	for i := onlineSetupOps; i < n && time.Since(start) <= limit; {
		batches := make([][]int, 0, chunk)
		for len(batches) < chunk && i+len(batches) < n {
			batches = append(batches, prefix.next(onlineBatch))
		}
		var checks usage
		u0 := usageSelf()
		for _, batch := range batches {
			// The traced twin runs the same batch; on every other sampled op it
			// runs first, so neither side always finds the caches warm.
			var tw *twinOp
			twinFirst := b != nil && (i/onlineTraceEvery)%2 == 1
			if twinFirst {
				if tw, err = b.step(ctx, i, batch); err != nil {
					return nil, err
				}
			}
			t0 := time.Now()
			out, err := a.ad.Observe(ctx, batch)
			d := time.Since(t0)
			busy += d
			rep.lat = append(rep.lat, d)
			rep.attempted++
			if err == nil && out.RefreshErr != nil {
				err = fmt.Errorf("refresh: %w", out.RefreshErr)
			}
			if err == nil && out.Refreshed {
				refreshBusy += d
				tally.addResult(out.Result)
				if refreshes++; refreshes%onlineCheckEvery == 0 {
					e0 := usageSelf()
					err = checkRefresh(a.ad, out.Result)
					checks = checks.add(usageSelf().sub(e0))
				}
			}
			if err != nil {
				rep.failed++
				fmt.Fprintf(os.Stderr, "observe %d: %v\n", i, err)
			}
			if b != nil && !twinFirst {
				if tw, err = b.step(ctx, i, batch); err != nil {
					return nil, err
				}
			}
			if tw != nil && out != nil {
				if err := tw.finish(ls, out, d); err != nil {
					return nil, err
				}
			}
			i++
		}
		rep.cost = rep.cost.add(usageSelf().sub(u0).sub(checks))
	}
	rep.opsPerSec = float64(rep.attempted) / busy.Seconds()
	fmt.Printf("# slices_per_s %.6g; %d refreshes, %.4f ms each; %.4f us per ingest-only op\n",
		rep.opsPerSec*onlineBatch, refreshes, ms(refreshBusy)/float64(max(1, refreshes)),
		float64(busy-refreshBusy)/1e3/float64(max(1, rep.attempted-refreshes)))
	if ls == nil {
		return rep, nil
	}
	rep.layers = map[string]metric{}
	ls.metrics(rep.layers)
	tally.metrics(rep.layers, rep.attempted, ls.lpOther, ls.ops)
	a.counters(rep.layers)
	zeroCounters(rep.layers)
	sys := devices.DiskSystem(core.TwoStateSR("w", 0.05, 0.2))
	drift := devices.DiskSystem(core.TwoStateSR("w", 0.1, 0.1))
	if err := probeLayers(sys, drift, a.opts, rep.layers); err != nil {
		return nil, err
	}
	return rep, ls.write(cfg.traceDir, "online-drift", cfg.seed)
}

// twinOp is one op of the traced twin adapter.
type twinOp struct {
	o      *opTrace // nil unless the op is sampled
	out    *online.Outcome
	replay func(*layerStats) error
}

// step feeds op i's batch to the twin, recording spans when op i is
// sampled.
func (mr *mirror) step(ctx context.Context, i int, batch []int) (*twinOp, error) {
	var o *opTrace
	if i%onlineTraceEvery == 0 {
		o = newOp(i)
	}
	out, replay, err := mr.observe(ctx, batch, o, 0)
	if err != nil {
		return nil, fmt.Errorf("traced observe %d: %w", i, err)
	}
	return &twinOp{o, out, replay}, nil
}

// finish replays a sampled refresh, checks that the twin did what the
// measured adapter did (want), and records the op.
func (tw *twinOp) finish(ls *layerStats, want *online.Outcome, untraced time.Duration) error {
	if tw.out.Refreshed != want.Refreshed || tw.out.Pivots != want.Pivots {
		ls.mismatches++
	}
	if tw.replay != nil {
		if err := tw.replay(ls); err != nil {
			return err
		}
	}
	if tw.o != nil {
		ls.add(tw.o, untraced)
	}
	return nil
}

// checkRefresh re-solves the served SR from scratch (fresh model, fresh LP,
// cold simplex) and compares the objective with the adapter's patched,
// warm-started result. The tolerance is 1e-4 relative: about 0.4% of
// refreshes end up to 7e-6 away from the fresh solve (seen over 2000
// checks), while a patching error moves the objective by far more.
func checkRefresh(ad *online.Adapter, got *core.Result) error {
	m, err := devices.DiskSystem(ad.ServedSR()).Build()
	if err != nil {
		return err
	}
	opts := onlineOpts
	opts.SkipEvaluation = true
	ref, err := core.Optimize(m, opts)
	if err != nil {
		return fmt.Errorf("fresh solve: %w", err)
	}
	if !relClose(got.Objective, ref.Objective, 1e-4) {
		return fmt.Errorf("patched refresh objective %g, fresh solve %g", got.Objective, ref.Objective)
	}
	return nil
}

// mirror is an online.Adapter whose rebuild calls are timed by bench code,
// so an Observe can be traced: a span around Observe (online), one around
// the rebuild it calls (core), and for a refresh a replay, call by call,
// from the state the adapter started it in: PatchModel and PatchFrequencyLP
// (core), the warm-started solve (lp, mat) and OptimizeProblemCtx's
// extraction (core).
type mirror struct {
	ad   *online.Adapter
	base func(*core.ServiceRequester) *core.System
	opts core.Options // as the adapter solves: uniform q0, no evaluation

	op      *opTrace // the op being traced, nil otherwise
	parent  int
	lastSys *core.System
}

func newMirror(base func(*core.ServiceRequester) *core.System, opts core.Options, cfg online.Config) (*mirror, error) {
	mr := &mirror{base: base, opts: opts}
	mr.opts.Initial, mr.opts.SkipEvaluation, mr.opts.WarmBasis = nil, true, nil
	var err error
	mr.ad, err = online.New(func(sr *core.ServiceRequester) (*core.System, error) {
		s := mr.op.begin(mr.parent, "online.rebuild", "core")
		mr.lastSys = base(sr)
		mr.op.end(s)
		return mr.lastSys, nil
	}, opts, cfg)
	return mr, err
}

// observe feeds one batch. With o non-nil it records the Observe under
// span parent of o and, when the call refreshed, returns a replay that
// splits the refresh's time among core, lp and mat. Run the replay after
// any timing the op is compared with.
func (mr *mirror) observe(ctx context.Context, counts []int, o *opTrace, parent int) (*online.Outcome, func(*layerStats) error, error) {
	var prevSR *core.ServiceRequester
	var prevBasis *lp.Basis
	if o != nil {
		prevSR = mr.ad.ServedSR()
		if cur := mr.ad.Current(); cur != nil {
			prevBasis = cur.Basis
		}
	}
	s := o.begin(parent, "online.Observe", "online")
	mr.op, mr.parent = o, s
	out, err := mr.ad.Observe(ctx, counts)
	mr.op = nil
	o.end(s)
	if o != nil && parent == 0 {
		o.finish()
	}
	if err != nil || o == nil || !out.Refreshed {
		return out, nil, err
	}
	sys := mr.lastSys
	return out, func(ls *layerStats) error { return mr.replay(o, s, sys, prevSR, prevBasis, out, ls) }, nil
}

func (mr *mirror) replay(o *opTrace, s int, sys *core.System, prevSR *core.ServiceRequester, prevBasis *lp.Basis, out *online.Outcome, ls *layerStats) error {
	var m *core.Model
	var prob *lp.Problem
	var coreTime time.Duration
	if prevSR == nil { // the first refresh compiles and assembles from scratch
		t0 := time.Now()
		var err error
		if m, err = sys.Build(); err != nil {
			return err
		}
		if prob, err = core.BuildFrequencyLP(m, mr.opts); err != nil {
			return err
		}
		coreTime = time.Since(t0)
	} else {
		// The state the adapter began in: its resident model and LP describe
		// the served SR (the patch path rewrites them bit-for-bit as a fresh
		// build would).
		var err error
		if m, err = mr.base(prevSR).Build(); err != nil {
			return err
		}
		if prob, err = core.BuildFrequencyLP(m, mr.opts); err != nil {
			return err
		}
		t0 := time.Now()
		if err := core.PatchModel(m, sys); err != nil {
			return fmt.Errorf("replaying model patch: %w", err)
		}
		if err := core.PatchFrequencyLP(prob, m, mr.opts); err != nil {
			return fmt.Errorf("replaying LP patch: %w", err)
		}
		coreTime = time.Since(t0)
	}
	lpWall, sol, err := ls.replaySolve(prob, prevBasis, out.Pivots)
	if err != nil {
		return err
	}
	opts := mr.opts
	opts.WarmBasis = prevBasis
	extract, err := replayExtract(m, opts, prob, lpWall)
	if err != nil {
		return err
	}
	o.addInner(s, "core", coreTime+extract)
	ls.lpInner(o, s, out.Result.LPTimings, lpWall, sol.Timings)
	return nil
}

// counters adds the adapter's lifetime counters.
func (mr *mirror) counters(into map[string]metric) {
	st := mr.ad.Stats()
	into["online.refreshes"] = metric{float64(st.Refreshes), "count"}
	into["online.drift_refreshes"] = metric{float64(st.DriftRefreshes), "count"}
	into["online.failed_refreshes"] = metric{float64(st.FailedRefreshes), "count"}
	into["online.lp_patched_frac"] = metric{float64(st.LPPatched) / float64(max(1, st.Refreshes)), "frac"}
	into["online.model_patched_frac"] = metric{float64(st.ModelPatched) / float64(max(1, st.Refreshes)), "frac"}
}
