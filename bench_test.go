package repro_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/experiments"
	"repro/internal/lp"
	"repro/internal/markov"
	"repro/internal/policy"
	"repro/internal/sim"
)

// reportSolveStats surfaces one solve's work counters and its per-stage
// timing breakdown as benchmark metrics, so BENCH.json records not just how
// long the solve took but where the time went (ftran/btran/price/factor/
// update — see lp.Timings for the stage partition).
func reportSolveStats(b *testing.B, res *core.Result) {
	b.Helper()
	b.ReportMetric(float64(res.LPIterations), "pivots")
	b.ReportMetric(float64(res.LPRefactorizations), "refactors")
	b.ReportMetric(float64(res.LPFactorNNZ), "factor_nnz")
	for _, st := range res.LPTimings.Stages() {
		b.ReportMetric(float64(st.D)/1e6, st.Name+"_ms")
	}
}

// benchExperiment runs one paper-figure experiment per benchmark iteration
// at full (paper-scale) parameters and reports its headline numbers as
// benchmark metrics, so `go test -bench=.` regenerates the entire
// evaluation. Use cmd/dpmbench to print the full tables.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Quick: false, Seed: 1}
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Run(id, cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	// Surface one representative metric per experiment so bench output
	// doubles as a regression record.
	for name, pts := range res.Series {
		min, max := math.Inf(1), math.Inf(-1)
		for _, p := range pts {
			if !p.Feasible {
				continue
			}
			if p.Y < min {
				min = p.Y
			}
			if p.Y > max {
				max = p.Y
			}
		}
		if !math.IsInf(min, 1) {
			b.ReportMetric(min, name+"_min")
			b.ReportMetric(max, name+"_max")
		}
	}
}

// One benchmark per table/figure of the paper's evaluation (DESIGN.md §5).

func BenchmarkTable1(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkFig6(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig8b(b *testing.B)     { benchExperiment(b, "fig8b") }
func BenchmarkFig9a(b *testing.B)     { benchExperiment(b, "fig9a") }
func BenchmarkFig9b(b *testing.B)     { benchExperiment(b, "fig9b") }
func BenchmarkFig10(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig12a(b *testing.B)    { benchExperiment(b, "fig12a") }
func BenchmarkFig12b(b *testing.B)    { benchExperiment(b, "fig12b") }
func BenchmarkFig13a(b *testing.B)    { benchExperiment(b, "fig13a") }
func BenchmarkFig13b(b *testing.B)    { benchExperiment(b, "fig13b") }
func BenchmarkFig14a(b *testing.B)    { benchExperiment(b, "fig14a") }
func BenchmarkFig14b(b *testing.B)    { benchExperiment(b, "fig14b") }
func BenchmarkExampleA2(b *testing.B) { benchExperiment(b, "exampleA2") }

// BenchmarkOptimizeDisk measures the policy-optimization hot path on the
// paper's largest case study (66 states × 5 commands, horizon 10⁶) — the
// computation the paper reports took "less than 1 min" per curve on a
// SUN UltraSPARC.
func BenchmarkOptimizeDisk(b *testing.B) {
	sr := core.TwoStateSR("w", 0.002, 0.3)
	sys := devices.DiskSystem(sr)
	m, err := sys.Build()
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{
		Alpha:            core.HorizonToAlpha(1e6),
		Initial:          core.Delta(m.N, sys.Index(core.State{SP: devices.DiskActive})),
		Objective:        core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		Bounds:           []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: 0.3}},
		UnvisitedCommand: devices.DiskGoActive,
		SkipEvaluation:   true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepDisk measures the full Pareto-curve computation for the
// disk case study — the per-curve cost behind each of the paper's tradeoff
// plots — through the public facade on the parallel warm-started engine.
// Compare with internal/sweep's benchmarks for the sequential/cold grid.
func BenchmarkSweepDisk(b *testing.B) {
	m, opts, bounds := sweepDiskStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := repro.ParallelParetoSweep(context.Background(), m, opts, core.MetricPenalty, lp.LE, bounds, repro.SweepConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			st := repro.ParetoSweepStats(pts)
			b.ReportMetric(float64(st.WarmStarted), "warm/sweep")
			b.ReportMetric(float64(st.Pivots), "pivots/sweep")
			b.ReportMetric(float64(st.Refactorizations), "refactors/sweep")
		}
	}
}

// sweepDiskStudy is BenchmarkSweepDisk's fixture: the disk case study at
// horizon 10⁶ minimizing power, and the 16-point penalty-bound grid 0.05,
// 0.10, …, 0.80 it sweeps.
func sweepDiskStudy(tb testing.TB) (*core.Model, core.Options, []float64) {
	tb.Helper()
	sys := devices.DiskSystem(core.TwoStateSR("w", 0.002, 0.3))
	m, err := sys.Build()
	if err != nil {
		tb.Fatal(err)
	}
	opts := core.Options{
		Alpha:            core.HorizonToAlpha(1e6),
		Initial:          core.Delta(m.N, sys.Index(core.State{SP: devices.DiskActive})),
		Objective:        core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		UnvisitedCommand: devices.DiskGoActive,
		SkipEvaluation:   true,
	}
	bounds := make([]float64, 16)
	for i := range bounds {
		bounds[i] = 0.05 + 0.05*float64(i)
	}
	return m, opts, bounds
}

// TestSweepDiskTrajectoryPin pins the total pivot and LU-rebuild counts of
// BenchmarkSweepDisk's warm curve at one and two workers. The pivots are
// the solver's vertex selection on this grid; a change that moves them
// changed a pivot trajectory, which must be a deliberate, documented
// decision rather than a side effect of a performance change. The
// refactorizations are the work around those pivots: each chunk's LP is
// resident, so a warm point whose basis did not move rebuilds no LU, and a
// count that rises means per-point rebuilding crept back.
func TestSweepDiskTrajectoryPin(t *testing.T) {
	m, opts, bounds := sweepDiskStudy(t)
	for _, tc := range []struct{ workers, pivots, refactors int }{{1, 102, 4}, {2, 201, 8}} {
		pts, err := repro.ParallelParetoSweep(context.Background(), m, opts, core.MetricPenalty, lp.LE, bounds, repro.SweepConfig{Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		st := repro.ParetoSweepStats(pts)
		if st.Pivots != tc.pivots {
			t.Errorf("workers %d: %d pivots per curve, want %d", tc.workers, st.Pivots, tc.pivots)
		}
		if st.Refactorizations != tc.refactors {
			t.Errorf("workers %d: %d refactorizations per curve, want %d", tc.workers, st.Refactorizations, tc.refactors)
		}
	}
}

// TestSolveK5TrajectoryPin pins the slack start of the solve-k5 LP at both
// ends of the benchmark's drops band: pivots, LU rebuilds and the
// objective's bits. It is the one benchmark workload whose LP is wide
// enough (≈4.5k structural columns) for the pricing scans' cost to matter,
// so it is the end-to-end check that a change to how those scans run left
// the entering-column choices, and hence the whole trajectory, untouched.
// core.Optimize starts this LP from the policy-iteration crash instead
// (TestSolveK5CrashPin), so the pin solves core.BuildFrequencyLP's LP with
// its crash cleared and a nil basis.
func TestSolveK5TrajectoryPin(t *testing.T) {
	m, opts := solveK5(t)
	for _, tc := range []struct {
		bound            float64
		pivots, refactor int
		objBits          uint64
	}{
		{0.039, 1527, 15, 0x3fec22d24ce72f92},
		{0.041, 1783, 17, 0x3fec1f015fe462bb},
	} {
		opts.Bounds[0].Value = tc.bound
		sol := slackStart(t, m, opts)
		got := fmt.Sprintf("{%v, %d, %d, %#x}", tc.bound, sol.Iterations, sol.Refactorizations, math.Float64bits(sol.Objective))
		want := fmt.Sprintf("{%v, %d, %d, %#x}", tc.bound, tc.pivots, tc.refactor, tc.objBits)
		if got != want {
			t.Errorf("drops <= %v: got %s, pinned %s", tc.bound, got, want)
		}
	}
}

// TestSolveK5CrashPin pins core.Optimize on the solve-k5 LP at both ends of
// the drops band, where the cold solve starts from the basis of the
// bound-feasible policy that Lagrangian policy iteration finds: pivots, LU
// rebuilds and the objective's bits. The optimum mixes that policy with
// its neighbour across the critical multiplier in one state, so the
// simplex takes one pivot where the slack start takes 1,527–1,783, and the
// objective must equal the slack start's within 1e-9 relative. The crash
// belongs to the LP, so a cold lp solve of core.BuildFrequencyLP's LP must
// start from it and pivot exactly as core.Optimize does.
func TestSolveK5CrashPin(t *testing.T) {
	m, opts := solveK5(t)
	for _, tc := range []struct {
		bound            float64
		pivots, refactor int
		objBits          uint64
	}{
		{0.039, 1, 2, 0x3fec22d24ce72f9d},
		{0.041, 1, 2, 0x3fec1f015fe462af},
	} {
		opts.Bounds[0].Value = tc.bound
		res, err := core.Optimize(m, opts)
		if err != nil {
			t.Fatalf("drops <= %v: %v", tc.bound, err)
		}
		prob, err := core.BuildFrequencyLP(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		sol, _, err := lp.NewSolver().Solve(context.Background(), prob, nil)
		if err != nil {
			t.Fatalf("drops <= %v, lp cold solve: %v", tc.bound, err)
		}
		if !sol.Crashed || sol.Iterations != res.LPIterations || sol.Objective != res.Objective {
			t.Errorf("drops <= %v: lp cold solve crashed %v, %d pivots, objective %.17g; core.Optimize %d pivots, %.17g",
				tc.bound, sol.Crashed, sol.Iterations, sol.Objective, res.LPIterations, res.Objective)
		}
		got := fmt.Sprintf("{%v, %d, %d, %#x}", tc.bound, res.LPIterations, res.LPRefactorizations, math.Float64bits(res.Objective))
		want := fmt.Sprintf("{%v, %d, %d, %#x}", tc.bound, tc.pivots, tc.refactor, tc.objBits)
		if got != want {
			t.Errorf("drops <= %v: got %s, pinned %s", tc.bound, got, want)
		}
		if slack := slackStart(t, m, opts).Objective; math.Abs(res.Objective-slack) > 1e-9*math.Abs(slack) {
			t.Errorf("drops <= %v: crash objective %.17g, slack start %.17g", tc.bound, res.Objective, slack)
		}
	}
}

// slackStart solves the frequency LP of m under opts from the slack basis,
// the cold start core.Optimize makes below lp.AtScaleRows rows.
func slackStart(t *testing.T, m *core.Model, opts core.Options) *lp.Solution {
	t.Helper()
	prob, err := core.BuildFrequencyLP(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	prob.Crash = nil
	sol, _, err := lp.NewSolver().Solve(context.Background(), prob, nil)
	if err != nil {
		t.Fatalf("slack start: %v", err)
	}
	return sol
}

// largeComposite builds the multi-device fixture of the sparse-pipeline
// benchmark: three 3-state mini-disks composed into one CompositeSP
// (Section VII network), a bursty two-state workload and a shared queue —
// 27 joint SP states × 8 joint commands, 270 system states and 2160 LP
// columns at queue capacity 4, 486 states and 3888 columns at capacity 8.
func largeComposite(b *testing.B, queueCap int) (*core.Model, core.Options) {
	b.Helper()
	sys, err := devices.MultiDiskSystem(3, queueCap, core.TwoStateSR("w", 0.05, 0.2))
	if err != nil {
		b.Fatal(err)
	}
	m, err := sys.Build()
	if err != nil {
		b.Fatal(err)
	}
	return m, core.Options{
		Alpha:          core.HorizonToAlpha(1e5),
		Initial:        core.Delta(m.N, 0),
		Objective:      core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		Bounds:         []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: 2}},
		SkipEvaluation: true,
	}
}

// BenchmarkLargeComposite records the sparse end-to-end pipeline (CSR
// compilation + column-sparse revised simplex) on the same 3-disk
// composite policy LP at queue capacities 4 and 8. The full-tableau simplex
// these legs were once measured against is gone; the queue-8 leg stands as
// the demonstration that the size is tractable at all (the tableau took
// minutes there).
func BenchmarkLargeComposite(b *testing.B) {
	b.Run("sparse-q4", func(b *testing.B) {
		m, opts := largeComposite(b, 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Optimize(m, opts)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(res.LPIterations), "pivots")
			}
		}
	})
	b.Run("sparse-q8", func(b *testing.B) {
		m, opts := largeComposite(b, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Optimize(m, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHeterogeneous is the record of the factored Kronecker composite
// pipeline on device networks the dense path cannot represent at all.
//
//   - build-k6: compile a six-component platform (disk+CPU+NIC+disk+NIC+disk,
//     972 joint SP states, queue capacity 4 → 9,720 system states) with
//     single-command-bus masking collapsing the 144-command joint space to 8.
//     The dense enumeration this replaces would materialize 144 matrices of
//     972² floats (~1.1 TB) before masking — the factored build's B/op is
//     the nonzeros it actually keeps, which is why the leg runs ReportAllocs:
//     it is the alloc record that nothing scales with |S_p|² or the unmasked
//     A = Π aᵢ (the compiled Model still tabulates its metrics densely, but
//     only over the masked command set).
//   - solve-k5: an optimize query end to end on the five-component platform
//     (324 joint SP states × 72 joint commands ≈ 2.3·10⁴ state–command pairs
//     before masking, 648 system states × 7 commands after) — power
//     minimization under a drop-rate bound, with the solver work (pivots,
//     basis refactorizations, factor nonzeros) reported next to wall time.
//     The 649-row basis is past the sparse-kernel threshold, so the solver
//     runs the sparse LU + Forrest–Tomlin kernel with Devex pricing. The
//     basis size alone picks the kernel, and there is no dense-LU leg to
//     compare against. B/op is the record of that kernel's storage reuse:
//     every refactorization of the solve factors into one SparseLU.
//   - solve-k6: the same query on the six-component, queue-4 platform
//     (9,720 system states, ~7.8·10⁴ LP columns) — a basis size where the
//     dense m×m kernel is not allocatable in reasonable memory and only the
//     sparse factorizer completes, which is why there is no dense leg.
func BenchmarkHeterogeneous(b *testing.B) {
	b.Run("build-k6", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys, err := devices.HeterogeneousSystem(6, 4, core.TwoStateSR("w", 0.05, 0.2))
			if err != nil {
				b.Fatal(err)
			}
			m, err := sys.Build()
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				nnz := 0
				for _, p := range m.P {
					nnz += p.NNZ()
				}
				b.ReportMetric(float64(m.N), "states")
				b.ReportMetric(float64(m.A), "commands")
				b.ReportMetric(float64(nnz), "nnz")
			}
		}
	})
	b.Run("solve-k5", func(b *testing.B) {
		sys, err := devices.HeterogeneousSystem(5, 0, core.TwoStateSR("w", 0.05, 0.2))
		if err != nil {
			b.Fatal(err)
		}
		m, err := sys.Build()
		if err != nil {
			b.Fatal(err)
		}
		opts := core.Options{
			Alpha:          core.HorizonToAlpha(1e5),
			Initial:        core.Delta(m.N, 0),
			Objective:      core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
			Bounds:         []core.Bound{{Metric: core.MetricDrops, Rel: lp.LE, Value: 0.04}},
			SkipEvaluation: true,
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Optimize(m, opts)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				reportSolveStats(b, res)
			}
		}
	})
	// solve-k5-mon is solve-k5 with a flight recorder attached at the
	// default cadence — the monitor-overhead record. Its ns/op sits next
	// to solve-k5 in BENCH.json, so benchtrend gates the observability
	// layer's cost the same way it gates the solver itself (the monitor
	// determinism tests prove the trajectory is unchanged; this leg
	// proves the walltime is too).
	b.Run("solve-k5-mon", func(b *testing.B) {
		m, opts := solveK5(b)
		mon := &countingMonitor{}
		opts.LPMonitor = mon
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Optimize(m, opts)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				reportSolveStats(b, res)
				b.ReportMetric(float64(mon.events)/float64(b.N), "mon_events")
			}
		}
	})
	b.Run("solve-k6", func(b *testing.B) {
		if testing.Short() {
			b.Skip("skipping in -short mode: ~2 min per iteration")
		}
		sys, err := devices.HeterogeneousSystem(6, 4, core.TwoStateSR("w", 0.05, 0.2))
		if err != nil {
			b.Fatal(err)
		}
		m, err := sys.Build()
		if err != nil {
			b.Fatal(err)
		}
		opts := core.Options{
			Alpha:          core.HorizonToAlpha(1e5),
			Initial:        core.Delta(m.N, 0),
			Objective:      core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
			Bounds:         []core.Bound{{Metric: core.MetricDrops, Rel: lp.LE, Value: 0.04}},
			SkipEvaluation: true,
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Optimize(m, opts)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				reportSolveStats(b, res)
			}
		}
	})
}

// BenchmarkFactoredEval is the record of the matrix-free Kronecker
// evaluation path: stationary analysis plus a 10⁵-slice simulation of the
// heterogeneous platform, entirely against lazy factored operators. The
// factored-k6 and expanded-k6 legs run the identical query on the identical
// system — the only difference is the representation — so their B/op ratio
// is the headline: factored allocations scale with Σᵢ nnz(partᵢ) while the
// expanded leg compiles eight joint CSR chains of ~1.26M total nonzeros
// first. The joint_chains metric proves the factored legs never compiled a
// joint chain, and factored-k8 (87,480 composed states) runs a size the
// expanded build path has no business touching per-iteration.
func BenchmarkFactoredEval(b *testing.B) {
	run := func(b *testing.B, k int, expanded bool) {
		sr := core.TwoStateSR("w", 0.05, 0.2)
		b.ReportAllocs()
		b.ResetTimer()
		var states, chains float64
		for i := 0; i < b.N; i++ {
			sys, err := devices.HeterogeneousSystem(k, 4, sr)
			if err != nil {
				b.Fatal(err)
			}
			fsp := sys.SP.(*core.FactoredSP)
			var (
				ch *markov.Chain
				s  *sim.Simulator
			)
			if expanded {
				m, err := sys.Build()
				if err != nil {
					b.Fatal(err)
				}
				if ch, err = markov.NewCSR(m.P[0], 1e-7); err != nil {
					b.Fatal(err)
				}
				if s, err = sim.New(m, &policy.Constant{}, sim.Config{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			} else {
				op, err := sys.CommandOp(0)
				if err != nil {
					b.Fatal(err)
				}
				if ch, err = markov.NewOp(op, 1e-7); err != nil {
					b.Fatal(err)
				}
				if s, err = sim.NewDirect(sys, &policy.Constant{}, sim.Config{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := ch.StationaryIter(1e-10, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(100000); err != nil {
				b.Fatal(err)
			}
			if !expanded && fsp.CompiledChains() != 0 {
				b.Fatalf("factored leg compiled %d joint chains", fsp.CompiledChains())
			}
			states = float64(sys.NumStates())
			chains = float64(fsp.CompiledChains())
		}
		b.ReportMetric(states, "states")
		b.ReportMetric(chains, "joint_chains")
	}
	b.Run("factored-k6", func(b *testing.B) { run(b, 6, false) })
	b.Run("expanded-k6", func(b *testing.B) { run(b, 6, true) })
	b.Run("factored-k8", func(b *testing.B) { run(b, 8, false) })
}

// BenchmarkComposeDisk measures system compilation (Eq. 4 composition).
func BenchmarkComposeDisk(b *testing.B) {
	sr := core.TwoStateSR("w", 0.002, 0.3)
	sys := devices.DiskSystem(sr)
	for i := 0; i < b.N; i++ {
		if _, err := sys.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// Example of using the public facade end to end; doubles as compile-time
// verification that the re-exported API is usable.
func Example() {
	sys := devices.ExampleSystem()
	m, err := sys.Build()
	if err != nil {
		panic(err)
	}
	res, err := core.Optimize(m, core.Options{
		Alpha:     core.HorizonToAlpha(1e5),
		Initial:   core.Delta(m.N, 0),
		Objective: core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		Bounds:    []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: 0.5}},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("optimal power below always-on: %v\n", res.Objective < 3)
	// Output: optimal power below always-on: true
}
