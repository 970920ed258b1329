package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/mat"
)

// lpTally sums the solver work of a run's ops from the program's own
// reports (core.Result fields, or the server's counters).
type lpTally struct {
	solves, pivots, refactors, warm int
	t                               lp.Timings
}

func (l *lpTally) addResult(res *core.Result) {
	l.solves++
	l.pivots += res.LPIterations
	l.refactors += res.LPRefactorizations
	if res.WarmStarted {
		l.warm++
	}
	l.t.Add(res.LPTimings)
}

// metrics adds the lp metrics per op; other is the solver time outside its
// stages over the traced ops, averaged over tracedOps.
func (l *lpTally) metrics(into map[string]metric, ops int, other time.Duration, tracedOps int) {
	n := float64(max(1, ops))
	into["lp.solves_per_op"] = metric{float64(l.solves) / n, "count"}
	into["lp.pivots_per_op"] = metric{float64(l.pivots) / n, "count"}
	into["lp.refactors_per_op"] = metric{float64(l.refactors) / n, "count"}
	into["lp.warm_frac"] = metric{float64(l.warm) / float64(max(1, l.solves)), "frac"}
	into["lp.ns_per_pivot"] = metric{float64(l.t.Total()) / float64(max(1, l.pivots)), "ns"}
	into["lp.ftran_ms"] = metric{ms(l.t.Ftran) / n, "ms"}
	into["lp.btran_ms"] = metric{ms(l.t.Btran) / n, "ms"}
	into["lp.price_ms"] = metric{ms(l.t.Price) / n, "ms"}
	into["lp.factor_ms"] = metric{ms(l.t.Factor) / n, "ms"}
	into["lp.update_ms"] = metric{ms(l.t.Update) / n, "ms"}
	into["lp.other_ms"] = metric{ms(other) / float64(max(1, tracedOps)), "ms"}
}

// zeroCounters fills the workload-specific counters of layers a workload
// does not use, so every traced run reports the same metric names.
func zeroCounters(into map[string]metric) {
	for _, name := range []string{"online.refreshes", "online.drift_refreshes", "online.failed_refreshes", "server.shared_solves", "server.evictions"} {
		if _, ok := into[name]; !ok {
			into[name] = metric{0, "count"}
		}
	}
	for _, name := range []string{"online.lp_patched_frac", "online.model_patched_frac", "server.hit_frac", "server.warm_frac", "server.cold_frac"} {
		if _, ok := into[name]; !ok {
			into[name] = metric{0, "frac"}
		}
	}
}

// probeReps is how often each probe call repeats; probes report the median.
const probeReps = 7

func medianOf(reps int, f func() error) (time.Duration, error) {
	ds, err := timeSetup(reps, f)
	if err != nil {
		return 0, err
	}
	return median(ds), nil
}

// probeLayers measures core and mat on the workload's own model: sys and
// opts as the workload solves them, drift the same system under another
// workload SR (for the patch calls). The mat probe factors and solves with
// the basis I − αPπᵀ of the optimal policy π, the matrix a policy-iteration
// step or a policy evaluation solves with.
func probeLayers(sys, drift *core.System, opts core.Options, into map[string]metric) error {
	ctx := context.Background()
	var m *core.Model
	d, err := medianOf(probeReps, func() (err error) { m, err = sys.Build(); return err })
	if err != nil {
		return fmt.Errorf("probe build: %w", err)
	}
	into["core.build_model_ms"] = metric{ms(d), "ms"}
	var prob *lp.Problem
	if d, err = medianOf(probeReps, func() (err error) { prob, err = core.BuildFrequencyLP(m, opts); return err }); err != nil {
		return fmt.Errorf("probe build LP: %w", err)
	}
	into["core.build_lp_ms"] = metric{ms(d), "ms"}

	res, err := core.OptimizeProblemCtx(ctx, m, opts, prob)
	if err != nil {
		return fmt.Errorf("probe solve: %w", err)
	}
	// Extraction: OptimizeProblemCtx warm-started at its own optimum (no
	// pivots) minus the same warm solve alone; the median of paired
	// differences.
	warm := opts
	warm.WarmBasis = res.Basis
	var diffs []time.Duration
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		if _, err := core.OptimizeProblemCtx(ctx, m, warm, prob); err != nil {
			return fmt.Errorf("probe optimize: %w", err)
		}
		opc := time.Since(t0)
		solve, _, err := replayLP(prob, res.Basis)
		if err != nil {
			return fmt.Errorf("probe solve: %w", err)
		}
		diffs = append(diffs, opc-solve)
	}
	into["core.extract_ms"] = metric{ms(median(diffs)), "ms"}

	md, err := drift.Build()
	if err != nil {
		return fmt.Errorf("probe drift build: %w", err)
	}
	patched, err := sys.Build()
	if err != nil {
		return err
	}
	flip := false
	if d, err = medianOf(probeReps, func() error {
		flip = !flip
		if flip {
			return core.PatchModel(patched, drift)
		}
		return core.PatchModel(patched, sys)
	}); err != nil {
		return fmt.Errorf("probe patch model: %w", err)
	}
	into["core.patch_model_ms"] = metric{ms(d), "ms"}
	if d, err = medianOf(probeReps, func() error {
		flip = !flip
		if flip {
			return core.PatchFrequencyLP(prob, md, opts)
		}
		return core.PatchFrequencyLP(prob, m, opts)
	}); err != nil {
		return fmt.Errorf("probe patch LP: %w", err)
	}
	into["core.patch_lp_ms"] = metric{ms(d), "ms"}

	return probeMat(m, res.Policy, opts.Alpha, into)
}

// probeMat times the sparse LU kernels on B = I − αPπᵀ. Column j of B is
// row j of I − αPπ.
func probeMat(m *core.Model, pol *core.Policy, alpha float64, into map[string]metric) error {
	n := m.N
	trip := mat.NewTriplet(n, n)
	for s := 0; s < n; s++ {
		trip.Add(s, s, 1)
		dist := pol.CommandDist(s)
		for a := 0; a < m.A; a++ {
			if dist[a] == 0 {
				continue
			}
			cols, vals := m.P[a].RowNZ(s)
			for k, j := range cols {
				trip.Add(s, j, -alpha*dist[a]*vals[k])
			}
		}
	}
	rows := trip.ToCSR()
	var f *mat.SparseLU
	d, err := medianOf(probeReps, func() (err error) { f, err = mat.FactorColumns(n, rows.RowNZ, 0.1); return err })
	if err != nil {
		return fmt.Errorf("probe factor: %w", err)
	}
	into["mat.lu_factor_us"] = metric{float64(d) / 1e3, "us"}
	into["mat.lu_nnz"] = metric{float64(f.NNZ()), "count"}

	const unitSolves = 64
	b, x := mat.NewSpVec(n), mat.NewSpVec(n)
	var ftran, btran time.Duration
	for k := 0; k < unitSolves; k++ {
		j := k * n / unitSolves
		b.Reset()
		b.Set(j, 1)
		t0 := time.Now()
		f.SolveSp(b, x)
		ftran += time.Since(t0)
		b.Reset()
		b.Set(j, 1)
		t0 = time.Now()
		f.SolveTSp(b, x)
		btran += time.Since(t0)
	}
	into["mat.ftran_sp_us"] = metric{float64(ftran) / 1e3 / unitSolves, "us"}
	into["mat.btran_sp_us"] = metric{float64(btran) / 1e3 / unitSolves, "us"}

	const denseSolves = 16
	rhs := mat.NewVector(n)
	for i := range rhs {
		rhs[i] = 1
	}
	t0 := time.Now()
	for k := 0; k < denseSolves; k++ {
		f.Solve(rhs)
	}
	into["mat.ftran_dense_us"] = metric{float64(time.Since(t0)) / 1e3 / denseSolves, "us"}
	return nil
}
