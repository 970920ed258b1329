package main

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/lp"
)

func rep(entries ...Entry) *Report { return &Report{Benchmarks: entries} }

func entry(name string, ns float64) Entry {
	return Entry{Package: "repro", Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": ns}}
}

func TestCompare(t *testing.T) {
	lim := limits{maxRatio: 2, minNS: 1e6, maxStageRatio: 3, minStageMS: 50}
	old := rep(
		entry("OptimizeDisk", 4e6),
		entry("SweepDisk", 12e6),
		entry("LargeComposite/sparse-q4", 400e6),
		entry("ComposeDisk", 0.2e6), // not headline
	)
	prefixes := []string{"OptimizeDisk", "SweepDisk", "LargeComposite"}

	// Within ratio: no regressions.
	cur := rep(
		entry("OptimizeDisk", 6e6),
		entry("SweepDisk", 11e6),
		entry("LargeComposite/sparse-q4", 500e6),
		entry("ComposeDisk", 5e6), // 25x, but not headline
	)
	if regs, _ := compare(old, cur, prefixes, lim); len(regs) != 0 {
		t.Errorf("unexpected regressions: %v", regs)
	}

	// One headline bench 3x slower: exactly one regression.
	cur = rep(
		entry("OptimizeDisk", 12e6),
		entry("SweepDisk", 11e6),
		entry("LargeComposite/sparse-q4", 500e6),
	)
	regs, _ := compare(old, cur, prefixes, lim)
	if len(regs) != 1 || !strings.Contains(regs[0], "OptimizeDisk") {
		t.Errorf("regressions = %v, want one for OptimizeDisk", regs)
	}

	// A new sub-benchmark with no baseline is a note, not a failure.
	cur = rep(entry("LargeComposite/sparse-q16", 900e6))
	regs, notes := compare(old, cur, prefixes, lim)
	if len(regs) != 0 {
		t.Errorf("missing baseline treated as regression: %v", regs)
	}
	found := false
	for _, n := range notes {
		found = found || strings.Contains(n, "no previous record")
	}
	if !found {
		t.Errorf("missing-baseline note absent: %v", notes)
	}

	// Sub-floor baselines are skipped even when headline-matched.
	old2 := rep(entry("OptimizeDisk", 0.1e6))
	cur = rep(entry("OptimizeDisk", 10e6))
	if regs, _ := compare(old2, cur, prefixes, lim); len(regs) != 0 {
		t.Errorf("sub-floor baseline flagged: %v", regs)
	}
}

// stagedEntry builds an entry with a per-stage solver breakdown.
func stagedEntry(name string, ns, factorMS, priceMS float64) Entry {
	return Entry{Package: "repro", Name: name, Iterations: 1, Metrics: map[string]float64{
		"ns/op":     ns,
		"factor_ms": factorMS,
		"price_ms":  priceMS,
		"ftran_ms":  10, // below the 50ms stage floor: never compared
	}}
}

func TestCompareStages(t *testing.T) {
	lim := limits{maxRatio: 2, minNS: 1e6, maxStageRatio: 3, minStageMS: 50}
	prefixes := []string{"Heterogeneous"}
	old := rep(stagedEntry("Heterogeneous/solve-k5", 300e6, 100, 60))

	// A stage blowing up 5x inside an absorbed total is a regression even
	// though the wall clock stays under its own gate.
	cur := rep(stagedEntry("Heterogeneous/solve-k5", 450e6, 500, 55))
	regs, _ := compare(old, cur, prefixes, lim)
	if len(regs) != 1 || !strings.Contains(regs[0], "factor_ms") {
		t.Errorf("regressions = %v, want one for factor_ms", regs)
	}

	// Stages within ratio (and sub-floor stages at any ratio) pass.
	cur = rep(stagedEntry("Heterogeneous/solve-k5", 320e6, 150, 90))
	if regs, _ := compare(old, cur, prefixes, lim); len(regs) != 0 {
		t.Errorf("unexpected regressions: %v", regs)
	}

	// A stage disappearing from the report is a note, not a failure.
	cur = rep(entry("Heterogeneous/solve-k5", 320e6))
	regs, notes := compare(old, cur, prefixes, lim)
	if len(regs) != 0 {
		t.Errorf("missing stage treated as regression: %v", regs)
	}
	found := false
	for _, n := range notes {
		found = found || strings.Contains(n, "no longer reported")
	}
	if !found {
		t.Errorf("missing-stage note absent: %v", notes)
	}
}

// allocEntry builds a ReportAllocs-shaped entry.
func allocEntry(name string, ns, bytes, allocs float64) Entry {
	return Entry{Package: "repro", Name: name, Iterations: 1, Metrics: map[string]float64{
		"ns/op":     ns,
		"B/op":      bytes,
		"allocs/op": allocs,
	}}
}

func TestCompareAllocs(t *testing.T) {
	lim := limits{maxRatio: 2, minNS: 1e6, maxStageRatio: 3, minStageMS: 50,
		maxAllocRatio: 3, minAllocBytes: 1e6, minAllocs: 1000}
	prefixes := []string{"FactoredEval"}
	old := rep(allocEntry("FactoredEval/factored-k6", 350e6, 1.3e6, 2e4))

	// A B/op blowup (the joint chain got compiled) fails even when the wall
	// clock stays within its own gate.
	cur := rep(allocEntry("FactoredEval/factored-k6", 500e6, 2.1e8, 2.6e5))
	regs, _ := compare(old, cur, prefixes, lim)
	if len(regs) != 2 || !strings.Contains(regs[0], "B/op") || !strings.Contains(regs[1], "allocs/op") {
		t.Errorf("regressions = %v, want B/op and allocs/op", regs)
	}

	// Within ratio: notes only.
	cur = rep(allocEntry("FactoredEval/factored-k6", 360e6, 2.5e6, 3.5e4))
	if regs, _ := compare(old, cur, prefixes, lim); len(regs) != 0 {
		t.Errorf("unexpected regressions: %v", regs)
	}

	// Allocation gates apply below the ns/op noise floor: deterministic
	// counts are meaningful even when timings are noise.
	old2 := rep(allocEntry("FactoredEval/factored-k6", 0.5e6, 2e6, 5e3))
	cur = rep(allocEntry("FactoredEval/factored-k6", 0.6e6, 4e7, 6e3))
	regs, _ = compare(old2, cur, prefixes, lim)
	if len(regs) != 1 || !strings.Contains(regs[0], "B/op") {
		t.Errorf("sub-floor ns/op exempted allocations: regressions = %v", regs)
	}

	// Baselines below the alloc floors are never compared.
	old3 := rep(allocEntry("FactoredEval/factored-k6", 350e6, 5e5, 500))
	cur = rep(allocEntry("FactoredEval/factored-k6", 360e6, 5e6, 5e4))
	if regs, _ := compare(old3, cur, prefixes, lim); len(regs) != 0 {
		t.Errorf("sub-floor alloc baseline flagged: %v", regs)
	}

	// An allocation metric disappearing (ReportAllocs removed) is a note.
	cur = rep(entry("FactoredEval/factored-k6", 360e6))
	regs, notes := compare(old, cur, prefixes, lim)
	if len(regs) != 0 {
		t.Errorf("missing alloc metric treated as regression: %v", regs)
	}
	found := false
	for _, n := range notes {
		found = found || strings.Contains(n, "B/op no longer reported")
	}
	if !found {
		t.Errorf("missing-alloc note absent: %v", notes)
	}
}

// TestDefaultGatesCoverResidentSweeps: under the default flags, a warm
// sweep's allocations stay gated now that a SweepDisk curve allocates
// ~0.65 MB (below the old 1 MB floor), and the Pareto engine benches —
// BenchmarkParetoSequentialWarm records the per-point cost of warm sweep
// points — are headline benches.
func TestDefaultGatesCoverResidentSweeps(t *testing.T) {
	prefixes := strings.Split(defaultBenches, ",")
	old := rep(
		allocEntry("SweepDisk", 4.5e6, 0.65e6, 4000),
		allocEntry("ParetoSequentialWarm", 3e6, 0.9e6, 5000),
	)
	// Per-point LP assembly back: B/op ×5.5 on SweepDisk, ns/op ×2.5 on
	// the sequential warm sweep.
	cur := rep(
		allocEntry("SweepDisk", 6e6, 3.6e6, 11000),
		allocEntry("ParetoSequentialWarm", 7.5e6, 2e6, 9000),
	)
	regs, _ := compare(old, cur, prefixes, defaultLimits)
	var sweepBytes, paretoNS bool
	for _, r := range regs {
		sweepBytes = sweepBytes || strings.HasPrefix(r, "SweepDisk") && strings.Contains(r, "B/op")
		paretoNS = paretoNS || strings.HasPrefix(r, "ParetoSequentialWarm: ")
	}
	if !sweepBytes || !paretoNS {
		t.Errorf("default gates: regressions %v, want SweepDisk B/op and ParetoSequentialWarm ns/op", regs)
	}
}

// TestStageMetricsFollowLP: the stage gate covers exactly lp.Timings'
// stages, in order, under the _ms unit the solve benchmarks report.
func TestStageMetricsFollowLP(t *testing.T) {
	var want []string
	for _, st := range (lp.Timings{}).Stages() {
		want = append(want, st.Name+"_ms")
	}
	if !slices.Equal(stageMetrics, want) {
		t.Errorf("stageMetrics = %q, want %q", stageMetrics, want)
	}
}
