// Command benchtrend compares the current BENCH.json against a previous
// run's artifact and fails (exit 1) when a headline benchmark regressed by
// more than the allowed ratio — the ROADMAP's "fail CI on large regressions
// of the headline benches" checker.
//
// Usage:
//
//	benchtrend -old prev/BENCH.json [-new BENCH.json] [-max-ratio 2] \
//	           [-benches OptimizeDisk,SweepDisk,LargeComposite,Heterogeneous,OnlineRefresh,LoadServed,FactoredEval,Pareto] \
//	           [-min-ns 1e6] [-max-alloc-ratio 3] [-min-alloc-bytes 262144]
//
// Bench names are prefix-matched against the report (so "LargeComposite"
// covers every sub-benchmark, and "Pareto" the sweep engine's
// sequential/parallel × cold/warm grid, whose SequentialWarm entry records
// the per-point overhead of warm sweep points). Benchmarks absent from the old report are
// reported informationally and never fail the check; ns/op values below
// -min-ns are skipped, because single-iteration timings of sub-millisecond
// benches are noise. The 2x default is deliberately loose for the same
// reason — the check is a tripwire for order-of-magnitude mistakes, not a
// statistically careful benchmark gate.
//
// Headline benches that report the per-stage solver breakdown (ftran_ms,
// btran_ms, price_ms, factor_ms, update_ms) are additionally checked stage
// by stage with -max-stage-ratio (default 3, looser than the wall-clock
// gate: a stage is a fraction of the total, so its single-run variance is
// higher). Stages below -min-stage-ms in the old record are skipped. This
// localizes a wall-clock regression to the stage that caused it — and
// catches a stage that blew up inside an otherwise-absorbed total.
//
// Entries that report serving latency quantiles (p50_ms, p90_ms, p99_ms —
// the LoadServed/conc=N records merged by cmd/dpmload) are likewise gated
// quantile by quantile with -max-quantile-ratio (default 2): a tail-latency
// blowup fails CI even when mean ns/op absorbed it. Quantiles below
// -min-quantile-ms in the old record are skipped as noise.
//
// Entries run with ReportAllocs are gated on B/op and allocs/op with
// -max-alloc-ratio (default 3). Allocation counts are deterministic — no
// single-iteration timing noise — so this gate protects results the timing
// gates cannot see: the FactoredEval benches exist to prove evaluation
// allocates ∝ Σ nnz(factorᵢ) instead of compiling the expanded joint chain,
// and an accidental re-expansion would multiply B/op by orders of magnitude
// while barely moving ns/op. Old records below -min-alloc-bytes B/op (or
// -min-allocs allocs/op) are skipped — tiny footprints regress by large
// ratios for harmless reasons. The 256 kB default keeps the warm Pareto
// sweeps gated: with each chunk's LP resident, a SweepDisk curve allocates
// ~0.65 MB, and a return to per-point LP assembly would multiply that.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// Entry and Report mirror cmd/benchjson's output document.
type Entry struct {
	Package    string             `json:"package,omitempty"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the BENCH.json document.
type Report struct {
	Benchmarks []Entry `json:"benchmarks"`
}

// defaultBenches is the -benches default: the headline bench name prefixes.
const defaultBenches = "OptimizeDisk,SweepDisk,LargeComposite,Heterogeneous,OnlineRefresh,LoadServed,FactoredEval,Pareto"

// defaultLimits are the threshold flags' defaults.
var defaultLimits = limits{
	maxRatio:         2,
	minNS:            1e6,
	maxStageRatio:    3,
	minStageMS:       50,
	maxQuantileRatio: 2,
	minQuantileMS:    0.2,
	maxAllocRatio:    3,
	minAllocBytes:    256 << 10,
	minAllocs:        1000,
}

func main() {
	d := defaultLimits
	oldPath := flag.String("old", "", "previous BENCH.json (required)")
	newPath := flag.String("new", "BENCH.json", "current BENCH.json")
	maxRatio := flag.Float64("max-ratio", d.maxRatio, "fail when new/old ns/op exceeds this")
	benches := flag.String("benches", defaultBenches, "comma-separated headline bench name prefixes")
	minNS := flag.Float64("min-ns", d.minNS, "ignore benches whose old ns/op is below this (too noisy at 1 iteration)")
	maxStageRatio := flag.Float64("max-stage-ratio", d.maxStageRatio, "fail when a per-stage solver timing (ftran_ms, …) exceeds this ratio")
	minStageMS := flag.Float64("min-stage-ms", d.minStageMS, "ignore stages whose old value is below this many ms")
	maxQuantileRatio := flag.Float64("max-quantile-ratio", d.maxQuantileRatio, "fail when a serving latency quantile (p50_ms, p90_ms, p99_ms) exceeds this ratio")
	minQuantileMS := flag.Float64("min-quantile-ms", d.minQuantileMS, "ignore quantiles whose old value is below this many ms")
	maxAllocRatio := flag.Float64("max-alloc-ratio", d.maxAllocRatio, "fail when B/op or allocs/op exceeds this ratio")
	minAllocBytes := flag.Float64("min-alloc-bytes", d.minAllocBytes, "ignore B/op gates whose old value is below this many bytes")
	minAllocs := flag.Float64("min-allocs", d.minAllocs, "ignore allocs/op gates whose old value is below this count")
	flag.Parse()
	if *oldPath == "" {
		fmt.Fprintln(os.Stderr, "benchtrend: -old is required")
		os.Exit(2)
	}
	oldRep, err := load(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
		os.Exit(2)
	}
	newRep, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
		os.Exit(2)
	}
	regressions, notes := compare(oldRep, newRep, strings.Split(*benches, ","), limits{
		maxRatio:         *maxRatio,
		minNS:            *minNS,
		maxStageRatio:    *maxStageRatio,
		minStageMS:       *minStageMS,
		maxQuantileRatio: *maxQuantileRatio,
		minQuantileMS:    *minQuantileMS,
		maxAllocRatio:    *maxAllocRatio,
		minAllocBytes:    *minAllocBytes,
		minAllocs:        *minAllocs,
	})
	for _, n := range notes {
		fmt.Println(n)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Printf("REGRESSION: %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Println("benchtrend: no headline regressions")
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

// key disambiguates same-named benchmarks across packages.
func key(e Entry) string { return e.Package + "\x00" + e.Name }

// stageMetrics are the per-stage solver timing units reported by the solve
// benchmarks (see lp.Timings for the stage partition).
var stageMetrics = []string{"ftran_ms", "btran_ms", "price_ms", "factor_ms", "update_ms"}

// quantileMetrics are the serving latency quantiles reported by the
// load-generator entries (see internal/load.Result.BenchEntry).
var quantileMetrics = []string{"p50_ms", "p90_ms", "p99_ms"}

// limits bundles the comparison thresholds.
type limits struct {
	maxRatio         float64 // wall-clock ns/op gate
	minNS            float64 // ns/op noise floor
	maxStageRatio    float64 // per-stage timing gate
	minStageMS       float64 // per-stage noise floor, in ms
	maxQuantileRatio float64 // serving latency quantile gate
	minQuantileMS    float64 // quantile noise floor, in ms
	maxAllocRatio    float64 // B/op and allocs/op gate
	minAllocBytes    float64 // B/op noise floor, in bytes
	minAllocs        float64 // allocs/op noise floor, in allocations
}

// compare returns the regression messages (new/old ns/op > maxRatio, a
// solver stage exceeding maxStageRatio, a latency quantile exceeding
// maxQuantileRatio, or an allocation metric exceeding maxAllocRatio) and
// informational notes for the selected headline benches.
func compare(oldRep, newRep *Report, prefixes []string, lim limits) (regressions, notes []string) {
	old := make(map[string]Entry, len(oldRep.Benchmarks))
	for _, e := range oldRep.Benchmarks {
		old[key(e)] = e
	}
	headline := func(name string) bool {
		for _, p := range prefixes {
			if p = strings.TrimSpace(p); p != "" && strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	for _, e := range newRep.Benchmarks {
		if !headline(e.Name) {
			continue
		}
		cur, ok := e.Metrics["ns/op"]
		if !ok {
			continue
		}
		prev, ok := old[key(e)]
		if !ok {
			notes = append(notes, fmt.Sprintf("benchtrend: %s: no previous record (new benchmark?)", e.Name))
			continue
		}
		// Latency quantiles are gated before the ns/op noise floor applies:
		// a p99 blowup matters even when the mean stays sub-millisecond.
		for _, q := range quantileMetrics {
			qb, ok := prev.Metrics[q]
			if !ok || qb < lim.minQuantileMS {
				continue
			}
			qc, ok := e.Metrics[q]
			if !ok {
				notes = append(notes, fmt.Sprintf("benchtrend: %s: %s no longer reported", e.Name, q))
				continue
			}
			qr := qc / qb
			qmsg := fmt.Sprintf("%s %s: %.3gms -> %.3gms (%.2fx)", e.Name, q, qb, qc, qr)
			if qr > lim.maxQuantileRatio {
				regressions = append(regressions, qmsg)
			} else {
				notes = append(notes, "benchtrend: "+qmsg)
			}
		}
		// Allocation gates run before the ns/op noise floor too: allocation
		// counts are deterministic, so they are meaningful even on benches
		// whose timings are noise.
		for _, am := range []struct {
			metric string
			floor  float64
			unit   string
		}{
			{"B/op", lim.minAllocBytes, "B"},
			{"allocs/op", lim.minAllocs, ""},
		} {
			ab, ok := prev.Metrics[am.metric]
			if !ok || ab < am.floor {
				continue
			}
			ac, ok := e.Metrics[am.metric]
			if !ok {
				notes = append(notes, fmt.Sprintf("benchtrend: %s: %s no longer reported", e.Name, am.metric))
				continue
			}
			ar := ac / ab
			amsg := fmt.Sprintf("%s %s: %.4g%s -> %.4g%s (%.2fx)", e.Name, am.metric, ab, am.unit, ac, am.unit, ar)
			if ar > lim.maxAllocRatio {
				regressions = append(regressions, amsg)
			} else {
				notes = append(notes, "benchtrend: "+amsg)
			}
		}
		base, ok := prev.Metrics["ns/op"]
		if !ok || base <= 0 {
			continue
		}
		if base < lim.minNS {
			notes = append(notes, fmt.Sprintf("benchtrend: %s: skipped (%.3gms below min-ns floor)", e.Name, base/1e6))
			continue
		}
		ratio := cur / base
		msg := fmt.Sprintf("%s: %.3gms -> %.3gms (%.2fx)", e.Name, base/1e6, cur/1e6, ratio)
		if ratio > lim.maxRatio {
			regressions = append(regressions, msg)
		} else {
			notes = append(notes, "benchtrend: "+msg)
		}
		for _, stage := range stageMetrics {
			sb, ok := prev.Metrics[stage]
			if !ok || sb < lim.minStageMS {
				continue
			}
			sc, ok := e.Metrics[stage]
			if !ok {
				notes = append(notes, fmt.Sprintf("benchtrend: %s: %s no longer reported", e.Name, stage))
				continue
			}
			sr := sc / sb
			smsg := fmt.Sprintf("%s %s: %.3gms -> %.3gms (%.2fx)", e.Name, stage, sb, sc, sr)
			if sr > lim.maxStageRatio {
				regressions = append(regressions, smsg)
			} else {
				notes = append(notes, "benchtrend: "+smsg)
			}
		}
	}
	return regressions, notes
}
