// Command dpmsweep traces a power-performance tradeoff curve (the Pareto
// exploration of paper Section IV-A) by solving the policy-optimization LP
// across a constraint sweep on a bounded worker pool, warm-starting
// consecutive points from each other's optimal simplex basis. Ctrl-C
// cancels an in-flight sweep cleanly.
//
// Usage:
//
//	dpmsweep -device disk -horizon 1e6 -sweep penalty -rel '<=' \
//	         -values 0.02,0.05,0.1,0.2,0.5 -bounds 'loss<=0.05'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/sweep"
)

func main() {
	device := flag.String("device", "example", fmt.Sprintf("device model %v", cli.DeviceNames()))
	horizon := flag.Float64("horizon", 1e5, "expected session length in time slices")
	minimize := flag.String("min", "power", "metric to minimize")
	sweepMetric := flag.String("sweep", "penalty", "metric whose bound is swept")
	rel := flag.String("rel", "<=", "sweep relation: <= or >=")
	values := flag.String("values", "0.1,0.2,0.3,0.5,0.8", "comma-separated sweep bounds")
	bounds := flag.String("bounds", "", "additional fixed constraints, e.g. 'loss<=0.1'")
	p01 := flag.Float64("p01", 0, "workload idle→busy probability (0 = default)")
	p10 := flag.Float64("p10", 0, "workload busy→idle probability (0 = default)")
	workers := flag.Int("workers", 0, "concurrent LP solves (0 = GOMAXPROCS)")
	cold := flag.Bool("cold", false, "disable LP warm-starting between sweep points")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err := func() error {
		// The profile stop/flush must run before exit, and run's error paths
		// must not skip it; only this closure's scope guarantees both.
		stopProfiles, err := cli.StartProfiles(*cpuprofile, *memprofile)
		if err != nil {
			return err
		}
		defer stopProfiles()
		return run(ctx, *device, *horizon, *minimize, *sweepMetric, *rel, *values, *bounds, *p01, *p10,
			sweep.Config{Workers: *workers, Cold: *cold})
	}()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpmsweep: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, device string, horizon float64, minimize, sweepMetric, rel, values, bounds string, p01, p10 float64, cfg sweep.Config) error {
	d, err := cli.NewDevice(device, p01, p10)
	if err != nil {
		return err
	}
	m, err := d.Sys.Build()
	if err != nil {
		return err
	}
	bs, err := cli.ParseBounds(bounds)
	if err != nil {
		return err
	}
	vals, err := cli.ParseFloats(values)
	if err != nil {
		return err
	}
	r, err := cli.ParseRel(rel)
	if err != nil {
		return err
	}

	opts := core.Options{
		Alpha:          core.HorizonToAlpha(horizon),
		Initial:        core.Delta(m.N, d.Sys.Index(d.Initial)),
		Objective:      core.Objective{Metric: minimize, Sense: lp.Minimize},
		Bounds:         bs,
		SkipEvaluation: true,
	}
	pts, err := sweep.Pareto(ctx, m, opts, sweepMetric, r, vals, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("device: %s (%s), horizon %g slices\n", device, d.Desc, horizon)
	fmt.Printf("%-14s %-14s", sweepMetric+" bound", minimize)
	for _, extra := range []string{"penalty", "loss", "service"} {
		if extra != minimize && extra != sweepMetric {
			fmt.Printf(" %-12s", extra)
		}
	}
	fmt.Println()
	for _, p := range pts {
		if !p.Feasible {
			fmt.Printf("%-14g infeasible\n", p.BoundValue)
			continue
		}
		fmt.Printf("%-14g %-14.6g", p.BoundValue, p.Objective)
		for _, extra := range []string{"penalty", "loss", "service"} {
			if extra != minimize && extra != sweepMetric {
				fmt.Printf(" %-12.6g", p.Averages[extra])
			}
		}
		fmt.Println()
	}
	st := sweep.Tally(pts)
	fmt.Printf("solves: %d (%d feasible, %d warm-started, %d simplex pivots)\n",
		st.Points, st.Feasible, st.WarmStarted, st.Pivots)
	return nil
}
