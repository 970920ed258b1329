// Command dpmopt computes an optimal power-management policy for a named
// device, reproducing the optimization path of the paper's tool (Fig. 7):
// system model → LP over state-action frequencies → policy matrix.
//
// Usage:
//
//	dpmopt -device disk -horizon 1e6 -min power \
//	       -bounds 'penalty<=0.3,loss<=0.05' [-p01 0.002 -p10 0.3]
//
// The policy matrix (one row per composed system state, one column per
// power-manager command) and all expected per-slice metrics are printed.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/lp"
)

func main() {
	device := flag.String("device", "example", fmt.Sprintf("device model %v", cli.DeviceNames()))
	horizon := flag.Float64("horizon", 1e5, "expected session length in time slices (sets the discount factor)")
	minimize := flag.String("min", "power", "metric to minimize (power, penalty, loss, drops; prefix with 'max:' to maximize)")
	bounds := flag.String("bounds", "", "comma-separated constraints, e.g. 'penalty<=0.5,loss<=0.2'")
	p01 := flag.Float64("p01", 0, "workload idle→busy probability per slice (0 = device default)")
	p10 := flag.Float64("p10", 0, "workload busy→idle probability per slice (0 = device default)")
	maxPivots := flag.Int("max-pivots", 0, "simplex pivot budget (0 = unlimited)")
	progress := flag.Bool("progress", false, "print live solve progress snapshots to stderr")
	flag.Parse()

	if err := run(*device, *horizon, *minimize, *bounds, *p01, *p10, *maxPivots, *progress); err != nil {
		fmt.Fprintf(os.Stderr, "dpmopt: %v\n", err)
		os.Exit(1)
	}
}

func run(device string, horizon float64, minimize, bounds string, p01, p10 float64, maxPivots int, progress bool) error {
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
	obj := core.Objective{Metric: minimize, Sense: lp.Minimize}
	if rest, ok := cutPrefix(minimize, "max:"); ok {
		obj = core.Objective{Metric: rest, Sense: lp.Maximize}
	}

	opts := core.Options{
		Alpha:       core.HorizonToAlpha(horizon),
		Initial:     core.Delta(m.N, d.Sys.Index(d.Initial)),
		Objective:   obj,
		Bounds:      bs,
		LPMaxPivots: maxPivots,
	}
	if progress {
		opts.LPMonitor = cli.ProgressMonitor(os.Stderr, 0)
	}
	res, err := core.Optimize(m, opts)
	if err != nil {
		return err
	}

	fmt.Printf("device:   %s (%s)\n", device, d.Desc)
	fmt.Printf("states:   %d × %d commands, horizon %g slices\n", m.N, m.A, horizon)
	fmt.Printf("optimal %s: %g\n", obj.Metric, res.Objective)
	fmt.Println("expected per-slice metrics:")
	cli.PrintAverages(os.Stdout, res.Averages)
	if rs := res.Policy.RandomizedStates(1e-6); len(rs) > 0 {
		names := make([]string, len(rs))
		for i, s := range rs {
			names[i] = d.Sys.StateName(s)
		}
		fmt.Printf("randomized decisions in %d state(s): %v\n", len(rs), names)
	} else {
		fmt.Println("policy is deterministic (no constraint active, Theorem A.2)")
	}
	fmt.Println()
	return cli.PrintPolicy(os.Stdout, d.Sys, res)
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return s, false
}
