// Command bench is the repository's end-to-end benchmark. One invocation runs
// one workload in a fresh process:
//
//	bench -workload <name> -seed N -seconds S -trace 0|1 [-daemon dpmserved]
//
// The seed generates the workload's inputs; the program under test sees only
// those inputs. Each workload does a fixed amount of work for a given
// -seconds (its op count is seconds × a nominal rate), so counts such as
// pivots and refreshes repeat exactly between runs of one seed. Correctness
// checks run outside the timed region, and any failed or incorrect op counts
// in "failed".
//
// With -trace 0 the run prints the end-to-end metrics; with -trace 1 it runs
// the same inputs again with spans recorded in bench code around every public
// call into a layer (mat, lp, core, sweep, online, server, http), writes the
// spans and a per-layer table to -trace-dir, and prints the per-layer
// metrics. Either way every metric is printed as "name value unit" and the
// last line of stdout is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// bench/run.sh builds this program and a non-race dpmserved from source and
// runs it; see bench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// config is what one run is asked to do.
type config struct {
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // dpmserved binary; empty serves in process (tests)
	traceDir string
}

// workload is one set of inputs the benchmark can run.
type workload struct {
	name string
	run  func(cfg config) (*report, error)
}

var workloads = []workload{
	{"sweep-disk", runSweepDisk},
	{"solve-k5", runSolveK5},
	{"serve-mixed", runServeMixed},
	{"online-drift", runOnlineDrift},
}

// report is what a workload measured. The untraced run fills setup, lat,
// opsPerSec and cost; the traced run fills layers.
type report struct {
	attempted, failed int
	setup             []time.Duration // one per set-up repetition
	lat               []time.Duration // per-op latency of the timed phase
	opsPerSec         float64
	cost              usage // the program's usage over costOps timed ops
	costOps           int   // 0 means len(lat)
	layers            map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep-disk, solve-k5, serve-mixed or online-drift")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "nominal measuring time; fixes each workload's op count")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	daemon := flag.String("daemon", "", "dpmserved binary driven by serve-mixed")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "directory for the traced run's span files")
	flag.Parse()

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, daemon: *daemon, traceDir: *traceDir}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if cfg.seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive"))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if w.name == "serve-mixed" && !cfg.trace && cfg.daemon == "" {
		fail(fmt.Errorf("serve-mixed needs -daemon"))
	}
	rep, err := w.run(cfg)
	if err != nil {
		fail(fmt.Errorf("%s: %w", w.name, err))
	}
	res := summarize(rep, cfg.trace)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

// summarize turns a report into the printed result: the end-to-end metrics
// for an untraced run, the per-layer metrics for a traced one.
func summarize(rep *report, traced bool) *result {
	res := &result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		res.Metrics = rep.layers
		return res
	}
	q := quantiles(rep.lat)
	fmt.Printf("# ops %d, p90 has %d samples beyond it; setup repeated %d times\n",
		len(rep.lat), len(rep.lat)-int(math.Ceil(0.9*float64(len(rep.lat)))), len(rep.setup))
	res.Metrics["setup_s"] = metric{median(rep.setup).Seconds(), "s"}
	res.Metrics["op_p50_ms"] = metric{ms(q(0.50)), "ms"}
	res.Metrics["op_p90_ms"] = metric{ms(q(0.90)), "ms"}
	res.Metrics["ops_per_s"] = metric{rep.opsPerSec, "1/s"}
	n := rep.costOps
	if n == 0 {
		n = len(rep.lat)
	}
	n = max(1, n)
	res.Metrics["cpu_ms_per_op"] = metric{ms(rep.cost.cpu) / float64(n), "ms"}
	res.Metrics["alloc_kb_per_op"] = metric{float64(rep.cost.alloc) / 1024 / float64(n), "kB"}
	return res
}
