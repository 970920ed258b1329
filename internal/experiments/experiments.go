// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI and Appendix B). Each experiment builds its
// system models, runs the optimizer / simulator / heuristics, and returns
// both a printable table and named numeric series that the shape tests and
// EXPERIMENTS.md rely on.
//
// Experiments accept a Config whose Quick mode shrinks horizons and trace
// lengths so the whole catalogue runs in seconds inside `go test`; the full
// mode (used by cmd/dpmbench and the root benchmarks) uses the paper's
// parameters.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/lp"
)

// progressMonitor, when non-nil, rides along on every experiment
// optimization as core.Options.LPMonitor. It is a package-level hook rather
// than a Config field because several experiments solve inside helpers and
// sweep.Map closures that never see the Config; set once before Run
// (dpmbench's -progress flag) and never mutated mid-run.
var progressMonitor lp.Monitor

// SetMonitor attaches a solve flight recorder to every subsequent
// experiment optimization (nil detaches). Monitors are observational only —
// pivot trajectories and results are bit-identical either way — so this
// never changes a reproduced table.
func SetMonitor(m lp.Monitor) { progressMonitor = m }

// withMonitor threads the package monitor into one solve's options.
func withMonitor(o core.Options) core.Options {
	o.LPMonitor = progressMonitor
	return o
}

// Config controls experiment scale.
type Config struct {
	// Quick shrinks horizons, sweep densities and simulation lengths for
	// fast test runs.
	Quick bool
	// Seed drives all synthetic workload generation and simulation.
	Seed int64
}

// Point is one (x, y) sample of a series; infeasible optimization points
// carry Feasible=false and an undefined Y.
type Point struct {
	X, Y     float64
	Feasible bool
}

// Result is the outcome of one experiment.
type Result struct {
	// ID is the experiment identifier ("fig6", "table1", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Table is the printable reproduction of the paper artifact.
	Table *Table
	// Series holds named numeric curves/point sets for shape checks.
	Series map[string][]Point
	// Notes records observations (paper claim vs measured shape).
	Notes []string
	// Solver aggregates the LP work behind the experiment (see SolverTally).
	Solver SolverTally
}

// SolverTally sums the solver work of every optimization an experiment ran,
// including the per-stage wall-clock breakdown, so dpmbench's output records
// not just the reproduced numbers but what producing them cost and where the
// time went. Pivot and refactorization counts are deterministic for a fixed
// Config; the stage timings are a measurement of the machine the run
// happened on.
type SolverTally struct {
	Solves           int
	Pivots           int
	Refactorizations int
	Timings          lp.Timings
}

// TallySolve folds one optimization's solver work into the tally.
func (r *Result) TallySolve(res *core.Result) {
	if res == nil {
		return
	}
	r.Solver.Solves++
	r.Solver.Pivots += res.LPIterations
	r.Solver.Refactorizations += res.LPRefactorizations
	r.Solver.Timings.Add(res.LPTimings)
}

// TallySweep folds every solved point of a Pareto sweep into the tally.
func (r *Result) TallySweep(points []core.ParetoPoint) {
	for _, p := range points {
		r.TallySolve(p.Result)
	}
}

// AddSeries appends a point to the named series.
func (r *Result) AddSeries(name string, p Point) {
	if r.Series == nil {
		r.Series = make(map[string][]Point)
	}
	r.Series[name] = append(r.Series[name], p)
}

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Table is a simple column-aligned text table.
type Table struct {
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(columns ...string) *Table {
	return &Table{Columns: columns}
}

// AddRow appends a row; cells are formatted with %v, floats with %.4g.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			if math.IsInf(v, 1) {
				row[i] = "infeasible"
			} else {
				row[i] = fmt.Sprintf("%.4g", v)
			}
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table with aligned columns.
func (t *Table) Format(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	rule := make([]string, len(t.Columns))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	if err := writeRow(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// Runner is an experiment entry point.
type Runner func(cfg Config) (*Result, error)

// Registry maps experiment ids to runners, in the order of DESIGN.md §5.
var Registry = map[string]Runner{
	"table1":    Table1,
	"fig6":      Fig6,
	"fig8b":     Fig8b,
	"fig9a":     Fig9a,
	"fig9b":     Fig9b,
	"fig10":     Fig10,
	"fig12a":    Fig12a,
	"fig12b":    Fig12b,
	"fig13a":    Fig13a,
	"fig13b":    Fig13b,
	"fig14a":    Fig14a,
	"fig14b":    Fig14b,
	"exampleA2": ExampleA2,
	"factored":  Factored,
}

// IDs returns the registered experiment ids in stable order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the named experiment.
func Run(id string, cfg Config) (*Result, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(cfg)
}

// Render writes a full result (title, table, notes) to w.
func Render(w io.Writer, res *Result) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", res.ID, res.Title); err != nil {
		return err
	}
	if res.Table != nil {
		if err := res.Table.Format(w); err != nil {
			return err
		}
	}
	for _, n := range res.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	if s := res.Solver; s.Solves > 0 {
		line := fmt.Sprintf("solver: %d solves, %d pivots, %d refactorizations;", s.Solves, s.Pivots, s.Refactorizations)
		for _, st := range s.Timings.Stages() {
			line += fmt.Sprintf(" %s %.1fms", st.Name, float64(st.D)/1e6)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
