package core

import (
	"errors"
	"fmt"
)

// ErrModelShape reports that a compiled model cannot be patched because the
// system changed shape — component state counts, command count, queue
// capacity, or the registered metric set moved. The caller must rebuild with
// System.Build.
var ErrModelShape = errors.New("core: compiled model shape changed")

// ErrModelPattern reports that a compiled model cannot be patched in place
// because a composed transition row's sparsity pattern changed — a
// probability moved to or from exactly zero. The caller must rebuild with
// System.Build.
var ErrModelPattern = errors.New("core: compiled model sparsity pattern changed")

// PatchModel recompiles sys into an existing compiled Model in place, so
// that m becomes exactly the model sys.Build() would produce — without
// reallocating the per-command CSR chains or any metric table. This is the
// model half of the online fast path: consecutive SR estimates from a
// streaming extractor yield systems whose transition probabilities drift but
// whose sparsity structure almost never moves, so only the stored values of
// each CSR row and the metric tables need rewriting, and the row index
// structure carries over verbatim. PatchFrequencyLP then patches the LP
// assembled from the patched model, completing a rebuild-free refresh.
//
// The patch is refused when the system's shape moved (ErrModelShape) or when
// any composed row's nonzero pattern differs from a fresh compilation
// (ErrModelPattern). On any error the model may be partially rewritten —
// the same contract as PatchFrequencyLP — and the caller falls back to
// sys.Build(). A patched model is bit-for-bit the model a fresh build would
// produce: both take their rows from the one generator composedRows and
// their metric tables from the one tabulate.
func PatchModel(m *Model, sys *System) error {
	if m == nil {
		return fmt.Errorf("%w: nil model", ErrModelShape)
	}
	if err := sys.Validate(); err != nil {
		return err
	}
	n := sys.NumStates()
	a := sys.SP.A()
	if m.N != n || m.A != a || len(m.P) != a {
		return fmt.Errorf("%w: model is %d states x %d commands, system wants %d x %d",
			ErrModelShape, m.N, m.A, n, a)
	}
	if old := m.Sys; old != nil {
		if old.SP.N() != sys.SP.N() || old.SR.N() != sys.SR.N() || old.QueueCap != sys.QueueCap {
			return fmt.Errorf("%w: component dimensions moved", ErrModelShape)
		}
	}
	for cmd := 0; cmd < a; cmd++ {
		if p := m.P[cmd]; p == nil || p.Rows() != n || p.Cols() != n {
			return fmt.Errorf("%w: stored chain for command %d is not %dx%d", ErrModelShape, cmd, n, n)
		}
	}
	// The metric name sets must coincide: every metric needs a table, and a
	// table no longer registered would silently keep stale values.
	fns := sys.MetricFns()
	for name := range fns {
		if t := m.Metrics[name]; t == nil || t.Rows != n || t.Cols != a {
			return fmt.Errorf("%w: metric table %q missing or resized", ErrModelShape, name)
		}
	}
	for name := range m.Metrics {
		if fns[name] == nil {
			return fmt.Errorf("%w: stored metric table %q no longer registered", ErrModelShape, name)
		}
	}

	var sc rowScratch
	for cmd := 0; cmd < a; cmd++ {
		pm := m.P[cmd]
		err := sys.composedRows(cmd, &sc, func(i int, cols []int, vals []float64) error {
			if err := pm.RewriteRowNZ(i, cols, vals); err != nil {
				return fmt.Errorf("%w: command %q row %d: %v", ErrModelPattern, sys.SP.CommandNames()[cmd], i, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := pm.CheckStochastic(1e-9); err != nil {
			return fmt.Errorf("core: composed matrix for command %q: %w", sys.SP.CommandNames()[cmd], err)
		}
	}
	sys.tabulate(fns, m.Metrics)
	m.Sys = sys
	return nil
}
