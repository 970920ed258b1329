package core

import (
	"errors"
	"fmt"

	"repro/internal/lp"
)

// ErrPatchShape reports that a frequency LP cannot be patched because the
// model or options changed the program's shape (variable count, row count,
// bound relations): the caller must rebuild with BuildFrequencyLP.
var ErrPatchShape = errors.New("core: frequency LP shape changed")

// ErrPatchPattern reports that a frequency LP cannot be patched in place
// because a constraint row's sparsity pattern changed — a transition
// probability moved to or from exactly zero, or a metric entry did. The
// caller must rebuild with BuildFrequencyLP.
var ErrPatchPattern = errors.New("core: frequency LP sparsity pattern changed")

// PatchFrequencyLP rewrites, in place, the coefficients of a frequency LP
// previously assembled by BuildFrequencyLP, so that it becomes exactly the
// program BuildFrequencyLP(m, opts) would build — without reallocating the
// Problem, its objective, or any constraint row. This is the online
// re-optimization fast path: consecutive SR estimates from a streaming
// extractor yield structurally identical models whose transition
// probabilities drift, so only the SR-dependent coefficients (the −α·p
// terms of the balance rows, SR-dependent metric tables such as "drops",
// and the right-hand sides) need rewriting, and the row index structure —
// the part AddConstraintNZ pays a sort/merge for — carries over verbatim.
//
// The patch is refused, leaving prob unchanged except possibly for already
// rewritten values, when the program's shape moved (ErrPatchShape) or when
// any row's nonzero pattern differs from the fresh assembly
// (ErrPatchPattern — a probability hit exactly zero or left it). Callers
// fall back to BuildFrequencyLP on any error; a patched problem is
// bit-for-bit the problem a fresh build would produce, so the two paths are
// interchangeable solve inputs.
func PatchFrequencyLP(prob *lp.Problem, m *Model, opts Options) error {
	if opts.Alpha < 0 || opts.Alpha >= 1 {
		return fmt.Errorf("core: discount factor %g outside [0,1)", opts.Alpha)
	}
	if opts.Objective.Metric == "" {
		opts.Objective.Metric = MetricPenalty
	}
	objTable, err := m.Metric(opts.Objective.Metric)
	if err != nil {
		return err
	}
	q0, err := initialDistribution(m, opts)
	if err != nil {
		return err
	}
	if prob == nil {
		return fmt.Errorf("%w: nil problem", ErrPatchShape)
	}
	nv := m.N * m.A
	if prob.NumVars() != nv {
		return fmt.Errorf("%w: %d variables, want %d", ErrPatchShape, prob.NumVars(), nv)
	}
	if got, want := len(prob.Cons), m.N+len(opts.Bounds); got != want {
		return fmt.Errorf("%w: %d constraint rows, want %d", ErrPatchShape, got, want)
	}
	if prob.Sense != opts.Objective.Sense {
		return fmt.Errorf("%w: objective sense changed", ErrPatchShape)
	}

	for s := 0; s < m.N; s++ {
		for a := 0; a < m.A; a++ {
			prob.Obj[s*m.A+a] = objTable.At(s, a)
		}
	}

	alpha := opts.Alpha
	pts := transposedChains(m)
	var idx []int
	var val []float64
	for j := 0; j < m.N; j++ {
		idx, val = balanceRowNZ(m, pts, alpha, j, idx[:0], val[:0])
		cIdx, cVal := lp.CompressRow(idx, val)
		c := &prob.Cons[j]
		if c.Rel != lp.EQ {
			return fmt.Errorf("%w: balance row %d relation changed", ErrPatchShape, j)
		}
		if err := rewriteRow(c, cIdx, cVal); err != nil {
			return fmt.Errorf("balance row %d: %w", j, err)
		}
		c.RHS = (1 - alpha) * q0[j]
	}

	for bi, b := range opts.Bounds {
		table, err := m.Metric(b.Metric)
		if err != nil {
			return err
		}
		c := &prob.Cons[m.N+bi]
		if c.Rel != b.Rel {
			return fmt.Errorf("%w: bound row %d relation changed", ErrPatchShape, bi)
		}
		idx, val = boundRowNZ(m, table, idx[:0], val[:0])
		if err := rewriteRow(c, idx, val); err != nil {
			return fmt.Errorf("bound row %q: %w", b.Metric, err)
		}
		c.RHS = b.Value
	}
	return nil
}

// rewriteRow copies fresh coefficients over a constraint row after checking
// that the nonzero pattern is unchanged.
func rewriteRow(c *lp.Constraint, cols []int, vals []float64) error {
	if len(cols) != len(c.Cols) {
		return fmt.Errorf("%w: %d nonzeros, had %d", ErrPatchPattern, len(cols), len(c.Cols))
	}
	for k, j := range cols {
		if c.Cols[k] != j {
			return fmt.Errorf("%w: nonzero %d moved to column %d (was %d)", ErrPatchPattern, k, j, c.Cols[k])
		}
	}
	copy(c.Vals, vals)
	return nil
}
