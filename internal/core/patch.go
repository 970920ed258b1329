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
// bit-for-bit the problem a fresh build would produce — both take their
// rows from the one generator frequencyRows and normalize them with
// lp.CompressRow, and carry the crash of the new model — so the two paths
// are interchangeable solve inputs.
func PatchFrequencyLP(prob *lp.Problem, m *Model, opts Options) error {
	if prob == nil {
		return fmt.Errorf("%w: nil problem", ErrPatchShape)
	}
	if nv := m.N * m.A; prob.NumVars() != nv {
		return fmt.Errorf("%w: %d variables, want %d", ErrPatchShape, prob.NumVars(), nv)
	}
	if got, want := len(prob.Cons), m.N+len(opts.Bounds); got != want {
		return fmt.Errorf("%w: %d constraint rows, want %d", ErrPatchShape, got, want)
	}
	if prob.Sense != opts.Objective.Sense {
		return fmt.Errorf("%w: objective sense changed", ErrPatchShape)
	}
	err := frequencyRows(m, opts, prob.Obj, func(row int, cols []int, vals []float64, rel lp.Rel, rhs float64) error {
		c := &prob.Cons[row]
		if c.Rel != rel {
			return fmt.Errorf("%w: row %q relation changed", ErrPatchShape, c.Name)
		}
		cols, vals = lp.CompressRow(cols, vals)
		if err := rewriteRow(c, cols, vals); err != nil {
			return fmt.Errorf("row %q: %w", c.Name, err)
		}
		c.RHS = rhs
		return nil
	})
	if err != nil {
		return err
	}
	prob.Crash = crashFor(m, opts)
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
