package core

import (
	"errors"
	"fmt"

	"repro/internal/lp"
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
// structure — the part Triplet.ToCSR pays a sort for — carries over
// verbatim. PatchFrequencyLP then patches the LP assembled from the patched
// model, completing a rebuild-free refresh.
//
// The patch is refused when the system's shape moved (ErrModelShape) or when
// any composed row's nonzero pattern differs from a fresh compilation
// (ErrModelPattern). On any error the model may be partially rewritten —
// the same contract as PatchFrequencyLP — and the caller falls back to
// sys.Build(). A patched model is bit-for-bit the model a fresh build would
// produce: the regeneration below follows Build's accumulation order
// expression by expression, and the normalization matches ToCSR's (sort by
// column, drop exact zeros; composed rows never produce duplicates because
// (pNext, rNext, qNext) ↔ j is one-to-one within a row).
func PatchModel(m *Model, sys *System) error {
	if m == nil {
		return fmt.Errorf("%w: nil model", ErrModelShape)
	}
	if err := sys.Validate(); err != nil {
		return err
	}
	n := sys.NumStates()
	a := sys.SP.A()
	nsp, nsr, nq := sys.SP.N(), sys.SR.N(), sys.QueueCap+1
	if m.N != n || m.A != a || len(m.P) != a {
		return fmt.Errorf("%w: model is %d states x %d commands, system wants %d x %d",
			ErrModelShape, m.N, m.A, n, a)
	}
	if old := m.Sys; old != nil {
		if old.SP.N() != nsp || old.SR.N() != nsr || old.QueueCap != sys.QueueCap {
			return fmt.Errorf("%w: component dimensions moved", ErrModelShape)
		}
	}
	for cmd := 0; cmd < a; cmd++ {
		if p := m.P[cmd]; p == nil || p.Rows() != n || p.Cols() != n {
			return fmt.Errorf("%w: stored chain for command %d is not %dx%d", ErrModelShape, cmd, n, n)
		}
	}
	// The metric name sets must coincide: built-ins are always present, and
	// every extra metric must already have a table (and vice versa — a stale
	// table would silently keep old values).
	builtin := map[string]bool{
		MetricPower: true, MetricPenalty: true, MetricLoss: true,
		MetricDrops: true, MetricService: true,
	}
	for name := range builtin {
		if t := m.Metrics[name]; t == nil || t.Rows != n || t.Cols != a {
			return fmt.Errorf("%w: metric table %q missing or resized", ErrModelShape, name)
		}
	}
	for name := range sys.ExtraMetrics {
		if t := m.Metrics[name]; t == nil || t.Rows != n || t.Cols != a {
			return fmt.Errorf("%w: extra metric table %q missing or resized", ErrModelShape, name)
		}
	}
	for name := range m.Metrics {
		if !builtin[name] && sys.ExtraMetrics[name] == nil {
			return fmt.Errorf("%w: stored metric table %q no longer registered", ErrModelShape, name)
		}
	}

	// Rewrite the composed chains row by row, regenerating each row's
	// nonzeros exactly as Build's triplet accumulation does, normalizing with
	// the same sort-and-drop-zeros rule ToCSR applies, and overwriting the
	// stored values after the pattern check.
	var hookCols, rowIdx []int
	var hookVals, rowVal []float64
	for cmd := 0; cmd < a; cmd++ {
		chain := sys.SP.Chain(cmd)
		if chain.Rows() != nsp || chain.Cols() != nsp {
			return fmt.Errorf("core: provider %q chain for command %d is %dx%d, want %dx%d",
				sys.SP.ProviderName(), cmd, chain.Rows(), chain.Cols(), nsp, nsp)
		}
		pm := m.P[cmd]
		for p := 0; p < nsp; p++ {
			b := sys.SP.RateAt(p, cmd)
			chainCols, chainVals := chain.RowNZ(p)
			for r := 0; r < nsr; r++ {
				spCols, spVals := chainCols, chainVals
				if sys.SPRow != nil {
					if row := sys.SPRow(p, cmd, r); row != nil {
						if len(row) != nsp {
							return fmt.Errorf("core: SPRow override returned %d entries, want %d", len(row), nsp)
						}
						if !row.IsDistribution(1e-9) {
							return fmt.Errorf("core: SPRow override for (%s,%s,%s) is not a distribution",
								sys.SP.StateNames()[p], sys.SP.CommandNames()[cmd], sys.SR.States[r])
						}
						hookCols, hookVals = hookCols[:0], hookVals[:0]
						for pNext, v := range row {
							if v != 0 {
								hookCols = append(hookCols, pNext)
								hookVals = append(hookVals, v)
							}
						}
						spCols, spVals = hookCols, hookVals
					}
				}
				for q := 0; q < nq; q++ {
					i := sys.Index(State{SP: p, SR: r, Q: q})
					rowIdx, rowVal = rowIdx[:0], rowVal[:0]
					for rNext := 0; rNext < nsr; rNext++ {
						srP := sys.SR.P.At(r, rNext)
						if srP == 0 {
							continue
						}
						qrow := QueueRow(sys.QueueCap, q, b, sys.SR.Requests[rNext])
						for k, pNext := range spCols {
							base := spVals[k] * srP
							for qNext := 0; qNext < nq; qNext++ {
								if qrow[qNext] == 0 {
									continue
								}
								j := sys.Index(State{SP: pNext, SR: rNext, Q: qNext})
								rowIdx = append(rowIdx, j)
								rowVal = append(rowVal, base*qrow[qNext])
							}
						}
					}
					rowCIdx, rowCVal := lp.CompressRow(rowIdx, rowVal)
					if err := pm.RewriteRowNZ(i, rowCIdx, rowCVal); err != nil {
						return fmt.Errorf("%w: command %q row %d: %v",
							ErrModelPattern, sys.SP.CommandNames()[cmd], i, err)
					}
				}
			}
		}
		if err := pm.CheckStochastic(1e-9); err != nil {
			return fmt.Errorf("core: composed matrix for command %q: %w", sys.SP.CommandNames()[cmd], err)
		}
	}

	// Metric tables, in place. Every entry is written (the loss default
	// writes its zero branch explicitly), so no stale value survives.
	power := m.Metrics[MetricPower]
	penalty := m.Metrics[MetricPenalty]
	loss := m.Metrics[MetricLoss]
	drops := m.Metrics[MetricDrops]
	service := m.Metrics[MetricService]
	for i := 0; i < n; i++ {
		st := sys.StateOf(i)
		for cmd := 0; cmd < a; cmd++ {
			power.Set(i, cmd, sys.SP.PowerAt(st.SP, cmd))
			service.Set(i, cmd, sys.SP.RateAt(st.SP, cmd))
			if sys.PenaltyFn != nil {
				penalty.Set(i, cmd, sys.PenaltyFn(st, cmd))
			} else {
				penalty.Set(i, cmd, float64(st.Q))
			}
			switch {
			case sys.LossFn != nil:
				loss.Set(i, cmd, sys.LossFn(st, cmd))
			case sys.SR.Requests[st.SR] > 0 && st.Q == sys.QueueCap:
				loss.Set(i, cmd, 1)
			default:
				loss.Set(i, cmd, 0)
			}
			b := sys.SP.RateAt(st.SP, cmd)
			exp := 0.0
			for rNext := 0; rNext < sys.SR.N(); rNext++ {
				if p := sys.SR.P.At(st.SR, rNext); p != 0 {
					exp += p * LostRequests(sys.QueueCap, st.Q, b, sys.SR.Requests[rNext])
				}
			}
			drops.Set(i, cmd, exp)
		}
	}
	for name, fn := range sys.ExtraMetrics {
		t := m.Metrics[name]
		for i := 0; i < n; i++ {
			st := sys.StateOf(i)
			for cmd := 0; cmd < a; cmd++ {
				t.Set(i, cmd, fn(st, cmd))
			}
		}
	}
	m.Sys = sys
	return nil
}
