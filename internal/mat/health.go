package mat

// HealthStats is the numerical-health record of a SparseLU: the signals a
// solve monitor samples to judge how close the factorization is to trouble.
// GrowthFactor, MinDiag and MaxDiag describe the current factorization
// (recomputed by every Refactor); the three counters accumulate from a
// Refactor to the next, which zeroes them — callers that refactorize (the
// LP layer) fold counters across factorizations to report per-solve
// totals.
type HealthStats struct {
	// GrowthFactor is the element growth of the elimination: the largest
	// |entry| of the factored U over the largest |entry| of the input
	// matrix. Values far above 1 mean the ordering traded stability for
	// sparsity and the factorization is losing digits.
	GrowthFactor float64
	// MinDiag and MaxDiag are the smallest and largest |diagonal| of U at
	// factorization time; their ratio bounds the conditioning the backward
	// substitutions see.
	MinDiag, MaxDiag float64
	// FTRejections counts Forrest–Tomlin updates rejected by the stability
	// checks (ErrUpdateUnstable) — each one forced an early refactorization.
	FTRejections int
	// HyperSolves and DenseSolves count BTRAN solves only: SolveTSp calls
	// that completed on the hyper-sparse reachability path versus ones that
	// densified (dense input, or a pattern that outgrew the density
	// threshold mid-scan). FTRAN is always the dense sweep and is not
	// counted.
	HyperSolves, DenseSolves int
}

// DiagRatio returns MaxDiag/MinDiag, the diagonal conditioning spread
// (0 when the factorization is empty or has a zero diagonal).
func (h HealthStats) DiagRatio() float64 {
	if h.MinDiag <= 0 {
		return 0
	}
	return h.MaxDiag / h.MinDiag
}

// AddCounters folds o's lifetime counters into h, keeping h's
// per-factorization fields (growth, diagonal range). The LP layer uses this
// to carry counter totals across refactorizations within one solve.
func (h *HealthStats) AddCounters(o HealthStats) {
	h.FTRejections += o.FTRejections
	h.HyperSolves += o.HyperSolves
	h.DenseSolves += o.DenseSolves
}

// Health returns the factorization's numerical-health record: growth and
// diagonal range from the last Refactor, counters accumulated since.
func (f *SparseLU) Health() HealthStats { return f.health }

// ResetCounters zeroes the lifetime counters, keeping the per-factorization
// fields: a factorization that outlives one solve (a resident LP re-solved
// after an rhs change) then reports the next solve's counters alone.
func (f *SparseLU) ResetCounters() {
	f.health.FTRejections = 0
	f.health.HyperSolves = 0
	f.health.DenseSolves = 0
}
