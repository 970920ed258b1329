package lp

// Entering-column rules for the revised simplex. The pricing rule decides
// which improving column enters the basis; on the stiff policy LPs the
// choice changes pivot counts by integer factors:
//
//   - dantzigPricer: most negative reduced cost. Cheap and effective on
//     small well-scaled instances; on stiff ones (α = 1−10⁻⁶) it chases
//     magnitude rather than geometry and pays for it in degenerate pivots.
//   - devexPricer: Devex reference weights (Harris 1973) — an inexpensive
//     steepest-edge approximation that ranks columns by d²/γ, preferring
//     directions that actually move the iterate. The weight maintenance
//     rides the pivot-row pass the solver already makes to update reduced
//     costs, so the extra cost per pivot is O(1) per touched column.
//
// The solver uses Dantzig below autoSparseMin rows and Devex above. Both
// defer to the caller's Bland-rule override for termination on degenerate
// instances: the Pricer is consulted only on non-Bland iterations.

import (
	"repro/internal/mat"
)

// Pricer is the strategy interface for entering-column selection. A Pricer
// is stateful and single-solve. Eligibility is scale-relative, matching the
// solver's optimality test: column j improves iff it is nonbasic
// (pos[j] < 0) and d[j] < −costTol·dScale[j].
type Pricer interface {
	// Reset is called at phase entry with the standard-form column count;
	// weight-based rules restore their reference framework.
	Reset(nTot int)
	// Choose returns the entering column among [0, maxCol), or -1 when no
	// column is eligible (phase optimality).
	Choose(d, dScale mat.Vector, pos []int, maxCol int) int
	// NeedsPivotRow reports whether the rule must observe the pivot row even
	// on pivots that leave the reduced costs unchanged (degenerate entering
	// reduced cost); weight-based rules return true.
	NeedsPivotRow() bool
	// BeginPivot announces a pivot: entering column enter, leaving column
	// leave, pivot element piv = α_enter. It is followed by ObserveAlpha
	// calls streaming the nonzero pivot-row entries α_j = βᵀa_j.
	BeginPivot(enter, leave int, piv float64)
	// ObserveAlpha streams one nonzero pivot-row entry for column j.
	ObserveAlpha(j int, alpha float64)
}

// dantzigPricer picks the most negative scale-relative reduced cost — the
// classic rule, and the exact behavior of the pre-strategy solver.
type dantzigPricer struct{}

func (dantzigPricer) Reset(int)                      {}
func (dantzigPricer) NeedsPivotRow() bool            { return false }
func (dantzigPricer) BeginPivot(_, _ int, _ float64) {}
func (dantzigPricer) ObserveAlpha(int, float64)      {}

// Choose scans in column order with a strict compare (dj < bestVal), so the
// lowest index wins ties.
func (dantzigPricer) Choose(d, dScale mat.Vector, pos []int, maxCol int) int {
	best, bestVal := -1, 0.0
	for j := 0; j < maxCol; j++ {
		// dScale ≥ 1, so d[j] ≥ 0 can never pass the relative test — reject
		// before loading dScale (most columns, most iterations).
		if dj := d[j]; dj < 0 && pos[j] < 0 && dj < -costTol*dScale[j] && dj < bestVal {
			bestVal = dj
			best = j
		}
	}
	return best
}

// devexPricer maintains Devex reference weights γ_j and ranks eligible
// columns by d_j²/γ_j. γ_j approximates ‖B⁻¹a_j‖² relative to the reference
// framework (the nonbasic set at the last Reset), so the rule approximates
// steepest-edge pricing — pick the direction with the best objective change
// per unit step — without any extra FTRANs.
type devexPricer struct {
	gamma []float64
	enter int
	leave int
	piv   float64
	gq    float64
}

func (p *devexPricer) Reset(nTot int) {
	if cap(p.gamma) < nTot {
		p.gamma = make([]float64, nTot)
	}
	p.gamma = p.gamma[:nTot]
	for j := range p.gamma {
		p.gamma[j] = 1
	}
}

func (p *devexPricer) NeedsPivotRow() bool { return true }

// Choose scans in column order with a strict compare (score > bestScore),
// so the lowest index wins ties.
func (p *devexPricer) Choose(d, dScale mat.Vector, pos []int, maxCol int) int {
	best, bestScore := -1, 0.0
	for j := 0; j < maxCol; j++ {
		dj := d[j]
		// dScale ≥ 1: d[j] ≥ 0 can never pass the relative test, so reject
		// before touching pos/dScale (most columns, most iterations).
		if dj >= 0 || pos[j] >= 0 || dj >= -costTol*dScale[j] {
			continue
		}
		if score := dj * dj / p.gamma[j]; score > bestScore {
			bestScore = score
			best = j
		}
	}
	return best
}

func (p *devexPricer) BeginPivot(enter, leave int, piv float64) {
	p.enter, p.leave, p.piv = enter, leave, piv
	p.gq = p.gamma[enter]
	// The leaving column re-enters the nonbasic set with the weight the
	// entering direction implies for it: γ_leave = max(γ_q/α_q², 1).
	if w := p.gq / (piv * piv); w > 1 {
		p.gamma[leave] = w
	} else {
		p.gamma[leave] = 1
	}
}

func (p *devexPricer) ObserveAlpha(j int, alpha float64) {
	if j == p.enter {
		return
	}
	// γ_j ← max(γ_j, (α_j/α_q)²·γ_q): the entering direction's footprint on
	// column j, measured in the reference framework.
	r := alpha / p.piv
	if w := r * r * p.gq; w > p.gamma[j] {
		p.gamma[j] = w
	}
}

// blandChoose is the Bland's-rule scan (first eligible column) the solver
// falls back to after stalling; shared by both pricing rules because it
// is what guarantees termination.
func blandChoose(d, dScale mat.Vector, pos []int, maxCol int) int {
	for j := 0; j < maxCol; j++ {
		if dj := d[j]; dj < 0 && pos[j] < 0 && dj < -costTol*dScale[j] {
			return j
		}
	}
	return -1
}
