package lp

// Entering-column rules for the revised simplex. The pricing rule decides
// which improving column enters the basis; on the stiff policy LPs the
// choice changes pivot counts by integer factors:
//
//   - dantzigChoose: most negative reduced cost. Cheap and effective on
//     small well-scaled instances; on stiff ones (α = 1−10⁻⁶) it chases
//     magnitude rather than geometry and pays for it in degenerate pivots.
//   - devex: Devex reference weights (Harris 1973) — an inexpensive
//     steepest-edge approximation that ranks columns by d²/γ, preferring
//     directions that actually move the iterate. The weight maintenance
//     rides the pivot-row pass the solver already makes to update reduced
//     costs (revised.applyPivotRow), so the extra cost per pivot is O(1)
//     per touched column.
//
// The fact that picks the basis kernel picks the rule: Dantzig below
// AtScaleRows rows, Devex at scale (revised.atScale). Both defer to the
// Bland-rule fallback for termination on degenerate instances: the rule is
// consulted only on non-Bland iterations. Eligibility matches the solver's
// optimality test: column j improves iff it is nonbasic (pos[j] < 0) and
// d[j] < −costTol.

import (
	"repro/internal/mat"
)

// dantzigChoose picks the most negative reduced cost among [0, maxCol), or
// -1 when no column is eligible. It scans in column order with a strict
// compare (dj < bestVal), so the lowest index wins ties.
func dantzigChoose(d mat.Vector, pos []int, maxCol int) int {
	best, bestVal := -1, 0.0
	for j := 0; j < maxCol; j++ {
		if dj := d[j]; dj < -costTol && dj < bestVal && pos[j] < 0 {
			bestVal = dj
			best = j
		}
	}
	return best
}

// devex maintains Devex reference weights γ_j and ranks eligible columns by
// d_j²/γ_j. γ_j approximates ‖B⁻¹a_j‖² relative to the reference framework
// (the nonbasic set at the last reset), so the rule approximates
// steepest-edge pricing — pick the direction with the best objective change
// per unit step — without any extra FTRANs.
type devex struct {
	gamma []float64
	gq    float64 // γ of the entering column of the pivot under way
}

// reset restores the reference framework at phase entry.
func (p *devex) reset(nTot int) {
	if cap(p.gamma) < nTot {
		p.gamma = make([]float64, nTot)
	}
	p.gamma = p.gamma[:nTot]
	for j := range p.gamma {
		p.gamma[j] = 1
	}
}

// choose returns the entering column among [0, maxCol), or -1 at phase
// optimality. It scans in column order with a strict compare
// (score > bestScore), so the lowest index wins ties.
func (p *devex) choose(d mat.Vector, pos []int, maxCol int) int {
	best, bestScore := -1, 0.0
	for j := 0; j < maxCol; j++ {
		dj := d[j]
		if dj >= -costTol || pos[j] >= 0 {
			continue
		}
		if score := dj * dj / p.gamma[j]; score > bestScore {
			bestScore = score
			best = j
		}
	}
	return best
}

// beginPivot opens a pivot: entering column enter, leaving column leave,
// pivot element piv = α_enter. The pivot row's other entries then update
// the weights in revised.applyPivotRow.
func (p *devex) beginPivot(enter, leave int, piv float64) {
	p.gq = p.gamma[enter]
	// The leaving column re-enters the nonbasic set with the weight the
	// entering direction implies for it: γ_leave = max(γ_q/α_q², 1).
	if w := p.gq / (piv * piv); w > 1 {
		p.gamma[leave] = w
	} else {
		p.gamma[leave] = 1
	}
}

// blandChoose is the Bland's-rule scan (first eligible column) the solver
// falls back to after stalling; shared by both pricing rules because it
// is what guarantees termination.
func blandChoose(d mat.Vector, pos []int, maxCol int) int {
	for j := 0; j < maxCol; j++ {
		if d[j] < -costTol && pos[j] < 0 {
			return j
		}
	}
	return -1
}
