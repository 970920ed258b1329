package lp

import "time"

// Timings is the per-stage wall-clock breakdown of one solve attempt,
// accumulated across its phases and the dual-simplex repair loop. The
// stages partition the pivot loop's heavy operations:
//
//   - Ftran: entering-direction solves B x = a_j (sparse or dense kernel).
//   - Btran: pivot-row multiplier solves Bᵀβ = e_r and dual solves Bᵀy = c_B.
//   - Price: entering-column selection (Choose / Bland scans), the pivot-row
//     scatter βᵀA, the reduced-cost maintenance (updateD) and its periodic
//     exact recomputation.
//   - Factor: full basis refactorizations, including the exact basic-value
//     recomputation that follows each one.
//   - Update: basic-value updates plus the factorization column-replacement
//     update (Forrest–Tomlin or product-form eta).
//
// Cheap glue (ratio tests, bookkeeping) is deliberately unattributed, so
// Total is a lower bound on solve wall clock, not an identity.
type Timings struct {
	Ftran  time.Duration
	Btran  time.Duration
	Price  time.Duration
	Factor time.Duration
	Update time.Duration
}

// Stage is one named entry of the Timings breakdown.
type Stage struct {
	Name string
	D    time.Duration
}

// Stages lists the breakdown in emission order: the one declaration of the
// stage names, which every per-stage report loops over.
func (t Timings) Stages() [5]Stage {
	return [...]Stage{{"ftran", t.Ftran}, {"btran", t.Btran}, {"price", t.Price}, {"factor", t.Factor}, {"update", t.Update}}
}

// Total sums the attributed stages.
func (t Timings) Total() time.Duration {
	return t.Ftran + t.Btran + t.Price + t.Factor + t.Update
}

// Add accumulates o into t (reports sum the timings of many solves).
func (t *Timings) Add(o Timings) {
	t.Ftran += o.Ftran
	t.Btran += o.Btran
	t.Price += o.Price
	t.Factor += o.Factor
	t.Update += o.Update
}
