package mat

// Hyper-sparse BTRAN. Every simplex pivot needs the pivot row's multiplier
// B⁻ᵀe_r for a unit vector e_r. The dense SolveTInto walks all n positions,
// so on a 10⁴-row basis each pivot pays O(n) for an answer whose support is
// typically a few dozen entries. SolveTSp fixes that with
// Gilbert–Peierls-style symbolic reachability: starting from the rhs
// support, walk the nonzero pattern of the factor to enumerate exactly the
// positions the numeric solve can touch, and run the numeric kernel over
// those positions only. On the 9,720-row k=6 composite this halves BTRAN.
//
// Ordering is the whole trick. The dense passes process positions (or
// elimination steps) in a fixed ascending/descending order and skip exact
// zeros; every dependency in the factors points strictly forward along that
// order (a V entry (r, c) has pos(r) ≤ pos(c); L's step k writes only rows
// pivoted at later steps, so Lᵀ's step k feeds only earlier ones). So the
// reachable set needs no DFS postorder and no priority queue: it is kept in
// a position-indexed bitmask and consumed by one directional scan — newly
// discovered work always lands strictly ahead of the cursor, never behind
// it. The numeric work performed is then exactly the dense pass minus its
// zero iterations, which makes the sparse result bit-identical to the dense
// one; the simplex pivot sequence therefore does not depend on which path
// ran.
//
// When reachability stops being sparse (dense rhs, or fill beyond
// hyperFrac·n during the walk) the pass completes with the dense kernel from
// wherever the ordered scan stood — again bit-identical, because the
// remaining unreached positions are precisely the ones the dense code would
// have skipped or zeroed — and the result is marked Dense.
//
// FTRAN has no such path. Its rhs, an entering column, reaches past the
// density threshold on most of the policy LPs' FTRANs: a forward walk of
// this kind ended sparse on about one solve-k5 FTRAN in eight and made the
// FTRAN stage no faster at 648, 1,944 or 9,720 rows, so SolveSp is the
// dense solve.

import (
	"math/bits"
	"sort"
)

// hyperFrac is the density threshold of the hyper-sparse solves: once a
// pattern grows past hyperFrac·n (+ a small absolute floor), symbolic
// bookkeeping costs more than the dense sweep it avoids, and the solve
// falls back to the dense kernel for the remainder of the pass.
const hyperFrac = 0.1

// SpVec is an indexed sparse vector: a dense value backing plus the list of
// indices that may hold nonzeros. Entries outside Ind are exactly zero.
// When Dense is set the pattern is not tracked and all of Val is
// significant — the automatic fallback representation for solves whose
// result stopped being sparse. Ind may include entries whose value
// cancelled to exact zero.
type SpVec struct {
	Val   Vector
	Ind   []int
	Dense bool
}

// NewSpVec returns an all-zero sparse vector of dimension n.
func NewSpVec(n int) *SpVec {
	return &SpVec{Val: NewVector(n), Ind: make([]int, 0, 64)}
}

// Reset restores the all-zero state, zeroing only the entries the pattern
// says may be live (the whole backing when Dense).
func (v *SpVec) Reset() {
	if v.Dense {
		for i := range v.Val {
			v.Val[i] = 0
		}
		v.Dense = false
	} else {
		for _, i := range v.Ind {
			v.Val[i] = 0
		}
	}
	v.Ind = v.Ind[:0]
}

// Set scatters value x at index i, recording it in the pattern. The caller
// must not Set the same index twice between Resets (use the dense backing
// directly for accumulation).
func (v *SpVec) Set(i int, x float64) {
	v.Val[i] = x
	v.Ind = append(v.Ind, i)
}

// maxReach is the pattern size beyond which a hyper-sparse pass abandons
// symbolic bookkeeping and completes densely.
func (f *SparseLU) maxReach() int {
	return int(hyperFrac*float64(f.n)) + 16
}

// workMask is the ordered worklist of the hyper-sparse passes: a bitmask
// over positions/steps, consumed by a single ascending or descending scan.
// Monotone dependencies guarantee discovered work always lies ahead of the
// scan cursor, so marking is an idempotent OR and no separate visited stamp
// is needed. The mask must come back all-zero: scans clear bits as they
// consume them, and early exits call clear().
type workMask []uint64

func (m workMask) set(k int) { m[k>>6] |= 1 << (uint(k) & 63) }

func (m workMask) clear() {
	for i := range m {
		m[i] = 0
	}
}

// nextUp returns the smallest marked index ≥ k and clears it, or -1.
func (m workMask) nextUp(k int) int {
	wi := k >> 6
	if wi >= len(m) {
		return -1
	}
	w := m[wi] >> (uint(k) & 63) << (uint(k) & 63)
	for {
		if w != 0 {
			b := wi<<6 + bits.TrailingZeros64(w)
			m[wi] &^= 1 << (uint(b) & 63)
			return b
		}
		wi++
		if wi >= len(m) {
			return -1
		}
		w = m[wi]
	}
}

// nextDown returns the largest marked index ≤ k and clears it, or -1.
func (m workMask) nextDown(k int) int {
	if k < 0 {
		return -1
	}
	wi := k >> 6
	sh := 63 - (uint(k) & 63)
	w := m[wi] << sh >> sh
	for {
		if w != 0 {
			b := wi<<6 + 63 - bits.LeadingZeros64(w)
			m[wi] &^= 1 << (uint(b) & 63)
			return b
		}
		wi--
		if wi < 0 {
			return -1
		}
		w = m[wi]
	}
}

// ensureRowSteps builds the transpose of the L pattern: rowSteps[r] lists
// the elimination steps whose multiplier set includes row r, the edge list
// the hyper-sparse Lᵀ pass walks. L is frozen at factorization time
// (Forrest–Tomlin updates extend the eta file, not L), so one lazy O(nnz L)
// build serves the factorization's whole lifetime. The lists are windows
// into one buffer, sized by a counting pass and kept across
// refactorizations.
func (f *SparseLU) ensureRowSteps() {
	if f.rowStepsBuilt {
		return
	}
	f.rowStepsBuilt = true
	off := resize(f.rowStepOff, f.n+1)
	clear(off)
	for _, r := range f.lIdx {
		off[r+1]++
	}
	for r := 0; r < f.n; r++ {
		off[r+1] += off[r]
	}
	buf := resize(f.rowStepEntries, f.nnzL)
	f.rowSteps = resize(f.rowSteps, f.n)
	for r := 0; r < f.n; r++ {
		f.rowSteps[r] = buf[off[r]:off[r]:off[r+1]]
	}
	for k := 0; k < f.n; k++ {
		for _, r := range f.lRows[k] {
			f.rowSteps[r] = append(f.rowSteps[r], int32(k))
		}
	}
	f.rowStepOff, f.rowStepEntries = off, buf
}

// SolveSp solves B x = b for a right-hand side held as an indexed sparse
// vector: it is SolveInto on b's dense backing, so x is marked Dense and is
// bit-identical to Solve(b). b is not modified. FTRAN has no hyper-sparse
// path (see the comment at the top of this file).
func (f *SparseLU) SolveSp(b, x *SpVec) {
	f.SolveInto(x.Val, b.Val)
	x.Ind = x.Ind[:0]
	x.Dense = true
}

// SolveTSp solves Bᵀ y = c for a sparse right-hand side. c is indexed by
// column slot and is not modified; the result is written into y, indexed by
// row, with a sorted pattern. Bit-identical to SolveTInto(c), by the
// ordered-reachability argument at the top of this file, with dense
// fallback past the density threshold.
func (f *SparseLU) SolveTSp(c, y *SpVec) {
	if len(c.Val) != f.n || len(y.Val) != f.n {
		panic("mat: SparseLU.SolveTSp dimension mismatch")
	}
	y.Reset()
	if c.Dense || len(c.Ind) > f.maxReach() {
		f.SolveTInto(y.Val, c.Val)
		y.Dense = true
		f.health.DenseSolves++
		return
	}
	limit := f.maxReach()

	// Vᵀ forward pass over reachable positions in ascending order, with the
	// same per-column accumulator scheme as the dense pass (acc = f.w, the
	// all-zero workspace): fixing y at position k scatters row rₖ's
	// contributions to strictly later positions, ahead of the scan.
	mask := f.mask
	for _, cc := range c.Ind {
		mask.set(f.posOfCol[cc])
	}
	acc := f.w
	bailed := false
	for k := mask.nextUp(0); k >= 0; k = mask.nextUp(k + 1) {
		r, cc := f.rowAtPos[k], f.colAtPos[k]
		s := c.Val[cc] - acc[cc]
		acc[cc] = 0
		if s == 0 {
			continue
		}
		diag, _ := f.valueAt(r, cc)
		yr := s / diag
		y.Val[r] = yr
		y.Ind = append(y.Ind, r)
		cols, vals := f.rowCols[r], f.rowVals[r]
		for i, c2 := range cols {
			if c2 == cc {
				continue
			}
			acc[c2] += vals[i] * yr
			mask.set(f.posOfCol[c2])
		}
		if len(y.Ind) > limit {
			// Dense completion upward from k+1: every pending accumulator
			// entry sits at a position > k, exactly where the dense loop
			// will consume it.
			mask.clear()
			for k2 := k + 1; k2 < f.n; k2++ {
				r, cc := f.rowAtPos[k2], f.colAtPos[k2]
				s := c.Val[cc] - acc[cc]
				acc[cc] = 0
				if s == 0 {
					continue
				}
				diag, _ := f.valueAt(r, cc)
				yr := s / diag
				y.Val[r] = yr
				cols, vals := f.rowCols[r], f.rowVals[r]
				for i, c2 := range cols {
					if c2 != cc {
						acc[c2] += vals[i] * yr
					}
				}
			}
			bailed = true
			break
		}
	}
	if bailed {
		y.Dense = true
		f.etaTDense(y.Val)
		f.lTDense(y.Val)
		f.health.DenseSolves++
		return
	}

	// Eta transposes in reverse append order. Row-pattern membership needs
	// its own stamp domain (stampB) — the mask tracks steps next.
	f.visitB++
	visB := f.visitB
	for _, r := range y.Ind {
		f.stampB[r] = visB
	}
	for i := len(f.etas) - 1; i >= 0; i-- {
		e := &f.etas[i]
		t := y.Val[e.row]
		if t == 0 {
			continue
		}
		for j, r := range e.rows {
			if f.stampB[r] != visB {
				f.stampB[r] = visB
				y.Ind = append(y.Ind, r)
			}
			y.Val[r] -= e.vals[j] * t
		}
	}

	// Lᵀ pass over reachable elimination steps in descending order: step k
	// reads its multiplier rows and writes the pivot row of step k, which
	// appears only in strictly earlier steps' multiplier sets — behind the
	// scan.
	f.ensureRowSteps()
	for _, r := range y.Ind {
		for _, k := range f.rowSteps[r] {
			mask.set(int(k))
		}
	}
	for k := mask.nextDown(f.n - 1); k >= 0; k = mask.nextDown(k - 1) {
		rows, vals := f.lRows[k], f.lVals[k]
		s := 0.0
		for i, r := range rows {
			s += vals[i] * y.Val[r]
		}
		if s == 0 {
			continue
		}
		pr := f.lPivRow[k]
		if f.stampB[pr] != visB {
			f.stampB[pr] = visB
			y.Ind = append(y.Ind, pr)
			if len(y.Ind) > limit {
				// Dense completion downward from k-1 (unreached steps above
				// k have all-zero multiplier rows in y).
				y.Val[pr] -= s
				mask.clear()
				for k2 := k - 1; k2 >= 0; k2-- {
					rows, vals := f.lRows[k2], f.lVals[k2]
					s := 0.0
					for i, r := range rows {
						s += vals[i] * y.Val[r]
					}
					y.Val[f.lPivRow[k2]] -= s
				}
				y.Dense = true
				f.health.DenseSolves++
				return
			}
			for _, k2 := range f.rowSteps[pr] {
				mask.set(int(k2))
			}
		}
		y.Val[pr] -= s
	}
	sort.Ints(y.Ind)
	f.health.HyperSolves++
}

// etaTDense runs the dense eta-transpose pass of SolveT.
func (f *SparseLU) etaTDense(w Vector) {
	for i := len(f.etas) - 1; i >= 0; i-- {
		e := &f.etas[i]
		t := w[e.row]
		if t == 0 {
			continue
		}
		for j, r := range e.rows {
			w[r] -= e.vals[j] * t
		}
	}
}

// lTDense runs the dense Lᵀ pass of SolveT.
func (f *SparseLU) lTDense(w Vector) {
	for k := f.n - 1; k >= 0; k-- {
		rows, vals := f.lRows[k], f.lVals[k]
		s := 0.0
		for i, r := range rows {
			s += vals[i] * w[r]
		}
		w[f.lPivRow[k]] -= s
	}
}
