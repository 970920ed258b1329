package mat

// Sparse LU factorization with Markowitz-ordered pivoting, threshold partial
// pivoting, and Forrest–Tomlin basis updates.
//
// This is the kernel that retires the last dense object of the revised
// simplex: the m×m basis matrix. Policy-LP bases are extremely sparse (slack
// columns are singletons and balance columns carry a handful of transition
// entries), so a dense LU pays O(m³) per refactorization and O(m²) per
// triangular solve for a matrix whose useful content is O(m). Here the
// factorization PAQ = LU chooses each pivot by the Markowitz criterion —
// minimize (r−1)(c−1), the worst-case fill of the elimination step — among
// candidates passing a threshold test |a_ij| ≥ τ·max|a_*j| that keeps the
// ordering from trading stability for sparsity, and every data structure is
// sized by the nonzeros it actually holds.
//
// Between refactorizations the factorization absorbs basis-column
// replacements with Forrest–Tomlin updates: the entering column's partial
// FTRAN image (the "spike") replaces the leaving column of U, the spiked row
// and column are cyclically permuted to the last position, and the one
// no-longer-triangular row is re-eliminated against the rows below it,
// appending a single sparse row eta to the transform file. An update costs
// one forward transform of the entering column plus the re-elimination's
// nonzeros, and leaves U genuinely triangular — unlike product-form etas,
// whose file grows by a dense-ish vector per pivot and whose FTRAN cost
// compounds — so the update chain no longer drives the solver back toward
// full refactorization.
//
// Storage:
//
//   - V, the permuted upper factor, row-major: rows[r] holds sorted
//     (col, val) pairs; entry (r,c) implies pos(r) ≤ pos(c) under the mutable
//     position maps, with equality exactly on the diagonal pairing
//     (rowAtPos[k], colAtPos[k]). The rows are windows into one arena: an
//     elimination merge writes the new row at the arena's tail, and a full
//     arena is compacted into a spare one.
//   - colRows[c], the column structure of V: row ids that may hold an entry
//     in column c. Lists are lazily maintained — deletions leave stale ids,
//     re-insertions may duplicate — and every walk validates entries against
//     the row storage and deduplicates with a visit stamp.
//   - The forward transform F (B = F·V): the initial L as per-position
//     multiplier columns (windows into one append-only array), then one
//     sparse row eta per Forrest–Tomlin update.
//
// All of it, with the factorization's scratch, belongs to the SparseLU and
// outlives a factorization: Refactor factors the next matrix into the same
// storage, so a solver that refactorizes basis after basis stops
// allocating once the storage has grown to fit.

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// luDebug gates update-rejection tracing (LUDEBUG=1). Output goes through
// the structured obs logger; when the owning solver installs a Debugf hook
// the lines additionally carry that solve's trace and request IDs.
var luDebug = obs.DebugOn("lu")

// SparseLU holds a sparse LU factorization of a square matrix, ready to
// solve B x = b and Bᵀ y = c and to absorb Forrest–Tomlin column updates.
// The zero value is an empty factorization; Refactor factors a matrix into
// the receiver, reusing the storage of its previous factorizations, so a
// caller that refactorizes one basis after another (the revised simplex)
// allocates only while the storage grows to the largest factorization it
// has seen. FactorColumns is Refactor into a new SparseLU.
type SparseLU struct {
	// Debugf, when non-nil, receives LUDEBUG-gated trace lines. The LP layer
	// installs a context-bound hook here so kernel diagnostics carry the
	// request's trace ID; unset, lines fall back to the plain obs logger.
	Debugf func(format string, args ...any)

	n int

	// V rows, by original row id: capacity-capped windows into the arena
	// (vCols, vVals), so a row cannot grow into its neighbour. A row that
	// needs to grow moves to the arena's tail (see vReserve); the window it
	// leaves is garbage until the next compaction.
	rowCols [][]int
	rowVals [][]float64
	// The arena (len = used prefix) and the compaction target it swaps with.
	vCols, vColsB []int
	vVals, vValsB []float64
	// Lazily-maintained column structure of V (see package comment).
	colRows [][]int

	// Position maps: position k pairs rowAtPos[k] with colAtPos[k].
	rowAtPos, posOfRow []int
	colAtPos, posOfCol []int

	// Initial L: lRows[k]/lVals[k] are the multiplier rows eliminated by the
	// pivot at position k, in original row ids — windows into lIdx/lMul,
	// where step k's multipliers occupy [lStart[k], lStart[k+1]). lPivRow[k]
	// is the pivot row that drove elimination step k — frozen at
	// factorization time, because Forrest–Tomlin rotations permute rowAtPos
	// afterwards while L stays tied to the rows it was built from.
	lRows   [][]int
	lVals   [][]float64
	lIdx    []int
	lMul    []float64
	lStart  []int
	lPivRow []int
	nnzL    int

	// Forrest–Tomlin row etas, applied after L in append order. The backing
	// array keeps the etas a refactorization retired, whose storage the
	// next updates overwrite.
	etas []ftEta

	updates int

	// Workspace (length n), reused across solves and updates: w is all-zero
	// between operations, tmp is the dense scratch of SolveInto, SolveTInto
	// and Update's spike.
	w     []float64
	tmp   Vector
	stamp []int
	visit int

	// Refactor's scratch: the Markowitz buckets, the pivot flags, the row
	// counts, the search's candidate lists and the pivot-row copy.
	mk         mkwState
	pivotedRow []bool
	doneCol    []bool
	rowNNZ     []int
	rs, bestRs []int
	vs, bestVs []float64
	pCols      []int
	pVals      []float64

	// Hyper-sparse BTRAN scratch (see spvec.go): the lazy transpose of the
	// L pattern (windows into rowStepEntries, built on first use), the
	// ordered-worklist bitmask, and a second stamp domain (row-pattern marks
	// that coexist with the mask inside SolveTSp).
	rowSteps       [][]int32
	rowStepsBuilt  bool
	rowStepOff     []int
	rowStepEntries []int32
	mask           workMask
	stampB         []int
	visitB         int

	// Numerical-health record (see health.go): growth/diagonal fields set
	// by Refactor, counters accumulated by Update and the solves.
	health HealthStats

	utouch []int // Update's re-elimination scatter touch list, reused
}

// ftEta is one Forrest–Tomlin row transform: y[row] -= Σ vals[i]·y[rows[i]]
// during FTRAN (and the transposed scatter during BTRAN).
type ftEta struct {
	row  int
	rows []int
	vals []float64
}

// FactorColumns computes a sparse LU factorization of the n×n matrix whose
// column j is given by col(j); it is Refactor into a new SparseLU.
func FactorColumns(n int, col func(j int) ([]int, []float64), tau float64) (*SparseLU, error) {
	f := new(SparseLU)
	if err := f.Refactor(n, col, tau); err != nil {
		return nil, err
	}
	return f, nil
}

// resize returns s with length n, keeping its elements — and the storage
// they own — wherever the capacity allows.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		t := make([]T, n)
		copy(t, s[:cap(s)])
		return t
	}
	return s[:n]
}

// Refactor replaces the receiver's factorization with a sparse LU
// factorization of the n×n matrix whose column j is given by col(j) as
// parallel (row, value) slices (rows sorted, no duplicates — the contract of
// CSC.ColNZ). tau in (0,1] is the threshold partial-pivoting parameter: a
// pivot candidate must satisfy |a_ij| ≥ tau·max|a_*j|; larger values favor
// stability over sparsity (0.1 is the customary default, 0.5 a conservative
// setting). It returns ErrSingular when no acceptable pivot exists; the
// receiver then holds an empty factorization until the next Refactor.
//
// The factors, health record and every later solve and update are
// bit-identical to those of a fresh FactorColumns on the same matrix: the
// previous factorization contributes storage only. The Debugf hook is kept;
// the health counters restart from zero.
func (f *SparseLU) Refactor(n int, col func(j int) ([]int, []float64), tau float64) error {
	if n < 0 {
		panic("mat: SparseLU.Refactor with negative dimension")
	}
	if tau <= 0 || tau > 1 {
		tau = 0.1
	}
	f.reset(n)

	// Gather the columns into row-major working storage. Column input order
	// is ascending j, so each row's col list arrives sorted. A counting pass
	// sizes each row exactly before the fill pass lays the rows out back to
	// back in the arena.
	maxAbs := 0.0
	colCount, rowNNZ := f.mk.colCount, f.rowNNZ
	nnz := 0
	for j := 0; j < n; j++ {
		rows, vals := col(j)
		for k, r := range rows {
			if r < 0 || r >= n {
				panic(fmt.Sprintf("mat: SparseLU.Refactor row %d outside [0,%d)", r, n))
			}
			if vals[k] != 0 {
				rowNNZ[r]++
				colCount[j]++
				nnz++
			}
		}
	}
	// Elimination fill lands at the arena's tail; twice the input leaves
	// room for it before the first compaction.
	if cap(f.vCols) < 2*nnz {
		f.vCols = make([]int, 0, 2*nnz)
		f.vVals = make([]float64, 0, 2*nnz)
	}
	f.vCols, f.vVals = f.vCols[:nnz], f.vVals[:nnz]
	off := 0
	for r := 0; r < n; r++ {
		end := off + rowNNZ[r]
		f.rowCols[r] = f.vCols[off:off:end]
		f.rowVals[r] = f.vVals[off:off:end]
		off = end
	}
	for j := 0; j < n; j++ {
		f.colRows[j] = f.colRows[j][:0]
		rows, vals := col(j)
		for k, r := range rows {
			v := vals[k]
			if v == 0 {
				continue
			}
			f.rowCols[r] = append(f.rowCols[r], j)
			f.rowVals[r] = append(f.rowVals[r], v)
			f.colRows[j] = append(f.colRows[j], r)
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	tiny := 1e-14 * maxAbs
	if tiny == 0 {
		tiny = 1e-300
	}

	// Exact count buckets over active columns, as doubly-linked lists: every
	// count change relinks its column in O(1), so the pivot search only ever
	// walks live candidates. (An append-only bucket scheme with stale-entry
	// validation makes the search cost scale with total fill instead of with
	// candidates examined — on 10⁴-row bases that dominated factorization.)
	mk := &f.mk
	mk.init(n)
	pivotedRow, doneCol := f.pivotedRow, f.doneCol

	type cand struct {
		row, col int
		val      float64
		cost     int
	}
	rs, vs := f.rs, f.vs                 // candidate scratch, reused across search steps
	bestRs, bestVs := f.bestRs, f.bestVs // snapshot of the winning column's live entries
	pCols, pVals := f.pCols, f.pVals     // pivot row with the pivot column stripped, shared by merges
	lIdx, lMul := f.lIdx[:0], f.lMul[:0]
	defer func() {
		f.rs, f.vs, f.bestRs, f.bestVs, f.pCols, f.pVals = rs, vs, bestRs, bestVs, pCols, pVals
		f.lIdx, f.lMul = lIdx, lMul
	}()

	for k := 0; k < n; k++ {
		// Markowitz pivot search: scan columns in increasing count order,
		// stop after examining a few suitable columns (Suhl-style partial
		// search) — the best pivot among them is almost always as good as
		// the global optimum and the search stays O(candidates).
		const maxExamine = 8
		best := cand{row: -1, col: -1, cost: math.MaxInt}
		examined := 0
	search:
		for c := mk.min(); c <= n; c++ {
			for j := mk.head[c]; j >= 0; j = mk.next[j] {
				// Collect the column's live entries and its magnitude.
				colMax := 0.0
				rs, vs = rs[:0], vs[:0]
				f.visit++
				for _, r := range f.colRows[j] {
					if pivotedRow[r] || f.stamp[r] == f.visit {
						continue
					}
					f.stamp[r] = f.visit
					if v, ok := f.valueAt(r, j); ok {
						rs = append(rs, r)
						vs = append(vs, v)
						if a := math.Abs(v); a > colMax {
							colMax = a
						}
					}
				}
				if colMax < tiny {
					continue // numerically empty column; unusable
				}
				examined++
				for i, r := range rs {
					v := vs[i]
					if math.Abs(v) < tau*colMax {
						continue
					}
					cost := (len(f.rowCols[r]) - 1) * (c - 1)
					if cost < best.cost || (cost == best.cost && math.Abs(v) > math.Abs(best.val)) {
						best = cand{row: r, col: j, val: v, cost: cost}
					}
				}
				if best.col == j {
					// Snapshot the column's live entries: if this column
					// wins, the elimination loop walks exactly this sequence
					// instead of re-validating colRows[pc] entry by entry.
					bestRs = append(bestRs[:0], rs...)
					bestVs = append(bestVs[:0], vs...)
				}
				if best.cost == 0 {
					break search // a singleton pivot cannot be beaten
				}
				if examined >= maxExamine && best.cost != math.MaxInt {
					break search
				}
			}
		}
		if best.cost == math.MaxInt {
			f.reset(0)
			return ErrSingular
		}

		pr, pc, piv := best.row, best.col, best.val
		pivotedRow[pr] = true
		doneCol[pc] = true
		mk.remove(pc)
		f.rowAtPos[k] = pr
		f.posOfRow[pr] = k
		f.colAtPos[k] = pc
		f.posOfCol[pc] = k
		f.lPivRow[k] = pr
		// The pivot row's other columns lose one active entry each. The same
		// pass strips the pivot column out of the pivot row, so every merge
		// below shares one pre-stripped copy instead of re-skipping pc.
		pCols, pVals = pCols[:0], pVals[:0]
		for i, c := range f.rowCols[pr] {
			if c == pc {
				continue
			}
			pCols = append(pCols, c)
			pVals = append(pVals, f.rowVals[pr][i])
			if !doneCol[c] {
				mk.adjust(c, -1)
			}
		}

		// Eliminate the pivot column from every other active row. The search
		// already collected, deduplicated, and validated the winning column's
		// entries — walk the snapshot rather than colRows[pc] again. (No row
		// changed between the search and here; only pr became pivoted.)
		f.lStart[k] = len(lIdx)
		for i, r := range bestRs {
			if r == pr {
				continue
			}
			m := bestVs[i] / piv
			lIdx = append(lIdx, r)
			lMul = append(lMul, m)
			f.combineRow(r, pc, m, pCols, pVals, doneCol, mk)
		}
	}
	// L's windows.
	f.lStart[n] = len(lIdx)
	f.nnzL = len(lIdx)
	for k := 0; k < n; k++ {
		lo, hi := f.lStart[k], f.lStart[k+1]
		f.lRows[k], f.lVals[k] = lIdx[lo:hi:hi], lMul[lo:hi:hi]
	}

	// Health record: element growth (largest |U entry| after elimination
	// over the largest |input entry|) and the diagonal magnitude range.
	// One O(nnz) scan plus n binary searches — noise next to elimination.
	finalMax := 0.0
	for r := 0; r < n; r++ {
		for _, v := range f.rowVals[r] {
			if a := math.Abs(v); a > finalMax {
				finalMax = a
			}
		}
	}
	if maxAbs > 0 {
		f.health.GrowthFactor = finalMax / maxAbs
	}
	if n > 0 {
		minD, maxD := math.Inf(1), 0.0
		for k := 0; k < n; k++ {
			v, _ := f.valueAt(f.rowAtPos[k], f.colAtPos[k])
			a := math.Abs(v)
			if a < minD {
				minD = a
			}
			if a > maxD {
				maxD = a
			}
		}
		f.health.MinDiag, f.health.MaxDiag = minD, maxD
	}
	return nil
}

// reset sizes every per-dimension array for an n×n factorization and clears
// the state a factorization accumulates — etas, counters, the lazy L
// transpose — keeping all storage for reuse.
func (f *SparseLU) reset(n int) {
	f.n = n
	f.rowCols, f.rowVals = resize(f.rowCols, n), resize(f.rowVals, n)
	f.colRows = resize(f.colRows, n)
	f.rowAtPos, f.posOfRow = resize(f.rowAtPos, n), resize(f.posOfRow, n)
	f.colAtPos, f.posOfCol = resize(f.colAtPos, n), resize(f.posOfCol, n)
	f.lRows, f.lVals = resize(f.lRows, n), resize(f.lVals, n)
	f.lStart, f.lPivRow = resize(f.lStart, n+1), resize(f.lPivRow, n)
	f.nnzL = 0
	f.vCols, f.vVals = f.vCols[:0], f.vVals[:0]
	f.etas = f.etas[:0]
	f.updates = 0

	f.w = resize(f.w, n)
	clear(f.w)
	f.tmp = resize(f.tmp, n)
	f.stamp = resize(f.stamp, n)

	f.mk.colCount = resize(f.mk.colCount, n)
	clear(f.mk.colCount)
	f.rowNNZ = resize(f.rowNNZ, n)
	clear(f.rowNNZ)
	f.pivotedRow, f.doneCol = resize(f.pivotedRow, n), resize(f.doneCol, n)
	clear(f.pivotedRow)
	clear(f.doneCol)

	f.rowStepsBuilt = false
	f.mask = resize(f.mask, (n+63)/64)
	f.mask.clear()
	f.stampB = resize(f.stampB, n)
	f.health = HealthStats{}
}

// mkwState maintains the Markowitz count buckets: doubly-linked lists of
// active column ids keyed by live entry count, with O(1) relinking on every
// count change and a monotonically-advancing minimum-count cursor.
type mkwState struct {
	colCount   []int
	head       []int // head[c]: first column with (clamped) count c, -1 if none
	next, prev []int // list links, by column id
	minCount   int
	n          int
}

// init links columns 0..n-1 by their counts in colCount, reusing the list
// storage of earlier factorizations.
func (m *mkwState) init(n int) {
	m.head = resize(m.head, n+1)
	m.next, m.prev = resize(m.next, n), resize(m.prev, n)
	m.minCount, m.n = n+1, n
	for c := range m.head {
		m.head[c] = -1
	}
	for j := 0; j < n; j++ {
		m.link(j)
	}
}

func (m *mkwState) bucket(j int) int { return boundCount(m.colCount[j], m.n) }

func (m *mkwState) link(j int) {
	c := m.bucket(j)
	m.next[j] = m.head[c]
	m.prev[j] = -1
	if m.head[c] >= 0 {
		m.prev[m.head[c]] = j
	}
	m.head[c] = j
	if c < m.minCount {
		m.minCount = c
	}
}

func (m *mkwState) unlink(j int) {
	c := m.bucket(j)
	if m.prev[j] >= 0 {
		m.next[m.prev[j]] = m.next[j]
	} else {
		m.head[c] = m.next[j]
	}
	if m.next[j] >= 0 {
		m.prev[m.next[j]] = m.prev[j]
	}
}

// adjust changes column j's live count by delta, relinking its bucket.
func (m *mkwState) adjust(j, delta int) {
	m.unlink(j)
	m.colCount[j] += delta
	m.link(j)
}

// remove takes a pivoted column out of the structure for good.
func (m *mkwState) remove(j int) { m.unlink(j) }

// min returns the smallest count with a live column, advancing the cursor
// past drained buckets (link() rewinds it when a count drops below it).
func (m *mkwState) min() int {
	for m.minCount <= m.n && m.head[m.minCount] < 0 {
		m.minCount++
	}
	return m.minCount
}

// boundCount clamps a column count into the bucket index range.
func boundCount(c, n int) int {
	if c < 0 {
		return 0
	}
	if c > n {
		return n
	}
	return c
}

// combineRow applies row_r ← row_r − m·row_pivot, where (bcs, bvs) is the
// pivot row with the pivot column pc already stripped; row r's own pc entry
// is dropped exactly during the merge. Column counts and buckets are
// maintained for fill and exact cancellations. The merged row is written
// straight to the arena's tail and becomes row r there, so the merge needs
// no scratch and no copy back.
func (f *SparseLU) combineRow(r, pc int, m float64, bcs []int, bvs []float64, doneCol []bool, mk *mkwState) {
	start := f.vReserve(len(f.rowCols[r]) + len(bcs))
	ac, av := f.rowCols[r], f.rowVals[r]
	nc := f.vCols[start:start]
	nv := f.vVals[start:start]
	la, lb := len(ac), len(bcs)
	// Locate the eliminated entry pc once (rows are sorted, and a combined
	// row always holds pc — it is drawn from the pivot column's pattern), so
	// the merge below can bulk-copy untouched runs without a per-element
	// pc test.
	ipc := 0
	for hi := la; ipc < hi; {
		if mid := int(uint(ipc+hi) >> 1); ac[mid] < pc {
			ipc = mid + 1
		} else {
			hi = mid
		}
	}
	copyRun := func(lo, hi int) {
		if ipc >= lo && ipc < hi {
			nc = append(nc, ac[lo:ipc]...)
			nv = append(nv, av[lo:ipc]...)
			lo = ipc + 1
		}
		nc = append(nc, ac[lo:hi]...)
		nv = append(nv, av[lo:hi]...)
	}
	ia, ib := 0, 0
	for ia < la && ib < lb {
		switch ca, cb := ac[ia], bcs[ib]; {
		case ca < cb:
			// Advance over the whole run of row entries below the next
			// pivot-row column, then move it with two appends (memmove)
			// instead of one append per element — on the dense late-solve
			// bases this merge is the factorization's dominant cost.
			run := ia + 1
			for run < la && ac[run] < cb {
				run++
			}
			copyRun(ia, run)
			ia = run
		case cb < ca:
			if v := -m * bvs[ib]; v != 0 {
				nc = append(nc, cb)
				nv = append(nv, v)
				// Fill-in: row r newly holds column cb.
				f.colRows[cb] = append(f.colRows[cb], r)
				if !doneCol[cb] {
					mk.adjust(cb, 1)
				}
			}
			ib++
		default:
			if v := av[ia] - m*bvs[ib]; v != 0 {
				nc = append(nc, ca)
				nv = append(nv, v)
			} else if !doneCol[ca] {
				mk.adjust(ca, -1) // exact cancellation
			}
			ia++
			ib++
		}
	}
	if ia < la {
		copyRun(ia, la)
	}
	for ; ib < lb; ib++ {
		if v := -m * bvs[ib]; v != 0 {
			cb := bcs[ib]
			nc = append(nc, cb)
			nv = append(nv, v)
			f.colRows[cb] = append(f.colRows[cb], r)
			if !doneCol[cb] {
				mk.adjust(cb, 1)
			}
		}
	}
	end := start + len(nc)
	f.rowCols[r], f.rowVals[r] = f.vCols[start:end:end], f.vVals[start:end:end]
	f.vCols, f.vVals = f.vCols[:end], f.vVals[:end]
}

// vReserve makes room for need entries at the arena's tail and returns the
// tail's offset. When the tail is short it compacts: the live row windows,
// spare capacity included, are copied back to back into the spare buffer,
// which becomes the arena. The spare buffer is first grown to twice what
// that needs if the windows would fill more than half of it, so a
// compaction frees at least as much as it keeps (amortized O(1) per
// appended entry) and fill creeping up across updates does not reallocate
// at every compaction.
func (f *SparseLU) vReserve(need int) int {
	if len(f.vCols)+need <= cap(f.vCols) {
		return len(f.vCols)
	}
	live := 0
	for _, cols := range f.rowCols {
		live += cap(cols)
	}
	if want := 2 * (live + need); cap(f.vColsB) < want {
		f.vColsB = make([]int, 0, 2*want)
		f.vValsB = make([]float64, 0, 2*want)
	}
	nc, nv := f.vColsB[:0], f.vValsB[:0]
	for r, cols := range f.rowCols {
		lo, hi, end := len(nc), len(nc)+len(cols), len(nc)+cap(cols)
		nc = append(nc, cols[:cap(cols)]...)
		nv = append(nv, f.rowVals[r][:cap(cols)]...)
		f.rowCols[r], f.rowVals[r] = nc[lo:hi:end], nv[lo:hi:end]
	}
	f.vColsB, f.vValsB = f.vCols[:0], f.vVals[:0]
	f.vCols, f.vVals = nc, nv
	return len(nc)
}

// moveRow relocates row r to the arena's tail with capacity for size
// entries, so it can grow in place.
func (f *SparseLU) moveRow(r, size int) {
	start := f.vReserve(size)
	n := len(f.rowCols[r])
	f.vCols, f.vVals = f.vCols[:start+size], f.vVals[:start+size]
	copy(f.vCols[start:], f.rowCols[r])
	copy(f.vVals[start:], f.rowVals[r])
	f.rowCols[r] = f.vCols[start : start+n : start+size]
	f.rowVals[r] = f.vVals[start : start+n : start+size]
}

// NNZ returns the stored nonzeros of the factorization — L multipliers, V
// entries, and Forrest–Tomlin eta coefficients — the fill-in record
// benchmarks report next to pivot counts.
func (f *SparseLU) NNZ() int {
	nnz := f.nnzL
	for r := 0; r < f.n; r++ {
		nnz += len(f.rowCols[r])
	}
	for i := range f.etas {
		nnz += len(f.etas[i].rows)
	}
	return nnz
}

// Updates returns the number of Forrest–Tomlin updates absorbed since
// factorization.
func (f *SparseLU) Updates() int { return f.updates }

// applyForward computes F⁻¹ y in place: the initial L in position order,
// then the update etas in append order.
func (f *SparseLU) applyForward(y Vector) {
	for k := 0; k < f.n; k++ {
		ypk := y[f.lPivRow[k]]
		if ypk == 0 {
			continue
		}
		rows, vals := f.lRows[k], f.lVals[k]
		for i, r := range rows {
			y[r] -= vals[i] * ypk
		}
	}
	for i := range f.etas {
		e := &f.etas[i]
		s := 0.0
		for j, r := range e.rows {
			s += e.vals[j] * y[r]
		}
		y[e.row] -= s
	}
}

// Solve solves B x = b through the factorization and any absorbed updates.
// b is not modified; the result is indexed by column slot.
func (f *SparseLU) Solve(b Vector) Vector {
	x := NewVector(len(b))
	f.SolveInto(x, b)
	return x
}

// SolveInto is Solve writing into x, which may alias b; it allocates
// nothing.
func (f *SparseLU) SolveInto(x, b Vector) {
	if len(b) != f.n || len(x) != f.n {
		panic("mat: SparseLU.Solve dimension mismatch")
	}
	y := f.tmp
	copy(y, b)
	f.applyForward(y)
	// V backward substitution in descending position order.
	for k := f.n - 1; k >= 0; k-- {
		r, c := f.rowAtPos[k], f.colAtPos[k]
		s := y[r]
		cols, vals := f.rowCols[r], f.rowVals[r]
		diag := 0.0
		for i, cc := range cols {
			if cc == c {
				diag = vals[i]
				continue
			}
			s -= vals[i] * x[cc]
		}
		x[c] = s / diag
	}
}

// SolveTInto solves the transposed system Bᵀ y = c through the
// factorization and any absorbed updates, writing y into w, which may alias
// c. c is indexed by column slot, y by row. This is the BTRAN of the revised
// simplex; it allocates nothing.
func (f *SparseLU) SolveTInto(w, c Vector) {
	if len(c) != f.n || len(w) != f.n {
		panic("mat: SparseLU.SolveTInto dimension mismatch")
	}
	c = f.tmp[:copy(f.tmp, c)]
	clear(w)
	// Vᵀ forward solve in position order, by row scatter: fixing w at
	// position k scatters row rₖ's contributions forward into the per-column
	// accumulators (every entry (r, c) of V has pos(r) ≤ pos(c), so the
	// contributions land strictly ahead of the scan), and each accumulator
	// is consumed exactly once, at its own position — which both restores
	// the all-zero workspace invariant and makes the pass O(nnz) over the
	// rows with nonzero solution entries, instead of a column walk with a
	// lookup per candidate over all n positions.
	acc := f.w
	for k := 0; k < f.n; k++ {
		r, cc := f.rowAtPos[k], f.colAtPos[k]
		s := c[cc] - acc[cc]
		acc[cc] = 0
		if s == 0 {
			continue // w[r] = 0: contributes nothing downstream
		}
		diag, _ := f.valueAt(r, cc)
		wr := s / diag
		w[r] = wr
		cols, vals := f.rowCols[r], f.rowVals[r]
		for i, c2 := range cols {
			if c2 != cc {
				acc[c2] += vals[i] * wr
			}
		}
	}
	// Eta transposes in reverse append order, then Lᵀ in reverse position
	// order.
	f.etaTDense(w)
	f.lTDense(w)
}

// valueAt returns V[r][c] via binary search of row r.
func (f *SparseLU) valueAt(r, c int) (float64, bool) {
	cols := f.rowCols[r]
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if cols[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && cols[lo] == c {
		return f.rowVals[r][lo], true
	}
	return 0, false
}

// ErrUpdateUnstable is returned by Update when the incremental factorization
// cannot absorb the column replacement accurately — a tiny post-elimination
// diagonal or explosive multiplier growth. The factorization is invalid
// afterwards; the caller must refactorize from the updated basis.
var ErrUpdateUnstable = fmt.Errorf("mat: Forrest–Tomlin update numerically unstable")

// debugf routes an LUDEBUG line through the installed Debugf hook, or the
// plain structured logger when no hook is set.
func (f *SparseLU) debugf(format string, args ...any) {
	if f.Debugf != nil {
		f.Debugf(format, args...)
		return
	}
	obs.Debugf(nil, "lu", format, args...)
}

// Update replaces the basis column at slot with the sparse column given by
// (rows, vals) and restores triangularity with one Forrest–Tomlin step: the
// column's partial-FTRAN spike replaces the leaving column of V, the spiked
// row/column pair is cyclically rotated to the last position, and the
// displaced row is re-eliminated, appending one sparse row eta. Cost is
// O(n + nnz). On ErrUpdateUnstable the factorization must be rebuilt (the
// update is applied destructively before the failure can be detected).
func (f *SparseLU) Update(slot int, rows []int, vals []float64) error {
	if slot < 0 || slot >= f.n {
		panic(fmt.Sprintf("mat: SparseLU.Update slot %d outside [0,%d)", slot, f.n))
	}
	// Spike: the entering column pushed through the forward transforms, in
	// the dense solve scratch.
	sp := f.tmp
	clear(sp)
	for k, r := range rows {
		sp[r] = vals[k]
	}
	f.applyForward(sp)

	t := f.posOfCol[slot]
	rt := f.rowAtPos[t]

	// Remove column slot from V (validated, deduplicated walk), then insert
	// the spike's nonzeros in ascending row order.
	f.visit++
	for _, r := range f.colRows[slot] {
		if f.stamp[r] == f.visit {
			continue
		}
		f.stamp[r] = f.visit
		f.removeRowEntry(r, slot)
	}
	f.colRows[slot] = f.colRows[slot][:0]
	spikeMax := 0.0
	for r, v := range sp {
		if v != 0 {
			f.insertRowEntry(r, slot, v)
			f.colRows[slot] = append(f.colRows[slot], r)
			if a := math.Abs(v); a > spikeMax {
				spikeMax = a
			}
		}
	}

	// Cyclic shift: positions t..n-1 rotate up; the spiked pair lands last.
	for p := t; p < f.n-1; p++ {
		f.rowAtPos[p] = f.rowAtPos[p+1]
		f.posOfRow[f.rowAtPos[p]] = p
		f.colAtPos[p] = f.colAtPos[p+1]
		f.posOfCol[f.colAtPos[p]] = p
	}
	f.rowAtPos[f.n-1] = rt
	f.posOfRow[rt] = f.n - 1
	f.colAtPos[f.n-1] = slot
	f.posOfCol[slot] = f.n - 1

	// Re-eliminate row rt against the rows now above it. Scatter the row,
	// then walk positions t..n-2 in order; fill lands strictly ahead of the
	// scan, so one pass suffices. The multipliers go straight into the
	// storage of the next eta slot, which a refactorization may have
	// retired with room to spare.
	touched := f.utouch[:0]
	for i, c := range f.rowCols[rt] {
		f.w[c] = f.rowVals[rt][i]
		touched = append(touched, c)
	}
	ne := len(f.etas)
	if ne == cap(f.etas) {
		f.etas = append(f.etas, ftEta{})[:ne]
	}
	eta := &f.etas[:ne+1][ne]
	eRows, eVals := eta.rows[:0], eta.vals[:0]
	growth := 0.0
	for p := t; p < f.n-1; p++ {
		c := f.colAtPos[p]
		val := f.w[c]
		if val == 0 {
			continue
		}
		f.w[c] = 0
		pr := f.rowAtPos[p]
		diag, ok := f.valueAt(pr, c)
		if !ok || diag == 0 {
			f.health.FTRejections++
			if luDebug {
				f.debugf("update reject missing diag at pos %d", p)
			}
			f.clearScatter(touched)
			f.utouch = touched
			return ErrUpdateUnstable
		}
		m := val / diag
		if a := math.Abs(m); a > growth {
			growth = a
		}
		eRows = append(eRows, pr)
		eVals = append(eVals, m)
		cols, vs := f.rowCols[pr], f.rowVals[pr]
		for i, cc := range cols {
			if cc == c {
				continue
			}
			if f.w[cc] == 0 {
				touched = append(touched, cc)
			}
			f.w[cc] -= m * vs[i]
		}
	}
	newDiag := f.w[slot]
	f.clearScatter(touched)
	f.utouch = touched
	eta.rows, eta.vals = eRows, eVals

	// Stability: the rotated diagonal must carry real magnitude relative to
	// the spike, and the elimination multipliers must not have exploded.
	if newDiag == 0 || math.Abs(newDiag) < 1e-11*(spikeMax+1e-300) || growth > 1e8 {
		f.health.FTRejections++
		if luDebug {
			f.debugf("update reject newDiag %g spikeMax %g growth %g etas %d", newDiag, spikeMax, growth, len(f.etas))
		}
		return ErrUpdateUnstable
	}

	// Row rt collapses to its diagonal entry (slot, newDiag): the old row's
	// other entries were consumed by the elimination. Its stale ids in other
	// columns' lists are dropped lazily; the diagonal must be registered in
	// column slot (the spike may have been zero at rt — fill created it).
	f.rowCols[rt], f.rowVals[rt] = f.rowCols[rt][:0], f.rowVals[rt][:0]
	f.insertRowEntry(rt, slot, newDiag)
	f.colRows[slot] = append(f.colRows[slot], rt)

	if len(eRows) > 0 {
		eta.row = rt
		f.etas = f.etas[:ne+1]
	}
	f.updates++
	return nil
}

// clearScatter zeroes the workspace entries recorded in touched.
func (f *SparseLU) clearScatter(touched []int) {
	for _, c := range touched {
		f.w[c] = 0
	}
}

// removeRowEntry deletes column c from row r if present.
func (f *SparseLU) removeRowEntry(r, c int) {
	cols := f.rowCols[r]
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if cols[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(cols) || cols[lo] != c {
		return
	}
	f.rowCols[r] = append(cols[:lo], cols[lo+1:]...)
	vals := f.rowVals[r]
	f.rowVals[r] = append(vals[:lo], vals[lo+1:]...)
}

// insertRowEntry sets V[r][c] = v, inserting in column-sorted position (or
// overwriting an existing entry). A full row first moves to the arena's
// tail with room to grow.
func (f *SparseLU) insertRowEntry(r, c int, v float64) {
	cols := f.rowCols[r]
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if cols[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && cols[lo] == c {
		f.rowVals[r][lo] = v
		return
	}
	if len(cols) == cap(cols) {
		f.moveRow(r, 2*len(cols)+4)
		cols = f.rowCols[r]
	}
	vals := f.rowVals[r]
	cols, vals = cols[:len(cols)+1], vals[:len(vals)+1]
	copy(cols[lo+1:], cols[lo:])
	cols[lo] = c
	copy(vals[lo+1:], vals[lo:])
	vals[lo] = v
	f.rowCols[r], f.rowVals[r] = cols, vals
}
