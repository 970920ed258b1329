package mat

// Sparse Kronecker kernel. The joint transition matrix of k independent
// Markov components under a fixed joint command is the Kronecker product of
// the component matrices, so a composite chain can be *compiled* — its CSR
// form assembled entry-by-entry from the factor CSRs — instead of enumerated
// through a dense |S|×|S| intermediate. KronAll emits rows in order with
// sorted columns, so the result is a valid CSR without any sort/compress
// pass, and the cost is O(nnz(result)) = O(Π nnz(factor)).

import (
	"fmt"
	"math"
)

// kronDims multiplies factor dimensions with an overflow guard; composing
// many components can silently wrap an int product long before memory runs
// out, and a negative or wrapped dimension must be a loud failure.
func kronDims(ms []*CSR) (rows, cols, nnz int) {
	rows, cols, nnz = 1, 1, 1
	for _, m := range ms {
		if m == nil {
			panic("mat: Kron of nil matrix")
		}
		rows = mulCheck(rows, m.rows)
		cols = mulCheck(cols, m.cols)
		nnz = mulCheck(nnz, m.NNZ())
	}
	return rows, cols, nnz
}

func mulCheck(a, b int) int {
	if a < 0 || b < 0 {
		panic(fmt.Sprintf("mat: Kron with negative dimension %d×%d", a, b))
	}
	if b != 0 && a > math.MaxInt/b {
		panic(fmt.Sprintf("mat: Kron dimension product %d×%d overflows", a, b))
	}
	return a * b
}

// KronAll returns ms[0] ⊗ ms[1] ⊗ … ⊗ ms[k-1] in CSR form, with later
// factors varying fastest. Rather than folding k−1 pairwise products —
// which materializes every intermediate — it enumerates the k-way cross
// product of factor rows once, emitting each joint entry directly at its
// final coordinates. Nested iteration over the (sorted) factor rows yields
// sorted joint columns, so the output needs no compression pass. It panics
// when called with no factors.
func KronAll(ms ...*CSR) *CSR {
	if len(ms) == 0 {
		panic("mat: KronAll needs at least one factor")
	}
	if len(ms) == 1 {
		return ms[0].Clone()
	}
	rows, cols, nnz := kronDims(ms)
	rowPtr := make([]int, rows+1)
	colIdx := make([]int, 0, nnz)
	vals := make([]float64, 0, nnz)

	k := len(ms)
	rowIdx := make([]int, k) // current factor row per level

	// emit writes the joint entries of the current joint row (fixed by
	// rowIdx) at level lv and beyond, given the column base and value
	// product accumulated over levels < lv.
	var emit func(lv, colBase int, prod float64)
	emit = func(lv, colBase int, prod float64) {
		cs, vs := ms[lv].RowNZ(rowIdx[lv])
		if lv == k-1 {
			for l, j := range cs {
				colIdx = append(colIdx, colBase+j)
				vals = append(vals, prod*vs[l])
			}
			return
		}
		for l, j := range cs {
			emit(lv+1, (colBase+j)*ms[lv+1].cols, prod*vs[l])
		}
	}

	// enumerate walks joint rows in increasing index order (later factors
	// fastest), closing each row's pointer as it completes.
	var enumerate func(lv, rowBase int)
	enumerate = func(lv, rowBase int) {
		for i := 0; i < ms[lv].rows; i++ {
			rowIdx[lv] = i
			if lv == k-1 {
				emit(0, 0, 1)
				rowPtr[rowBase+i+1] = len(vals)
			} else {
				enumerate(lv+1, (rowBase+i)*ms[lv+1].rows)
			}
		}
	}
	enumerate(0, 0)
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}
