package mat

// KronOp is the lazy (matrix-free) counterpart of KronAll: it represents the
// Kronecker product ms[0] ⊗ ms[1] ⊗ … ⊗ ms[k-1] of square CSR factors — later
// factors varying fastest, the KronAll convention — without ever materializing
// the Π nnz(factor) joint nonzeros. Matrix-vector products are evaluated by
// the vec-trick: one mode-wise sweep per factor, each costing
// nnz(factor)·(N/dim(factor)) flops, so a full application is
// Σᵢ nnz(Aᵢ)·(N/|Sᵢ|) — linear in N for fixed factor out-degrees, versus the
// Π nnzᵢ cost of a product with the expanded CSR.
//
// Row sampling (the simulation step of a product-form Markov chain) is
// likewise factored: one inverse-CDF walk per factor row, O(Σᵢ out-degreeᵢ)
// per sample, with no heap allocation and no shared mutable state.
//
// The scratch buffers behind MulVecInto and MulVecTInto belong to the
// operator, so those methods must not be called concurrently on one KronOp;
// RowSample, Rows, Cols and FactorNNZ are safe for concurrent use. Factors
// are referenced, not copied — callers must not mutate them.

import "fmt"

// KronOp applies a Kronecker product of square sparse factors lazily.
type KronOp struct {
	factors []*CSR
	stride  []int  // stride[f] = Π_{l>f} dim(l): joint-index weight of factor f
	ident   []bool // factor f is an identity matrix (its sweep is a no-op)
	n       int    // joint dimension

	scratchA, scratchB Vector // lazily allocated ping-pong buffers
}

// NewKronOp wraps the given square factors in a lazy Kronecker operator,
// with later factors varying fastest (NewKronOp(a, b) represents KronAll(a, b)).
// It panics when called with no factors, a nil or non-square factor, or a
// joint dimension that overflows int.
func NewKronOp(factors ...*CSR) *KronOp {
	if len(factors) == 0 {
		panic("mat: NewKronOp needs at least one factor")
	}
	op := &KronOp{
		factors: factors,
		stride:  make([]int, len(factors)),
		ident:   make([]bool, len(factors)),
		n:       1,
	}
	for i, f := range factors {
		if f == nil {
			panic("mat: NewKronOp of nil factor")
		}
		if f.rows != f.cols {
			panic(fmt.Sprintf("mat: NewKronOp factor %d is %dx%d, want square", i, f.rows, f.cols))
		}
		op.n = mulCheck(op.n, f.rows)
		op.ident[i] = f.isIdentity()
	}
	s := 1
	for i := len(factors) - 1; i >= 0; i-- {
		op.stride[i] = s
		s = mulCheck(s, factors[i].rows)
	}
	return op
}

// isIdentity reports whether m is exactly the identity matrix.
func (m *CSR) isIdentity() bool {
	if m.rows != m.cols || m.NNZ() != m.rows {
		return false
	}
	for i := 0; i < m.rows; i++ {
		cols, vals := m.RowNZ(i)
		if len(cols) != 1 || cols[0] != i || vals[0] != 1 {
			return false
		}
	}
	return true
}

// IdentityCSR returns the n×n identity in CSR form — the natural padding
// factor when embedding a smaller operator in a larger product space
// (e.g. NewKronOp(p, IdentityCSR(m)) applies p to the slow index only).
func IdentityCSR(n int) *CSR {
	if n < 0 {
		panic(fmt.Sprintf("mat: IdentityCSR with negative dimension %d", n))
	}
	rowPtr := make([]int, n+1)
	colIdx := make([]int, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = i + 1
		colIdx[i] = i
		vals[i] = 1
	}
	return &CSR{rows: n, cols: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// Rows returns the joint dimension Π dim(factor).
func (op *KronOp) Rows() int { return op.n }

// Cols returns the joint dimension (the operator is square).
func (op *KronOp) Cols() int { return op.n }

// FactorNNZ returns Σᵢ nnz(factor i) — the operator's whole storage
// footprint, versus Π nnzᵢ for the expanded joint CSR.
func (op *KronOp) FactorNNZ() int {
	s := 0
	for _, f := range op.factors {
		s += f.NNZ()
	}
	return s
}

// buffers returns the two lazily allocated ping-pong sweep buffers.
func (op *KronOp) buffers() (Vector, Vector) {
	if op.scratchA == nil {
		op.scratchA = NewVector(op.n)
		op.scratchB = NewVector(op.n)
	}
	return op.scratchA, op.scratchB
}

// apply runs the k mode-wise sweeps. transpose selects yᵀ = xᵀ·(⊗A) (the
// distribution step) versus y = (⊗A)·x. Identity factors are skipped — their
// sweep is the identity map.
func (op *KronOp) apply(dst, x Vector, transpose bool) {
	if len(x) != op.n || len(dst) != op.n {
		panic(fmt.Sprintf("mat: KronOp apply dimension mismatch n=%d len(x)=%d len(dst)=%d", op.n, len(x), len(dst)))
	}
	cur, nxt := op.buffers()
	copy(cur, x)
	for fi, f := range op.factors {
		if op.ident[fi] {
			continue
		}
		nf := f.rows
		right := op.stride[fi]
		left := op.n / (nf * right)
		for i := range nxt {
			nxt[i] = 0
		}
		for l := 0; l < left; l++ {
			base := l * nf * right
			for i := 0; i < nf; i++ {
				cols, vals := f.RowNZ(i)
				if transpose {
					// Row i scatters into the column blocks: the factor is
					// applied from the right of a row vector.
					src := cur[base+i*right : base+(i+1)*right]
					for k, j := range cols {
						v := vals[k]
						seg := nxt[base+j*right : base+(j+1)*right]
						for r, s := range src {
							seg[r] += v * s
						}
					}
				} else {
					// Row i gathers from the column blocks: ordinary P·v.
					seg := nxt[base+i*right : base+(i+1)*right]
					for k, j := range cols {
						v := vals[k]
						src := cur[base+j*right : base+(j+1)*right]
						for r, s := range src {
							seg[r] += v * s
						}
					}
				}
			}
		}
		cur, nxt = nxt, cur
	}
	copy(dst, cur)
}

// MulVecTInto writes dst = x·(⊗A) (x as a row vector; dst may not alias x)
// — the one-step distribution evolution of the product chain — in
// Σᵢ nnz(Aᵢ)·(N/|Sᵢ|) flops.
func (op *KronOp) MulVecTInto(dst, x Vector) { op.apply(dst, x, true) }

// MulVecInto writes dst = (⊗A)·v (v as a column vector; dst may not alias
// v) — the value-vector application — at the same factored cost as
// MulVecTInto.
func (op *KronOp) MulVecInto(dst, v Vector) { op.apply(dst, v, false) }

// RowSample draws a successor of joint state i: each factor's row is sampled
// independently by an inverse-CDF walk over its stored entries (residual
// probability mass from implicit zeros lands on the last stored entry, the
// sampleRow convention used throughout the simulator), consuming one uniform
// from u per non-identity factor in factor order. Identity factors pass their
// index digit through without a draw. Cost O(Σᵢ out-degreeᵢ), no allocation;
// safe for concurrent use.
func (op *KronOp) RowSample(i int, u func() float64) int {
	if i < 0 || i >= op.n {
		panic(fmt.Sprintf("mat: KronOp.RowSample state %d outside [0,%d)", i, op.n))
	}
	j := 0
	for fi, f := range op.factors {
		ri := (i / op.stride[fi]) % f.rows
		if op.ident[fi] {
			j += ri * op.stride[fi]
			continue
		}
		cols, vals := f.RowNZ(ri)
		uu := u()
		jf := cols[len(cols)-1]
		for k, p := range vals {
			uu -= p
			if uu <= 0 {
				jf = cols[k]
				break
			}
		}
		j += jf * op.stride[fi]
	}
	return j
}
