// Package lp provides an exact linear-programming solver used to solve the
// policy-optimization problems LP2/LP3/LP4 of Benini et al. (TCAD 1999,
// Appendix A).
//
// The paper used PCx, an interior-point research code. This reproduction
// substitutes a two-phase **revised simplex** method: the constraint matrix
// is stored column-sparse (policy LPs have one column per (state, command)
// pair with only a handful of nonzeros each — the queue law of Eq. 3 is
// banded and the component chains have tiny out-degrees), only the m×m
// basis is factorized, and pricing and ratio tests walk sparse columns.
// The basis size alone picks the kernel: below 256 rows a dense LU with
// product-form eta updates and Dantzig pricing, from 256 rows up a
// Markowitz sparse LU with Forrest–Tomlin updates and Devex pricing. Cost
// per pivot is O(nnz(A) + m²) at worst instead of the O(rows × cols) of a
// full tableau — the difference between thrashing and tractable on large
// composed systems.
//
// Policy-optimization LPs span four orders of magnitude in their
// transition probabilities, so the solver keeps the original standard-form
// data and refactorizes the basis periodically, which eliminates the error
// accumulation that incremental updates suffer on such systems. Their
// discount factors reach 1−10⁻⁷, but the frequency LP core builds keeps its
// own scale there: a normalization row Σx = 1 stands in for one balance
// row, so its basic values and duals stay bounded as α → 1 (see
// core.BuildFrequencyLP), and the solver needs no scale-relative pricing
// or rhs perturbation. It runs the exact rhs and the absolute optimality
// test d_j ≥ −costTol. A Bland's-rule fallback guarantees termination on
// degenerate instances, and every reported solution is verified against
// the original constraints. A Solve makes at most two attempts, warm then
// cold, and the cold verdict is final.
//
// The recovery paths and the tests that reach them:
//
//	Update rejected (FT step unstable)     early refactor, same verdict  TestUpdateFailureRecovers
//	cold Refactor fails                    Numerical, one attempt        TestColdRefactorFailureIsFinal
//	rebuild after a rejected Update fails  Numerical, one attempt        TestRecoveryRefactorFailureIsFinal
//	rebuild fails in artificial drive-out  phase 2 rebuilds, Optimal     TestDriveOutRefactorFailureRecovers
//	warm Refactor fails                    cold fallback                 TestWarmRefactorFailureFallsBackCold
//	warm basis has a nonzero artificial    cold fallback                 TestWarmNonzeroArtificialFallsBackCold
//	warm optimum fails recomputed d_j      cold fallback                 FuzzLoadCache seed drifted-reduced-costs
//	final values fail verify's LE row      Numerical, one attempt        TestColdVerifyRejectionIsNumerical
//	final values fail verify's GE row      Numerical, one attempt        TestColdVerifyGERejectionIsNumerical
//	final values fail verify's EQ row      Numerical, one attempt        TestColdVerifyEQRejectionIsNumerical
//	final values hold a NaN or ±Inf        Numerical, one attempt        TestColdVerifyNonFiniteIsNumerical
//	warm basis primal infeasible           dual-simplex repair           TestWarmDualSimplexAtScale
//	dual pivot with |w[row]| ≤ pivotTol    cold fallback                 TestWarmDualTinyPivotFallsBackCold
//	basis by rows names a column twice     cold fallback                 TestBasisFromRows
//	Problem.Crash fails on a done context  Cancelled                     TestBasisFromRows
//	negative basics after phase 2          dual-simplex repair, again    TestHighDiscountRedundantBound
//	context cancelled                      Cancelled at the next poll    TestSolveCancellationWalk
//	pivot budget spent                     BudgetExceeded, no fallback   TestWithMaxPivotsWarm
//
// Unreached so far: the stall switch to Bland's rule, the iteration limit.
//
// The float64 answers are checked, not trusted: CertifyExact reads a
// returned basis in exact rational arithmetic and proves it optimal (or
// says by how much it is not), which is what the tests hold every solver
// configuration to.
//
// Problems are stated over nonnegative variables:
//
//	min (or max)  c'x
//	subject to    a_i'x  (<= | = | >=)  b_i     for each constraint i
//	              x >= 0
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/mat"
)

// Sense selects minimization or maximization of the objective.
type Sense int

// Objective senses.
const (
	Minimize Sense = iota
	Maximize
)

// Rel is the relation of a constraint row.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // a'x <= b
	EQ            // a'x == b
	GE            // a'x >= b
)

// String returns the conventional symbol for the relation.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	}
	return "?"
}

// Constraint is one row a'x (Rel) b of a problem, stored sparsely: Cols
// holds the indices of the nonzero coefficients and Vals the corresponding
// values. Build rows through AddConstraint (dense input) or AddConstraintNZ
// (sparse input); both normalize into this form.
//
// Invariant: Cols is strictly increasing and no entry of Vals is zero.
// The standard-form assembly (which transposes rows straight into columns,
// with no sort or merge of its own) relies on it; code that rewrites a row
// in place must preserve it.
type Constraint struct {
	Name string
	Cols []int
	Vals []float64
	Rel  Rel
	RHS  float64
}

// Problem is a linear program over nonnegative variables.
type Problem struct {
	Sense Sense
	// Obj holds the objective coefficients; its length fixes the number of
	// variables.
	Obj  []float64
	Cons []Constraint
	// Crash optionally names where a cold solve starts. A Solve with no
	// warm basis and no pivot budget calls it and starts from the basis it
	// returns by rows (see BasisFromRows) instead of the slack basis; nil
	// rows, or a basis the simplex cannot use, leave the slack start. It
	// reads p's current data and may fail only when ctx is done, which
	// ends the solve Cancelled. A budgeted solve never calls it, so the
	// budget bounds all of its work. core.BuildFrequencyLP sets it on
	// frequency LPs at scale (see core.Optimize).
	Crash func(ctx context.Context, p *Problem) ([]int, error)
}

// NewProblem returns an empty problem with n variables.
func NewProblem(sense Sense, n int) *Problem {
	return &Problem{Sense: sense, Obj: make([]float64, n)}
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return len(p.Obj) }

// AddConstraint appends a constraint row from a dense coefficient vector.
// It panics if the vector length does not match the number of variables.
func (p *Problem) AddConstraint(name string, coeffs []float64, rel Rel, rhs float64) {
	if len(coeffs) != len(p.Obj) {
		panic(fmt.Sprintf("lp: constraint %q has %d coeffs, want %d", name, len(coeffs), len(p.Obj)))
	}
	var cols []int
	var vals []float64
	for j, v := range coeffs {
		if v != 0 {
			cols = append(cols, j)
			vals = append(vals, v)
		}
	}
	p.Cons = append(p.Cons, Constraint{Name: name, Cols: cols, Vals: vals, Rel: rel, RHS: rhs})
}

// AddConstraintNZ appends a constraint row from sparse (index, value) pairs,
// the assembly path used when rows are derived from sparse transition
// structure and materializing a dense coefficient vector per row would cost
// O(vars × rows). Duplicate indices are summed, entries that cancel to zero
// are dropped, and the input slices are not retained. It panics on an index
// outside [0, NumVars()) or mismatched slice lengths.
func (p *Problem) AddConstraintNZ(name string, cols []int, vals []float64, rel Rel, rhs float64) {
	if len(cols) != len(vals) {
		panic(fmt.Sprintf("lp: constraint %q has %d indices but %d values", name, len(cols), len(vals)))
	}
	n := len(p.Obj)
	for _, j := range cols {
		if j < 0 || j >= n {
			panic(fmt.Sprintf("lp: constraint %q index %d outside [0,%d)", name, j, n))
		}
	}
	cc, vv := CompressRow(slices.Clone(cols), slices.Clone(vals))
	p.Cons = append(p.Cons, Constraint{Name: name, Cols: cc, Vals: vv, Rel: rel, RHS: rhs})
}

// CompressRow normalizes raw (column, value) pairs into Constraint form in
// place: it sorts the pairs by column, sums duplicates, drops entries that
// cancel to exactly zero, and returns the compacted prefixes of cols and
// vals. Duplicates are summed in the order sort.Sort leaves them, so equal
// inputs always yield bit-identical rows — which is what lets a caller that
// rewrites a row in place (core.PatchFrequencyLP) compare it against the
// row AddConstraintNZ assembled.
func CompressRow(cols []int, vals []float64) ([]int, []float64) {
	sort.Sort(rowPairs{cols, vals})
	out := 0
	for k := 0; k < len(cols); {
		j := cols[k]
		s := vals[k]
		k++
		for k < len(cols) && cols[k] == j {
			s += vals[k]
			k++
		}
		if s != 0 {
			cols[out] = j
			vals[out] = s
			out++
		}
	}
	return cols[:out], vals[:out]
}

// rowPairs sorts parallel (column, value) slices by column.
type rowPairs struct {
	cols []int
	vals []float64
}

func (p rowPairs) Len() int           { return len(p.cols) }
func (p rowPairs) Less(i, j int) bool { return p.cols[i] < p.cols[j] }
func (p rowPairs) Swap(i, j int) {
	p.cols[i], p.cols[j] = p.cols[j], p.cols[i]
	p.vals[i], p.vals[j] = p.vals[j], p.vals[i]
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
	Numerical
	// Cancelled reports that the solve was abandoned because the caller's
	// context was cancelled or its deadline expired; the pivot loops check
	// the context once per iteration, so cancellation takes effect within a
	// solve, not just between solves.
	Cancelled
	// BudgetExceeded reports that the solve consumed its pivot budget
	// (WithMaxPivots) before reaching optimality. Like Cancelled it is a
	// resource verdict, not a statement about the problem: callers with a
	// freshness requirement (the online adapter) treat it as a failed
	// refresh and keep their previous answer.
	BudgetExceeded
)

// String returns a human-readable status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration limit"
	case Numerical:
		return "numerically unstable"
	case Cancelled:
		return "cancelled"
	case BudgetExceeded:
		return "pivot budget exceeded"
	}
	return "unknown"
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status     Status
	X          []float64 // variable values (valid when Status == Optimal)
	Objective  float64   // c'x in the problem's own sense
	Iterations int
	// Refactorizations counts full basis refactorizations performed by the
	// revised simplex (O(m³) under the dense factorization, O(nnz + fill)
	// under the sparse one) — together with Iterations, the work a solve
	// actually did, which benchmarks report alongside wall time.
	Refactorizations int
	// FactorNNZ reports the stored nonzeros of the final basis
	// factorization — m² under the dense kernel, nnz(L)+nnz(U)+etas under
	// the sparse one — the fill-in statistic that, next to Iterations and
	// Refactorizations, tells whether the Markowitz ordering is containing
	// fill on a given problem family.
	FactorNNZ int
	// WarmStarted reports that the solve reused a caller-supplied Basis and
	// skipped phase 1 (see Solver.Solve).
	WarmStarted bool
	// Crashed reports that a cold solve started from the basis
	// Problem.Crash named, skipped phase 1 and kept it; false when the
	// solve started from, or fell back to, the slack basis.
	Crashed bool
	// Timings is the per-stage wall-clock breakdown of the solve
	// (ftran/btran/price/factor/update) — the attribution that pairs with
	// Iterations and Refactorizations to show where a solve's time went.
	Timings Timings
}

// ErrNotOptimal is wrapped by Solver.Solve when the problem has no optimal
// solution.
var ErrNotOptimal = errors.New("lp: no optimal solution")

// ErrBudgetExceeded is additionally wrapped (alongside ErrNotOptimal) when a
// solve stopped because its WithMaxPivots budget ran out — a resource
// verdict, not a statement about the problem, so callers can match it and
// retry with a larger budget or keep a previous answer.
var ErrBudgetExceeded = errors.New("pivot budget exceeded")

const (
	costTol     = 1e-9  // reduced-cost optimality tolerance
	pivotTol    = 1e-8  // smallest acceptable pivot magnitude (absolute)
	pivotRelTol = 1e-7  // pivot floor relative to ‖w‖∞ of the FTRAN direction
	zeroTol     = 1e-11 // clamp for tiny negative basic values
	// primalTol is how far below zero a basic value may sit and still
	// count as feasible: the exact recomputation clamps values in
	// (−primalTol, 0) to zero, phase 2 accepts its final basis only above
	// −primalTol, and the dual simplex repairs anything below. An
	// absolute tolerance suits the frequency LP, whose basic values sum
	// to 1 at every horizon.
	primalTol = 1e-9
	// tieTol is the ratio tests' tie window, relative to 1+|best ratio|:
	// ratios within it are tied and the tie is broken by pivot magnitude
	// (or Bland's index). It compares step lengths, not basic values, so
	// it is no feasibility tolerance and shares primalTol's value only by
	// coincidence. The primal (ratioTestTol) and dual (dualSimplex) ratio
	// tests use it.
	tieTol = 1e-9
	// artTol is the level above which a basic artificial in an inherited
	// warm basis means the basis describes no feasible point of the new
	// problem (warmTail), so the attempt falls back cold. It is 100× looser
	// than primalTol: it screens the basis for a wrong model, not for
	// roundoff, and a redundant row's artificial legitimately sits at the
	// refactorization's noise level.
	artTol = 1e-7
	// phase1RelTol is phase 1's feasibility cutoff on the artificials'
	// residual, relative to their rhs mass (phase1Feasible). It is a
	// relative test on a sum, where primalTol is an absolute test on one
	// value: see phase1Feasible for why the mass, not 1+Σb, scales it.
	phase1RelTol = 1e-7
	// verifyRowTol is verify's check of a finished solution against the
	// original problem: a row may miss its rhs by verifyRowTol·(1+scale),
	// scale being the largest of |rhs| and the row's terms. verify is a
	// last line against a wrong answer, not a second feasibility test: row
	// residuals accumulate roundoff over the row's terms, so it sits well
	// above primalTol to never reject what the pivot loop accepted.
	verifyRowTol = 1e-6
)

// stdForm is the standard form the solver runs on and CertifyExact reads.
// Column layout:
//
//	[0, nv)            structural variables
//	[nv, nv+ns)        slack/surplus variables
//	[nv+ns, nTot)      artificial variables (phase 1 only)
//
// Rows with negative right-hand sides are sign-flipped so b >= 0, GE rows
// get a surplus plus an artificial, EQ rows an artificial, LE rows a slack
// that doubles as the initial basic variable. cols is the column-sparse
// constraint matrix including slack and artificial columns.
type stdForm struct {
	nv, ns, na int
	nTot       int
	m          int

	a     *mat.CSC   // m × nTot constraint matrix, column-compressed
	b     mat.Vector // length m, >= 0
	cost1 mat.Vector // phase-1 costs (1 on artificials)
	cost2 mat.Vector // phase-2 costs (minimization form)

	initBasis []int // slack/artificial basis, one per row

	// artMass is the rhs mass of the artificial rows (GE and EQ): the
	// phase-1 objective's starting value and the scale its residual is
	// judged against (see phase1Feasible).
	artMass float64

	// problem reference for the final feasibility verification
	prob *Problem
}

// stdRel is the relation row c takes in standard form, where a negative
// rhs is sign-flipped to make b >= 0 (which swaps LE and GE).
func stdRel(c *Constraint) Rel {
	if c.RHS < 0 {
		switch c.Rel {
		case LE:
			return GE
		case GE:
			return LE
		}
	}
	return c.Rel
}

// newStdForm normalizes the problem. It returns a non-Optimal status if
// trivial presolve detects infeasibility (all-zero row with impossible RHS).
func newStdForm(p *Problem) (*stdForm, Status) {
	nv := p.NumVars()

	// Presolve away the empty rows and size the standard form.
	m, ns, na := 0, 0, 0
	for i := range p.Cons {
		c := &p.Cons[i]
		if len(c.Cols) == 0 {
			ok := false
			switch c.Rel {
			case LE:
				ok = c.RHS >= -costTol
			case GE:
				ok = c.RHS <= costTol
			case EQ:
				ok = math.Abs(c.RHS) <= costTol
			}
			if !ok {
				return nil, Infeasible
			}
			continue
		}
		m++
		switch stdRel(c) {
		case LE:
			ns++
		case GE:
			ns++
			na++
		case EQ:
			na++
		}
	}
	nTot := nv + ns + na
	sf := &stdForm{
		nv: nv, ns: ns, na: na, nTot: nTot, m: m,
		b:         mat.NewVector(m),
		cost1:     mat.NewVector(nTot),
		cost2:     mat.NewVector(nTot),
		initBasis: make([]int, m),
		prob:      p,
	}

	// Assemble [A | slack | artificial] column-compressed — columns are
	// what every solver access walks (pricing, basis assembly, FTRAN
	// scatter). The rows already hold sorted, merged, nonzero entries (the
	// Constraint invariant), so a counting transpose places every entry
	// directly, with no sort or merge: scanning the rows in order leaves
	// each column's row indices ascending. Slack and artificial columns
	// hold one entry each.
	colPtr := make([]int, nTot+1)
	for i := range p.Cons {
		for _, j := range p.Cons[i].Cols {
			colPtr[j+1]++
		}
	}
	for j := nv; j < nTot; j++ {
		colPtr[j+1] = 1
	}
	for j := 0; j < nTot; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]int, colPtr[nTot])
	vals := make([]float64, colPtr[nTot])
	next := slices.Clone(colPtr[:nTot]) // next free slot per column
	put := func(i, j int, v float64) {
		k := next[j]
		next[j]++
		rowIdx[k] = i
		vals[k] = v
	}
	slackCol := nv
	artCol := nv + ns
	i := 0
	for ci := range p.Cons {
		c := &p.Cons[ci]
		if len(c.Cols) == 0 {
			continue
		}
		flip := c.RHS < 0
		for k, j := range c.Cols {
			v := c.Vals[k]
			if flip {
				v = -v
			}
			put(i, j, v)
		}
		rhs := c.RHS
		if flip {
			rhs = -rhs
		}
		sf.b[i] = rhs
		switch stdRel(c) {
		case LE:
			put(i, slackCol, 1)
			sf.initBasis[i] = slackCol
			slackCol++
		case GE:
			put(i, slackCol, -1)
			slackCol++
			put(i, artCol, 1)
			sf.initBasis[i] = artCol
			artCol++
		case EQ:
			put(i, artCol, 1)
			sf.initBasis[i] = artCol
			artCol++
		}
		i++
	}
	sf.a = mat.NewCSC(m, nTot, colPtr, rowIdx, vals)
	sf.artMass = sf.artificialMass()

	for j := 0; j < nv; j++ {
		if p.Sense == Minimize {
			sf.cost2[j] = p.Obj[j]
		} else {
			sf.cost2[j] = -p.Obj[j]
		}
	}
	for j := nv + ns; j < nTot; j++ {
		sf.cost1[j] = 1
	}
	return sf, Optimal
}

// artificialMass sums b over the rows whose initial basic variable is an
// artificial (GE and EQ rows), in row order.
func (sf *stdForm) artificialMass() float64 {
	mass := 0.0
	for i, j := range sf.initBasis {
		if j >= sf.nv+sf.ns {
			mass += sf.b[i]
		}
	}
	return mass
}

// phase1Feasible reports whether a phase-1 optimum whose basic artificials
// sum to residual describes a feasible point. The cutoff is relative to the
// artificial rows' own rhs mass, not to 1+Σb: an LP whose equality rows all
// carry a tiny rhs — the paper's balance rows, (1−α)·q0 = 10⁻⁶ in total at
// horizon 10⁶ — would otherwise pass residuals that leave much of that
// mass unmet and send an infeasible LP on to phase 2. Feasible instances
// end phase 1 at a residual of zero; the zeroTol floor only absorbs
// roundoff when the mass itself is zero.
func (sf *stdForm) phase1Feasible(residual float64) bool {
	return residual <= math.Max(phase1RelTol*sf.artMass, zeroTol)
}

// verify checks the candidate solution against the original problem with a
// scale-relative tolerance. It needs no sign check: phase 2 clamps every
// structural value at zero before it builds x, so only a NaN or ±Inf, which
// the clamp passes through, can be out of range.
func (sf *stdForm) verify(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	for i := range sf.prob.Cons {
		c := &sf.prob.Cons[i]
		a := 0.0
		scale := math.Abs(c.RHS)
		for k, j := range c.Cols {
			term := c.Vals[k] * x[j]
			a += term
			if s := math.Abs(term); s > scale {
				scale = s
			}
		}
		tol := verifyRowTol * (1 + scale)
		switch c.Rel {
		case LE:
			if a > c.RHS+tol {
				return false
			}
		case GE:
			if a < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(a-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// finishSolution fills in the objective (in the problem's own sense) from
// the original data.
func finishSolution(p *Problem, sol *Solution) {
	obj := 0.0
	for j, v := range p.Obj {
		obj += v * sol.X[j]
	}
	sol.Objective = obj
}
