package lp

// Exact certification of a simplex basis, after Applegate, Cook, Dash and
// Espinoza ("Exact solutions to linear programming problems", Oper. Res.
// Lett. 35, 2007): the float64 solver chooses the basis, and rational
// arithmetic decides whether that basis is optimal. Every float64 of the
// problem denotes an exact binary rational, so reading the data into
// big.Rat loses nothing, and the basic solution, the duals and the reduced
// costs of the basis are computed without rounding.

import (
	"errors"
	"math/big"
)

// Certificate is the exact rational reading of one basis of a problem's
// standard form (the layout Solver.Solve's Basis refers to). It proves the
// basis optimal when MinBasic ≥ 0, Artificial = 0 and MinReducedCost ≥ 0:
// the basic solution is then feasible, the duals are feasible, and by weak
// duality no feasible point has a better objective.
type Certificate struct {
	// Objective is c'x in the problem's own sense at the basic solution.
	// It equals yᵀb for the basis duals y, so when MinReducedCost ≥ 0 it
	// is also a proven bound: a lower bound on every feasible objective of
	// a minimization, an upper bound of a maximization.
	Objective *big.Rat
	// MinBasic is the smallest basic value, artificials included.
	MinBasic *big.Rat
	// Artificial is the largest magnitude of a basic artificial variable:
	// the basic solution satisfies the problem's rows only when it is zero.
	Artificial *big.Rat
	// MinReducedCost is the smallest reduced cost, in minimization form,
	// over the nonbasic structural and slack columns.
	MinReducedCost *big.Rat
}

// CertifyExact reads basis against p's standard form in exact rational
// arithmetic: it solves B·x_B = b and Bᵀy = c_B by rational elimination
// and prices every nonbasic structural and slack column with y. It returns
// an error when p's presolve already proves it infeasible, when the basis
// does not fit p's standard form, or when the basis matrix is singular.
// The cost is that of dense rational elimination of an m×m matrix, so it
// suits test-sized problems (tens of rows), not production solves.
func CertifyExact(p *Problem, basis *Basis) (*Certificate, error) {
	sf, pre := newStdForm(p)
	if pre != Optimal {
		return nil, errors.New("lp: presolve proves the problem infeasible")
	}
	if !basis.compatible(sf) {
		return nil, errors.New("lp: basis does not fit the problem's standard form")
	}
	m := sf.m
	// B and Bᵀ as dense rational matrices, b and c_B as rational vectors.
	bm, bt := ratMatrix(m), ratMatrix(m)
	rhs, cB := make([]*big.Rat, m), make([]*big.Rat, m)
	basic := make(map[int]bool, m)
	for k, j := range basis.cols {
		basic[j] = true
		rows, vals := sf.a.ColNZ(j)
		for t, i := range rows {
			bm[i][k].SetFloat64(vals[t])
			bt[k][i].SetFloat64(vals[t])
		}
		cB[k] = new(big.Rat).SetFloat64(sf.cost2[j])
	}
	for i := range rhs {
		rhs[i] = new(big.Rat).SetFloat64(sf.b[i])
	}
	xB, ok := solveRat(bm, rhs)
	if !ok {
		return nil, errors.New("lp: basis matrix is singular")
	}
	y, _ := solveRat(bt, cB) // Bᵀ is singular exactly when B is

	c := &Certificate{Objective: new(big.Rat), Artificial: new(big.Rat)}
	var term big.Rat
	for k, j := range basis.cols {
		c.MinBasic = ratMin(c.MinBasic, xB[k])
		switch {
		case j < sf.nv:
			c.Objective.Add(c.Objective, term.Mul(new(big.Rat).SetFloat64(p.Obj[j]), xB[k]))
		case j >= sf.nv+sf.ns && new(big.Rat).Abs(xB[k]).Cmp(c.Artificial) > 0:
			c.Artificial.Abs(xB[k])
		}
	}
	for j := 0; j < sf.nv+sf.ns; j++ {
		if basic[j] {
			continue
		}
		d := new(big.Rat).SetFloat64(sf.cost2[j])
		rows, vals := sf.a.ColNZ(j)
		for t, i := range rows {
			d.Sub(d, term.Mul(new(big.Rat).SetFloat64(vals[t]), y[i]))
		}
		c.MinReducedCost = ratMin(c.MinReducedCost, d)
	}
	// With no basic (or no nonbasic) column the condition holds vacuously.
	if c.MinBasic == nil {
		c.MinBasic = new(big.Rat)
	}
	if c.MinReducedCost == nil {
		c.MinReducedCost = new(big.Rat)
	}
	return c, nil
}

// ratMatrix returns an n×n matrix of rational zeros.
func ratMatrix(n int) [][]*big.Rat {
	a := make([][]*big.Rat, n)
	for i := range a {
		a[i] = make([]*big.Rat, n)
		for j := range a[i] {
			a[i][j] = new(big.Rat)
		}
	}
	return a
}

// ratMin returns the smaller of cur and v; a nil cur means no value yet.
func ratMin(cur, v *big.Rat) *big.Rat {
	if cur == nil || v.Cmp(cur) < 0 {
		return v
	}
	return cur
}

// solveRat solves a·x = rhs by Gaussian elimination over the rationals,
// consuming a and rhs. Every nonzero pivot is exact, so each column pivots
// on its first nonzero entry. It reports false when a is singular.
func solveRat(a [][]*big.Rat, rhs []*big.Rat) ([]*big.Rat, bool) {
	n := len(a)
	var f, t big.Rat
	for k := 0; k < n; k++ {
		p := k
		for p < n && a[p][k].Sign() == 0 {
			p++
		}
		if p == n {
			return nil, false
		}
		a[k], a[p] = a[p], a[k]
		rhs[k], rhs[p] = rhs[p], rhs[k]
		for i := k + 1; i < n; i++ {
			if a[i][k].Sign() == 0 {
				continue
			}
			f.Quo(a[i][k], a[k][k])
			for j := k; j < n; j++ {
				if a[k][j].Sign() != 0 {
					a[i][j].Sub(a[i][j], t.Mul(&f, a[k][j]))
				}
			}
			rhs[i].Sub(rhs[i], t.Mul(&f, rhs[k]))
		}
	}
	x := make([]*big.Rat, n)
	for i := n - 1; i >= 0; i-- {
		s := new(big.Rat).Set(rhs[i])
		for j := i + 1; j < n; j++ {
			if a[i][j].Sign() != 0 {
				s.Sub(s, t.Mul(a[i][j], x[j]))
			}
		}
		x[i] = s.Quo(s, a[i][i])
	}
	return x, true
}
