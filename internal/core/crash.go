package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/lp"
	"repro/internal/mat"
	"repro/internal/obs"
)

// This file implements the policy-first start of a cold solve. Appendix A
// cites policy improvement as the classical alternative to the frequency
// LP for the unconstrained problem; with one metric bound, the
// constrained optimum mixes two deterministic policies in at most one
// state (Theorem A.2 with K = 1). So a cold solve at scale first finds, by
// policy iteration on the Lagrangian cost c_obj + λ·c_bound, the
// deterministic policy on the bound-feasible side of the critical λ, and
// starts the simplex from that policy's basis instead of the slack basis.
// The simplex then needs a handful of pivots instead of thousands.
// BuildFrequencyLP attaches the crash to the LP it builds (lp.Problem.
// Crash), so every cold solve of that LP — core's, a resident sweep's
// first point, any other caller's — starts from the same basis.

// policyIter is sparse policy iteration on a model under one discount
// factor. It evaluates a deterministic policy π through one sparse LU of
// (I − αP_π)ᵀ, whose column s is row s of I − αP_π: the value v solves
// (I − αP_π)v = c_π by a transposed solve, the occupancy y solves
// (I − αP_π)ᵀy = (1−α)q0 by a plain one. The factorization is kept across
// rounds and across cost changes. A policy that switched a few states
// updates it with one Forrest–Tomlin column replacement per state; one
// that switched many is refactorized. Rounds allocate only while the
// factorization's storage grows to the largest it has held.
type policyIter struct {
	m     *Model
	alpha float64
	// cost is the N×A cost the next solve minimizes, row-major like the
	// metric tables.
	cost []float64
	// cmd is the current policy; luCmd the policy the factorization holds
	// (valid when factored).
	cmd, luCmd []int
	factored   bool
	lu         mat.SparseLU
	v, c       mat.Vector // the current policy's value and per-state cost
	rows       []int      // one column of (I − αP_π)ᵀ, rebuilt per call
	vals       []float64
	changed    []int

	// The Lagrangian cost that setLagrangian states and at fills in:
	// (1−μ)·objScale·obj + μ·bndScale·bnd, with bnd nil without a bound.
	obj, bnd           *mat.Matrix
	objScale, bndScale float64

	// rounds, refactors and updates count the work of every solve so far.
	rounds, refactors, updates int
}

const (
	// piMaxRounds bounds the rounds of one solve. Policy iteration
	// converges in far fewer on every model we know; a solve that does
	// not is abandoned, and the crash with it.
	piMaxRounds = 1000
	// piMaxUpdates is the most switched states a round absorbs by
	// Forrest–Tomlin updates, and piMaxEtas the most updates the
	// factorization carries before a refactorization starts afresh.
	piMaxUpdates = 64
	piMaxEtas    = 128
)

// newPolicyIter returns a policy iteration on m under discount factor alpha,
// starting from the all-zero policy with a zero cost.
func newPolicyIter(m *Model, alpha float64) (*policyIter, error) {
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("core: discount factor %g outside [0,1)", alpha)
	}
	return &policyIter{
		m:       m,
		alpha:   alpha,
		cost:    make([]float64, m.N*m.A),
		cmd:     make([]int, m.N),
		luCmd:   make([]int, m.N),
		v:       mat.NewVector(m.N),
		c:       mat.NewVector(m.N),
		changed: make([]int, 0, piMaxUpdates),
	}, nil
}

// column returns column s of (I − αP_π)ᵀ under command a: row s of
// I − αP_a, with the diagonal merged in and the rows ascending. It aliases
// scratch that the next call overwrites.
func (pi *policyIter) column(s, a int) ([]int, []float64) {
	cols, vals := pi.m.P[a].RowNZ(s)
	pi.rows, pi.vals = pi.rows[:0], pi.vals[:0]
	diag := false
	for k, j := range cols {
		v := -pi.alpha * vals[k]
		switch {
		case j == s:
			v++
			diag = true
		case j > s && !diag:
			pi.rows = append(pi.rows, s)
			pi.vals = append(pi.vals, 1)
			diag = true
		}
		pi.rows = append(pi.rows, j)
		pi.vals = append(pi.vals, v)
	}
	if !diag {
		pi.rows = append(pi.rows, s)
		pi.vals = append(pi.vals, 1)
	}
	return pi.rows, pi.vals
}

// sync brings the factorization to the current policy: nothing when the
// policy is the factored one, one update per switched state when few
// switched, a refactorization otherwise or when an update is unstable.
func (pi *policyIter) sync() error {
	if pi.factored {
		pi.changed = pi.changed[:0]
		for s, a := range pi.cmd {
			if a != pi.luCmd[s] {
				if len(pi.changed) == piMaxUpdates {
					return pi.refactor()
				}
				pi.changed = append(pi.changed, s)
			}
		}
		if pi.lu.Updates()+len(pi.changed) > piMaxEtas {
			return pi.refactor()
		}
		for _, s := range pi.changed {
			rows, vals := pi.column(s, pi.cmd[s])
			if err := pi.lu.Update(s, rows, vals); err != nil {
				return pi.refactor()
			}
			pi.luCmd[s] = pi.cmd[s]
			pi.updates++
		}
		return nil
	}
	return pi.refactor()
}

// refactor factors (I − αP_π)ᵀ for the current policy afresh.
func (pi *policyIter) refactor() error {
	pi.refactors++
	pi.factored = false
	err := pi.lu.Refactor(pi.m.N, func(s int) ([]int, []float64) { return pi.column(s, pi.cmd[s]) }, 0.1)
	if err != nil {
		return err
	}
	copy(pi.luCmd, pi.cmd)
	pi.factored = true
	return nil
}

// evaluate sets v to the current policy's discounted value under cost.
func (pi *policyIter) evaluate() error {
	if err := pi.sync(); err != nil {
		return err
	}
	for s, a := range pi.cmd {
		pi.c[s] = pi.cost[s*pi.m.A+a]
	}
	pi.lu.SolveTInto(pi.v, pi.c)
	return nil
}

// improve makes one Bellman backup against v and switches every state
// whose best command beats its current one by more than a relative 1e-12
// (the margin keeps equivalent commands from cycling). It reports whether
// any state switched.
func (pi *policyIter) improve() bool {
	m, improved := pi.m, false
	for s := range m.N {
		cur := pi.cmd[s]
		best, bestA := pi.q(s, cur), cur
		limit := best - 1e-12*(1+math.Abs(best))
		for a := range m.A {
			if a == cur {
				continue
			}
			if q := pi.q(s, a); q < limit && q < best {
				best, bestA = q, a
			}
		}
		if bestA != cur {
			pi.cmd[s] = bestA
			improved = true
		}
	}
	return improved
}

// q is the one-step lookahead value of command a in state s against v.
func (pi *policyIter) q(s, a int) float64 {
	cols, vals := pi.m.P[a].RowNZ(s)
	e := 0.0
	for k, j := range cols {
		e += vals[k] * pi.v[j]
	}
	return pi.cost[s*pi.m.A+a] + pi.alpha*e
}

// solve runs policy iteration on the current cost from the current policy
// until no state improves, polling ctx once per round. It reports whether
// it converged: a solve that runs piMaxRounds rounds, or whose
// factorization fails, stops unconverged, and a cancelled one returns the
// context's cause.
func (pi *policyIter) solve(ctx context.Context) (bool, error) {
	for round := 0; round < piMaxRounds; round++ {
		if err := cancelled(ctx); err != nil {
			return false, err
		}
		pi.rounds++
		if err := pi.evaluate(); err != nil {
			return false, nil
		}
		if !pi.improve() {
			return true, nil
		}
	}
	return false, nil
}

// average returns the per-slice average of metric table t under the
// factored policy from initial distribution q0: Σ_s y_s·t(s, π(s)) with
// y = (1−α)(I − αP_π)⁻ᵀq0. It overwrites c; call it after solve, when
// the factored policy is the current one.
func (pi *policyIter) average(q0 mat.Vector, t *mat.Matrix) float64 {
	for s, p := range q0 {
		pi.c[s] = (1 - pi.alpha) * p
	}
	pi.lu.SolveInto(pi.c, pi.c)
	sum := 0.0
	for s, y := range pi.c {
		sum += y * t.Data[s*pi.m.A+pi.cmd[s]]
	}
	return sum
}

// crashBisections bounds the bisection steps on the Lagrange multiplier.
// Each costs a policy-iteration solve of one or two rounds; the simplex
// finishes whatever the last bracket leaves.
const crashBisections = 20

// crashFirstMu is where the bracket's search for a bound-feasible μ
// starts.
const crashFirstMu = 1.0 / 64

// crashFor returns the lp.Problem.Crash of the frequency LP of m under
// opts, or nil when it gets none. It gets one when it has at least
// lp.AtScaleRows rows — normalize, N−1 balance rows and one per bound —
// where the simplex runs its sparse kernel and the slack start costs
// thousands of pivots, and at most one bound, an inequality.
func crashFor(m *Model, opts Options) func(context.Context, *lp.Problem) ([]int, error) {
	b := opts.Bounds
	if len(b) > 1 || len(b) == 1 && b[0].Rel == lp.EQ || m.N+len(b) < lp.AtScaleRows {
		return nil
	}
	if opts.Objective.Metric == "" {
		opts.Objective.Metric = MetricPenalty
	}
	opts.Bounds, opts.WarmBasis = slices.Clone(b), nil
	return func(ctx context.Context, p *lp.Problem) ([]int, error) {
		return crashRows(ctx, m, opts, p)
	}
}

// crashRows is the crash of the frequency LP p of m under opts: the basis
// by rows of the deterministic policy that Lagrangian policy iteration
// finds (see lagrangian), x_{s,π(s)} basic in row s and the bound row, if
// any, on its slack. The bound's value is read from p, whose rhs a
// resident sweep moves. It returns nil rows — the slack start — when
// lagrangian finds no bound-feasible policy, and an error only when ctx is
// done, namely its cause. The work shows on a "crash" span:
// policy-iteration rounds, refactorizations and updates.
func crashRows(ctx context.Context, m *Model, opts Options, p *lp.Problem) ([]int, error) {
	ctx, sp := obs.StartSpan(ctx, "crash")
	defer sp.End()
	if len(opts.Bounds) == 1 {
		if len(p.Cons) <= m.N {
			return nil, nil
		}
		b := opts.Bounds[0]
		b.Value = p.Cons[m.N].RHS
		opts.Bounds = []Bound{b}
	}
	q0, err := initialDistribution(m, opts)
	if err != nil {
		return nil, nil
	}
	pi, err := newPolicyIter(m, opts.Alpha)
	if err != nil || pi.setLagrangian(opts) != nil {
		return nil, nil
	}
	cmd, err := pi.lagrangian(ctx, opts, q0)
	sp.Set("rounds", pi.rounds)
	sp.Set("refactorizations", pi.refactors)
	sp.Set("updates", pi.updates)
	if cmd == nil {
		return nil, err
	}
	return policyRows(len(p.Cons), m.A, cmd), nil
}

// policyRows is the basis by rows of a frequency LP with numRows rows that
// makes x_{s,π(s)} basic in row s and leaves every other row — the
// bound's, if any — on its slack.
func policyRows(numRows, numCmds int, cmd []int) []int {
	rows := make([]int, numRows)
	for i := range rows {
		rows[i] = -1
	}
	for s, a := range cmd {
		rows[s] = s*numCmds + a
	}
	return rows
}

// setLagrangian states the Lagrangian cost of opts, which has at most one
// bound, an inequality: c_obj + λ·c_bound with both metrics signed so that
// less is better and scaled to unit magnitude, and the multiplier written
// μ = λ/(1+λ) ∈ [0, 1].
func (pi *policyIter) setLagrangian(opts Options) error {
	var err error
	if pi.obj, err = pi.m.Metric(opts.Objective.Metric); err != nil {
		return err
	}
	pi.objScale = unitScale(pi.obj.Data)
	if opts.Objective.Sense == lp.Maximize {
		pi.objScale = -pi.objScale
	}
	pi.bnd = nil
	if len(opts.Bounds) == 1 {
		if pi.bnd, err = pi.m.Metric(opts.Bounds[0].Metric); err != nil {
			return err
		}
		pi.bndScale = unitScale(pi.bnd.Data)
		if opts.Bounds[0].Rel == lp.GE {
			pi.bndScale = -pi.bndScale
		}
	}
	return nil
}

// at sets cost to the Lagrangian at μ.
func (pi *policyIter) at(mu float64) {
	for i, v := range pi.obj.Data {
		pi.cost[i] = (1 - mu) * pi.objScale * v
		if pi.bnd != nil {
			pi.cost[i] += mu * pi.bndScale * pi.bnd.Data[i]
		}
	}
}

// lagrangian returns the deterministic policy that starts the simplex on
// the frequency LP of pi's model under opts, whose Lagrangian
// setLagrangian stated. With no bound it is the policy minimizing the
// objective (μ = 0), which is the LP's optimum. With one, μ is bracketed —
// 0, then doubling from crashFirstMu — until a policy meets the bound, and
// then bisected to the bound-feasible side of the critical multiplier,
// until the policies on either side differ in at most one state, where the
// LP optimum mixes them, or crashBisections steps have run. States that
// tie at the critical multiplier (alike components) switch together, so
// the two sides may still differ in several; the simplex finishes from
// the feasible side.
//
// It returns nil when even the policy minimizing the bound metric alone
// (μ = 1) violates the bound, or when policy iteration fails; the error is
// non-nil only when ctx is cancelled.
func (pi *policyIter) lagrangian(ctx context.Context, opts Options, q0 mat.Vector) ([]int, error) {
	solveAt := func(mu float64) (bool, error) {
		pi.at(mu)
		return pi.solve(ctx)
	}
	feasible := func() bool {
		b := opts.Bounds[0]
		avg := pi.average(q0, pi.bnd)
		if b.Rel == lp.GE {
			return avg >= b.Value
		}
		return avg <= b.Value
	}

	// Policy iteration starts from the myopic policy: one backup against
	// v = 0.
	pi.at(0)
	pi.improve()
	if ok, err := solveAt(0); !ok {
		return nil, err
	}
	if pi.bnd == nil || feasible() {
		return pi.cmd, nil
	}
	// Each solve starts from the last policy, which a small step in μ
	// mostly keeps, so most rounds absorb their switches as updates.
	lo, hi := 0.0, crashFirstMu
	loCmd := append([]int(nil), pi.cmd...)
	for {
		if ok, err := solveAt(hi); !ok {
			return nil, err
		}
		if feasible() {
			break
		}
		if hi == 1 {
			return nil, nil
		}
		lo, hi = hi, min(2*hi, 1)
		copy(loCmd, pi.cmd)
	}
	hiCmd := append([]int(nil), pi.cmd...)
	for step := 0; step < crashBisections && differ(loCmd, hiCmd) > 1; step++ {
		mid := (lo + hi) / 2
		if ok, err := solveAt(mid); !ok {
			return nil, err
		}
		if feasible() {
			hi = mid
			copy(hiCmd, pi.cmd)
		} else {
			lo = mid
			copy(loCmd, pi.cmd)
		}
	}
	return hiCmd, nil
}

// cancelled polls ctx once and returns its cause when it is done.
func cancelled(ctx context.Context) error {
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return err
}

// unitScale is 1/max|t|, or 1 for an all-zero table.
func unitScale(t []float64) float64 {
	mx := 0.0
	for _, v := range t {
		mx = math.Max(mx, math.Abs(v))
	}
	if mx == 0 {
		return 1
	}
	return 1 / mx
}

// differ counts the states in which two policies issue different commands.
func differ(a, b []int) int {
	n := 0
	for s := range a {
		if a[s] != b[s] {
			n++
		}
	}
	return n
}
