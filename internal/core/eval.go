package core

// Matrix-free evaluation of composed systems: the composed chain of Eq. 4 is
// not a plain Kronecker product — the queue couples to the SP's service rate
// and to the destination SR state's arrivals — but it factors exactly into
// three stages (SR, queue, SP), each applied without the composed CSR:
//
//	P[(p,r,q) → (p',r',q')] = SP_a[p,p'] · SR[r,r'] · QK_{b(p,a), req(r')}[q,q']
//
// so one application sweeps the SR factor (a lazy I ⊗ SR ⊗ I product), then
// the per-(p, r') queue kernels (banded (Q+1)×(Q+1) rows, deduplicated by
// distinct service rate), then the SP factor — which for a FactoredSP is
// itself a lazy Kronecker product over the part chains. Total cost per
// matvec: O(n·(deg(SR) + 2)) for the first two stages plus
// Σᵢ nnz(partᵢ)·(n/|Sᵢ|) for the SP stage; total extra memory O(n). The
// expanded Model (Π-sized joint CSR per command) is never compiled.
//
// SystemOp (one fixed command) and PolicyOp (a stationary randomized policy
// mixing SystemOps) implement markov.Op, so every iterative chain query —
// stationary distributions, discounted values, discounted occupancies — runs
// against them directly; EvaluateFactored is the Model-free mirror of
// Evaluate. The simulator does not use these operators: it steps through
// FactoredSP.SampleNext and its own row walks (internal/sim).

import (
	"fmt"

	"repro/internal/markov"
	"repro/internal/mat"
)

// SystemOp applies the composed chain of a hook-free System under one fixed
// command, matrix-free. It implements markov.Op.
//
// MulVecInto and MulVecTInto share per-operator scratch and must not run
// concurrently on one SystemOp; the accessors are safe for concurrent use.
type SystemOp struct {
	sys *System
	cmd int

	nsp, nsr, nq, n int

	spStage *mat.KronOp // (SP factors…, I_{nsr·nq}) — p is the slow digit group
	srStage *mat.KronOp // (I_{nsp}, SR, I_{nq})

	// Queue kernels, deduplicated by distinct service rate: kernels[bIdx[p]]
	// holds, per destination SR state r', the (Q+1)×(Q+1) queue transition
	// matrix under service rate b(p, cmd) and arrivals req(r').
	bIdx    []int
	kernels [][]*mat.Matrix

	bufU, bufW mat.Vector // stage scratch
}

// CommandOp builds the matrix-free composed operator of the system under
// command cmd. Systems with an SPRow hook (SP dynamics coupled to the SR
// state beyond Eq. 4) cannot be factored this way and return an error — they
// must compile through Build.
func (sys *System) CommandOp(cmd int) (*SystemOp, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if sys.SPRow != nil {
		return nil, fmt.Errorf("core: system %q has an SPRow hook; the composed chain is not factorable, use Build", sys.Name)
	}
	if cmd < 0 || cmd >= sys.SP.A() {
		return nil, fmt.Errorf("core: system %q has no command %d", sys.Name, cmd)
	}
	nsp, nsr, nq := sys.SP.N(), sys.SR.N(), sys.QueueCap+1
	op := &SystemOp{
		sys: sys, cmd: cmd,
		nsp: nsp, nsr: nsr, nq: nq, n: nsp * nsr * nq,
	}
	var spFactors []*mat.CSR
	if fsp, ok := sys.SP.(*FactoredSP); ok {
		// The part factors stay factored: the SP sweep costs
		// Σᵢ nnz(partᵢ)·(n/|Sᵢ|), and no joint SP CSR is compiled.
		spFactors = append(spFactors, fsp.factors[cmd]...)
	} else {
		spFactors = append(spFactors, sys.SP.Chain(cmd))
	}
	spFactors = append(spFactors, mat.IdentityCSR(nsr*nq))
	op.spStage = mat.NewKronOp(spFactors...)
	op.srStage = mat.NewKronOp(mat.IdentityCSR(nsp), mat.FromDense(sys.SR.P), mat.IdentityCSR(nq))

	op.bIdx = make([]int, nsp)
	seen := make(map[float64]int)
	for p := 0; p < nsp; p++ {
		b := sys.SP.RateAt(p, cmd)
		bi, ok := seen[b]
		if !ok {
			bi = len(op.kernels)
			seen[b] = bi
			ker := make([]*mat.Matrix, nsr)
			for r := 0; r < nsr; r++ {
				ker[r] = QueueMatrix(sys.QueueCap, b, sys.SR.Requests[r])
			}
			op.kernels = append(op.kernels, ker)
		}
		op.bIdx[p] = bi
	}
	op.bufU = mat.NewVector(op.n)
	op.bufW = mat.NewVector(op.n)
	return op, nil
}

// Rows returns the composed state count.
func (op *SystemOp) Rows() int { return op.n }

// Cols returns the composed state count (the operator is square).
func (op *SystemOp) Cols() int { return op.n }

// MulVecTInto computes dst = x·P (one distribution step of the composed
// chain) in the three factored sweeps. dst must not alias x.
func (op *SystemOp) MulVecTInto(dst, x mat.Vector) {
	// Stage 1: contract the current SR state; bufU(p, r', q) holds the mass
	// arriving at destination SR state r'.
	op.srStage.MulVecTInto(op.bufU, x)
	// Stage 2: queue law per (p, r') — the kernel depends on the current SP
	// state's service rate and the destination SR state's arrivals, which is
	// exactly why it must run after the SR contraction and before the SP one.
	for i := range op.bufW {
		op.bufW[i] = 0
	}
	for p := 0; p < op.nsp; p++ {
		kb := op.kernels[op.bIdx[p]]
		for r := 0; r < op.nsr; r++ {
			km := kb[r]
			base := (p*op.nsr + r) * op.nq
			for q := 0; q < op.nq; q++ {
				xv := op.bufU[base+q]
				if xv == 0 {
					continue
				}
				row := km.Row(q)
				for qn, v := range row {
					if v != 0 {
						op.bufW[base+qn] += v * xv
					}
				}
			}
		}
	}
	// Stage 3: contract the current SP state.
	op.spStage.MulVecTInto(dst, op.bufW)
}

// MulVecInto computes dst = P·v (the value-vector application), running the
// three sweeps in the reverse order. dst must not alias v.
func (op *SystemOp) MulVecInto(dst, v mat.Vector) {
	// Stage 1: expand over destination SP states; bufU(p, r', q') holds
	// Σ_{p'} SP[p,p']·v(p', r', q').
	op.spStage.MulVecInto(op.bufU, v)
	// Stage 2: queue rows dot the destination backlog axis.
	for p := 0; p < op.nsp; p++ {
		kb := op.kernels[op.bIdx[p]]
		for r := 0; r < op.nsr; r++ {
			km := kb[r]
			base := (p*op.nsr + r) * op.nq
			for q := 0; q < op.nq; q++ {
				row := km.Row(q)
				s := 0.0
				for qn, w := range row {
					if w != 0 {
						s += w * op.bufU[base+qn]
					}
				}
				op.bufW[base+q] = s
			}
		}
	}
	// Stage 3: expand over destination SR states.
	op.srStage.MulVecInto(dst, op.bufW)
}

// PolicyOp applies the composed chain of a system under a stationary
// randomized policy — P^π = Σ_a π(s,a)·P_a rowwise (Eq. 5) — by mixing the
// per-command SystemOps. Commands the policy never issues are skipped
// entirely. It implements markov.Op; like SystemOp, the matvec methods
// share scratch and must not run concurrently.
type PolicyOp struct {
	n    int
	pol  *Policy
	ops  []*SystemOp
	used []bool

	bufMask, bufAcc, bufTmp mat.Vector
}

// PolicyOp builds the matrix-free policy-composed operator. The policy must
// cover the composed state space (N = NumStates rows, one column per
// command).
func (sys *System) PolicyOp(pol *Policy) (*PolicyOp, error) {
	n, a := sys.NumStates(), sys.SP.A()
	if pol.N() != n || pol.A() != a {
		return nil, fmt.Errorf("core: policy is %dx%d, system wants %dx%d", pol.N(), pol.A(), n, a)
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	po := &PolicyOp{
		n:       n,
		pol:     pol,
		ops:     make([]*SystemOp, a),
		used:    make([]bool, a),
		bufMask: mat.NewVector(n),
		bufAcc:  mat.NewVector(n),
		bufTmp:  mat.NewVector(n),
	}
	for s := 0; s < n; s++ {
		for cmd, w := range pol.CommandDist(s) {
			if w != 0 {
				po.used[cmd] = true
			}
		}
	}
	for cmd := range po.ops {
		if !po.used[cmd] {
			continue
		}
		op, err := sys.CommandOp(cmd)
		if err != nil {
			return nil, err
		}
		po.ops[cmd] = op
	}
	return po, nil
}

// Rows returns the composed state count.
func (po *PolicyOp) Rows() int { return po.n }

// Cols returns the composed state count.
func (po *PolicyOp) Cols() int { return po.n }

// MulVecTInto computes dst = x·P^π: each issued command's operator is
// applied to the π(·,a)-masked slice of x and the results accumulate.
func (po *PolicyOp) MulVecTInto(dst, x mat.Vector) {
	for i := range po.bufAcc {
		po.bufAcc[i] = 0
	}
	for cmd, op := range po.ops {
		if op == nil {
			continue
		}
		any := false
		for s := 0; s < po.n; s++ {
			m := po.pol.M.At(s, cmd) * x[s]
			po.bufMask[s] = m
			if m != 0 {
				any = true
			}
		}
		if !any {
			continue
		}
		op.MulVecTInto(po.bufTmp, po.bufMask)
		for i, v := range po.bufTmp {
			po.bufAcc[i] += v
		}
	}
	copy(dst, po.bufAcc)
}

// MulVecInto computes dst = P^π·v: per-command applications mixed rowwise
// by the policy.
func (po *PolicyOp) MulVecInto(dst, v mat.Vector) {
	for i := range po.bufAcc {
		po.bufAcc[i] = 0
	}
	for cmd, op := range po.ops {
		if op == nil {
			continue
		}
		op.MulVecInto(po.bufTmp, v)
		for s := 0; s < po.n; s++ {
			if w := po.pol.M.At(s, cmd); w != 0 {
				po.bufAcc[s] += w * po.bufTmp[s]
			}
		}
	}
	copy(dst, po.bufAcc)
}

// EvaluateFactored is Evaluate without the Model: the discounted occupancy
// is computed iteratively against the matrix-free PolicyOp, and the metric
// averages come from the on-demand MetricFns — no composed CSR, no
// |S|×|A| metric tables. The same α/tolerance caveat as the iterative
// occupancy applies: α must be far enough from 1 for the default iteration
// budget (the error message says when it is not).
func EvaluateFactored(sys *System, p *Policy, q0 mat.Vector, alpha float64) (*Evaluation, error) {
	if len(q0) != sys.NumStates() {
		return nil, fmt.Errorf("core: initial distribution has %d entries, want %d", len(q0), sys.NumStates())
	}
	po, err := sys.PolicyOp(p)
	if err != nil {
		return nil, err
	}
	chain, err := markov.NewOp(po, 1e-7)
	if err != nil {
		return nil, err
	}
	occ, err := chain.DiscountedOccupancy(q0, alpha)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{Alpha: alpha, Occupancy: occ, Averages: make(map[string]float64)}
	fns := sys.MetricFns()
	for name, fn := range fns {
		sum := 0.0
		for i, y := range occ {
			if y == 0 {
				continue
			}
			st := sys.StateOf(i)
			inner := 0.0
			for a, w := range p.CommandDist(i) {
				if w != 0 {
					inner += w * fn(st, a)
				}
			}
			sum += y * inner
		}
		ev.Averages[name] = sum
	}
	return ev, nil
}
