package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mat"
)

// The solver's recovery paths, each reached on cue: a faultPlan wraps the
// basis kernel of every attempt of one Solve call and fails one Refactor or
// Update call, or corrupts one FTRAN result, counted across the attempts.
// Without a planned failure the
// wrapper only counts, so a test first runs the solve unfailed to learn how
// many calls there are, then walks the failure over each of them.

// errInjected is the failure the wrapped kernel reports.
var errInjected = errors.New("lp: injected kernel failure")

// faultPlan says which kernel call fails and counts the calls so far.
type faultPlan struct {
	refactorAt, updateAt int // 1-based call that fails; 0 fails none
	// refactorAfterUpdate fails the first Refactor that follows the failed
	// Update as well: the rebuild the solver makes to recover from it.
	refactorAfterUpdate bool
	// scaleFtranAt multiplies the result of that 1-based Ftran call by
	// ftranScale (0: none). zeroFtranAfterBtran zeroes the first Ftran result that follows
	// a BtranSp call: a warm start's first BtranSp is its first dual pivot's
	// leaving row (a primal pivot FTRANs before it BTRANs), so the zeroed
	// result is that pivot's entering direction.
	scaleFtranAt        int
	ftranScale          float64
	zeroFtranAfterBtran bool
	refactors, updates  int
	ftrans              int
	btranSeen, ftranHit bool
}

// option wraps every solve attempt's kernel in the plan.
func (p *faultPlan) option() Option {
	return WithFactorizerHook(func(f factorizer) factorizer { return faultyFactorizer{f, p} })
}

// faultyFactorizer is a kernel that fails the calls its plan names. A failed
// call leaves the wrapped kernel untouched, which the solver may not use
// again before a successful Refactor — the factorizer error contract.
type faultyFactorizer struct {
	factorizer
	plan *faultPlan
}

func (f faultyFactorizer) Refactor(a *mat.CSC, basis []int) error {
	p := f.plan
	p.refactors++
	if p.refactors == p.refactorAt {
		return errInjected
	}
	return f.factorizer.Refactor(a, basis)
}

func (f faultyFactorizer) Update(row int, w mat.Vector, rows []int, vals []float64) error {
	p := f.plan
	p.updates++
	if p.updates == p.updateAt {
		if p.refactorAfterUpdate {
			p.refactorAt = p.refactors + 1
		}
		return errInjected
	}
	return f.factorizer.Update(row, w, rows, vals)
}

func (f faultyFactorizer) Ftran(v mat.Vector) mat.Vector {
	w := f.factorizer.Ftran(v)
	p := f.plan
	p.ftrans++
	switch {
	case p.ftrans == p.scaleFtranAt:
		for i := range w {
			w[i] *= p.ftranScale
		}
		p.ftranHit = true
	case p.zeroFtranAfterBtran && p.btranSeen && !p.ftranHit:
		clear(w)
		p.ftranHit = true
	}
	return w
}

func (f faultyFactorizer) BtranSp(c, y *mat.SpVec) {
	f.plan.btranSeen = true
	f.factorizer.BtranSp(c, y)
}

// attempts counts the monitor's start and finish events, one pair per solve
// attempt, and records the phase each attempt finished in.
type attempts struct {
	starts, finishes int
	finishPhases     []string
}

func (a *attempts) option() Option {
	return WithMonitor(MonitorFunc(func(s Snapshot) {
		switch s.Event {
		case "start":
			a.starts++
		case "finish":
			a.finishes++
			a.finishPhases = append(a.finishPhases, s.Phase)
		}
	}))
}

// solveFaulty solves p from warm under kc's kernel configuration with the
// plan's failures, counting attempts.
func solveFaulty(p *Problem, warm *Basis, kc []Option, plan *faultPlan) (*Solution, *Basis, attempts, error) {
	var at attempts
	opts := append(slices.Clone(kc), plan.option(), at.option())
	sol, basis, err := NewSolver(opts...).Solve(context.Background(), p, warm)
	return sol, basis, at, err
}

// sortedCorpus returns the parity corpus in name order, so the walks run
// and report deterministically.
func sortedCorpus() ([]string, map[string]*Problem) {
	probs := parityProblems()
	names := make([]string, 0, len(probs))
	for name := range probs {
		names = append(names, name)
	}
	slices.Sort(names)
	return names, probs
}

// TestColdRefactorFailureIsFinal: a cold solve whose basis refactorization
// fails — at the first factorization, at a cadence rebuild, at the exact
// phase-1 or phase-2 recomputation — stops Numerical in that one attempt.
// Every Refactor call of every corpus solve is failed in turn, under both
// kernels; the solve must report Numerical, return no basis, and emit
// exactly one start/finish pair: no second attempt follows a cold one.
func TestColdRefactorFailureIsFinal(t *testing.T) {
	names, probs := sortedCorpus()
	for _, kc := range kernelConfigs {
		walked := 0
		for _, name := range names {
			p := probs[name]
			var count faultPlan
			solveFaulty(p, nil, kc.opts, &count)
			for k := 1; k <= count.refactors; k++ {
				sol, basis, at, err := solveFaulty(p, nil, kc.opts, &faultPlan{refactorAt: k})
				label := name + "/" + kc.name
				if sol.Status != Numerical || !errors.Is(err, ErrNotOptimal) || basis != nil {
					t.Errorf("%s: refactor %d of %d failed: status %v, err %v, basis %v; want Numerical and no basis",
						label, k, count.refactors, sol.Status, err, basis)
				}
				if at.starts != 1 || at.finishes != 1 {
					t.Errorf("%s: refactor %d failed: %d starts, %d finishes; want one attempt",
						label, k, at.starts, at.finishes)
				}
				walked++
			}
		}
		if walked == 0 {
			t.Errorf("%s: no refactorization to fail", kc.name)
		}
	}
}

// TestUpdateFailureRecovers: a basis update the kernel rejects (a
// Forrest–Tomlin step gone unstable) costs one early refactorization and
// nothing else. Every Update call of every corpus solve is failed in turn,
// under both kernels; the solve must reach the unfailed verdict, and an
// Optimal one at the unfailed objective, proved by certifyVerdict (once
// per distinct final basis: most failures lead back to the same one).
func TestUpdateFailureRecovers(t *testing.T) {
	names, probs := sortedCorpus()
	for _, kc := range kernelConfigs {
		walked := 0
		for _, name := range names {
			p := probs[name]
			var count faultPlan
			want, _, _, _ := solveFaulty(p, nil, kc.opts, &count)
			certified := map[string]bool{}
			for k := 1; k <= count.updates; k++ {
				sol, basis, _, err := solveFaulty(p, nil, kc.opts, &faultPlan{updateAt: k})
				label := name + "/" + kc.name
				if sol.Status != want.Status {
					t.Errorf("%s: update %d of %d failed: status %v (err %v), want %v",
						label, k, count.updates, sol.Status, err, want.Status)
					continue
				}
				if sol.Status != Optimal {
					continue
				}
				if d := math.Abs(sol.Objective - want.Objective); d > 1e-9*(1+math.Abs(want.Objective)) {
					t.Errorf("%s: update %d failed: objective %.17g, unfailed %.17g", label, k, sol.Objective, want.Objective)
				}
				if key := fmt.Sprint(basis.cols); !certified[key] {
					certified[key] = true
					if cerr := certifyVerdict(p, sol, basis, certResiduals[name], kc.opts...); cerr != nil {
						t.Errorf("%s: update %d failed: verdict not certified: %v", label, k, cerr)
					}
				}
				walked++
			}
		}
		if walked == 0 {
			t.Errorf("%s: no update to fail", kc.name)
		}
	}
}

// TestRecoveryRefactorFailureIsFinal: when the refactorization that
// recovers from a rejected update fails as well — in the primal pivot
// loop, or in the dual-simplex repair of an at-scale solve restoring its
// exact rhs — the cold solve stops Numerical in one attempt.
func TestRecoveryRefactorFailureIsFinal(t *testing.T) {
	names, probs := sortedCorpus()
	for _, kc := range kernelConfigs {
		for _, name := range names {
			p := probs[name]
			var count faultPlan
			solveFaulty(p, nil, kc.opts, &count)
			for k := 1; k <= count.updates; k++ {
				sol, _, at, err := solveFaulty(p, nil, kc.opts, &faultPlan{updateAt: k, refactorAfterUpdate: true})
				if sol.Status != Numerical || at.starts != 1 || at.finishes != 1 {
					t.Errorf("%s/%s: update %d and its recovery failed: status %v (err %v), %d starts, %d finishes; want Numerical in one attempt",
						name, kc.name, k, sol.Status, err, at.starts, at.finishes)
				}
			}
		}
	}
}

// TestDriveOutRefactorFailureRecovers: after phase 1, a degenerate basic
// artificial is pivoted out of the basis. If that pivot's update is
// rejected and the rebuild it calls for fails too, the drive-out stops and
// phase 2's own refactorization recovers: the solve still ends Optimal.
// The single row −x − y = 0 leaves its artificial basic at zero with no
// improving column, so the drive-out
// pivot is the solve's first update.
func TestDriveOutRefactorFailureRecovers(t *testing.T) {
	p := NewProblem(Minimize, 2)
	p.Obj = []float64{1, 1}
	p.AddConstraint("balance", []float64{-1, -1}, EQ, 0)
	p.AddConstraint("cap", []float64{1, 2}, LE, 4)
	for _, kc := range kernelConfigs {
		sol, basis, at, err := solveFaulty(p, nil, kc.opts, &faultPlan{updateAt: 1, refactorAfterUpdate: true})
		if err != nil || at.starts != 1 {
			t.Fatalf("%s: %v in %d attempts, want Optimal in one", kc.name, err, at.starts)
		}
		if cerr := certifyVerdict(p, sol, basis, 0, kc.opts...); cerr != nil {
			t.Errorf("%s: verdict not certified: %v", kc.name, cerr)
		}
	}
}

// TestWarmRefactorFailureFallsBackCold: a warm start whose refactorization
// fails — the basis is singular under the new data, or a rebuild during
// its dual-simplex repair or phase 2 fails — is abandoned for a cold solve,
// which returns exactly the answer a cold Solve does, with WarmStarted
// false and two start/finish pairs. The warm basis is the u = 10 optimum of
// TestWithMaxPivotsWarmReportsWork's LP, which needs two dual pivots at
// u = 2. Every Refactor of the warm attempt is failed in turn, then every
// Update together with the rebuild that recovers from it.
func TestWarmRefactorFailureFallsBackCold(t *testing.T) {
	build := func(u float64) *Problem {
		p := NewProblem(Minimize, 4)
		p.Obj = []float64{1, 2, 1, 2}
		for b := 0; b < 2; b++ {
			p.AddConstraintNZ("cover", []int{2 * b, 2*b + 1}, []float64{1, 1}, GE, 5)
			p.AddConstraintNZ("cap", []int{2 * b}, []float64{1}, LE, u)
		}
		return p
	}
	for _, kc := range kernelConfigs {
		_, warm, err := NewSolver(kc.opts...).Solve(context.Background(), build(10), nil)
		if err != nil {
			t.Fatalf("%s: u=10: %v", kc.name, err)
		}
		p := build(2)
		cold, _, err := NewSolver(kc.opts...).Solve(context.Background(), p, nil)
		if err != nil {
			t.Fatalf("%s: cold: %v", kc.name, err)
		}
		var count faultPlan
		if sol, _, _, err := solveFaulty(p, warm, kc.opts, &count); err != nil || !sol.WarmStarted || count.updates == 0 {
			t.Fatalf("%s: unfailed warm solve: err %v, warm %v, %d updates; want a warm start with pivots",
				kc.name, err, sol.WarmStarted, count.updates)
		}
		var plans []faultPlan
		for k := 1; k <= count.refactors; k++ {
			plans = append(plans, faultPlan{refactorAt: k})
		}
		for k := 1; k <= count.updates; k++ {
			plans = append(plans, faultPlan{updateAt: k, refactorAfterUpdate: true})
		}
		for _, plan := range plans {
			sol, basis, at, err := solveFaulty(p, warm, kc.opts, &plan)
			label := kc.name
			switch {
			case err != nil:
				t.Errorf("%s: %+v: %v", label, plan, err)
			case sol.WarmStarted:
				t.Errorf("%s: %+v: WarmStarted after a failed warm refactorization", label, plan)
			case at.starts != 2 || at.finishes != 2:
				t.Errorf("%s: %+v: %d starts, %d finishes; want a warm and a cold attempt", label, plan, at.starts, at.finishes)
			case sol.Objective != cold.Objective || !reflect.DeepEqual(sol.X, cold.X):
				t.Errorf("%s: %+v: fallback objective %.17g, cold %.17g", label, plan, sol.Objective, cold.Objective)
			default:
				if cerr := certifyVerdict(p, sol, basis, 0, kc.opts...); cerr != nil {
					t.Errorf("%s: %+v: verdict not certified: %v", label, plan, cerr)
				}
			}
		}
	}
}

// TestWarmNonzeroArtificialFallsBackCold: a warm basis whose refactorized
// basic values put an artificial above zero describes no feasible point of
// the new problem, so the warm attempt stops right after its first
// refactorization and the cold fallback gives the verdict. The rows
// x + y = 1 and 2x + 2y = 2 are one hyperplane twice: the cold optimum keeps
// the second row's artificial basic at zero. Moving that row's rhs to 3
// makes the artificial carry 1 under the same basis, and the problem
// infeasible.
func TestWarmNonzeroArtificialFallsBackCold(t *testing.T) {
	build := func(rhs2 float64) *Problem {
		p := NewProblem(Minimize, 2)
		p.Obj = []float64{1, 2}
		p.AddConstraint("r1", []float64{1, 1}, EQ, 1)
		p.AddConstraint("r2", []float64{2, 2}, EQ, rhs2)
		return p
	}
	for _, kc := range kernelConfigs {
		_, warm, err := NewSolver(kc.opts...).Solve(context.Background(), build(2), nil)
		if err != nil {
			t.Fatalf("%s: rhs 2: %v", kc.name, err)
		}
		if !slices.Equal(warm.cols, []int{2, 0}) {
			t.Fatalf("%s: rhs 2 basis columns %v, want [2 0]: an artificial basic at zero", kc.name, warm.cols)
		}
		// Each attempt's events, phase-tagged: a warm attempt of a start,
		// one refactorization and a finish before any phase begins is the
		// artificial check returning. (A singular basis emits no refactor
		// event; every later exit runs a phase first.)
		var runs [][]string
		mon := WithMonitor(MonitorFunc(func(s Snapshot) {
			if s.Event == "start" {
				runs = append(runs, nil)
			}
			runs[len(runs)-1] = append(runs[len(runs)-1], s.Event+"/"+s.Phase)
		}))
		sol, basis, err := NewSolver(append(slices.Clone(kc.opts), mon)...).Solve(context.Background(), build(3), warm)
		if sol.Status != Infeasible || !errors.Is(err, ErrNotOptimal) || basis != nil || sol.WarmStarted {
			t.Errorf("%s: rhs 3: status %v, err %v, basis %v, warm %v; want a cold Infeasible verdict",
				kc.name, sol.Status, err, basis, sol.WarmStarted)
		}
		if len(runs) != 2 {
			t.Fatalf("%s: %d attempts %v; want a warm and a cold one", kc.name, len(runs), runs)
		}
		if want := []string{"start/", "refactor/", "finish/"}; !slices.Equal(runs[0], want) {
			t.Errorf("%s: warm attempt events %v, want %v", kc.name, runs[0], want)
		}
	}
}

// TestColdVerifyRejectionIsNumerical: a cold solve whose final basic values
// pass phase 2's sign check but violate an LE row of the original problem
// beyond verify's tolerance is Numerical, and the cold verdict is final.
// The solve's last FTRAN is phase 2's final exact recomputation of the
// basic values; doubling it keeps them nonnegative but moves the optimum
// x = 4, y = 6 of min 2x + 3y, x + y ≥ 10, x ≤ 4 to x = 8, which breaks
// the cap.
func TestColdVerifyRejectionIsNumerical(t *testing.T) {
	checkFinalFtranRejected(t, sweepProblem(4), 2)
}

// TestColdVerifyGERejectionIsNumerical: halving the same final FTRAN moves
// the optimum to x = 2, y = 3, within the cap but short of the cover row
// x + y ≥ 10, which verify's GE test rejects.
func TestColdVerifyGERejectionIsNumerical(t *testing.T) {
	checkFinalFtranRejected(t, sweepProblem(4), 0.5)
}

// TestColdVerifyEQRejectionIsNumerical: with the cover row an equality,
// x + y = 10, doubling the final FTRAN gives x + y = 20, which verify's EQ
// test rejects before it reaches the cap.
func TestColdVerifyEQRejectionIsNumerical(t *testing.T) {
	p := NewProblem(Minimize, 2)
	p.Obj = []float64{2, 3}
	p.AddConstraint("cover", []float64{1, 1}, EQ, 10)
	p.AddConstraint("cap", []float64{1, 0}, LE, 4)
	checkFinalFtranRejected(t, p, 2)
}

// TestColdVerifyNonFiniteIsNumerical: a NaN in the final FTRAN passes
// phase 2's sign check and its clamp at zero (NaN < 0 is false), so only
// verify's NaN/±Inf test can reject it.
func TestColdVerifyNonFiniteIsNumerical(t *testing.T) {
	checkFinalFtranRejected(t, sweepProblem(4), math.NaN())
}

// checkFinalFtranRejected solves p cold under both kernels with its last
// FTRAN, phase 2's final recomputation of the basic values, multiplied by
// scale, and wants verify to turn the attempt Numerical: no basis, and no
// second attempt.
func checkFinalFtranRejected(t *testing.T, p *Problem, scale float64) {
	t.Helper()
	for _, kc := range kernelConfigs {
		var count faultPlan
		if sol, _, _, err := solveFaulty(p, nil, kc.opts, &count); err != nil || count.ftrans == 0 {
			t.Fatalf("%s: unfailed solve: status %v, err %v, %d FTRANs", kc.name, sol.Status, err, count.ftrans)
		}
		plan := faultPlan{scaleFtranAt: count.ftrans, ftranScale: scale}
		sol, basis, at, err := solveFaulty(p, nil, kc.opts, &plan)
		if !plan.ftranHit || sol.Status != Numerical || !errors.Is(err, ErrNotOptimal) || basis != nil {
			t.Errorf("%s: final FTRAN scaled by %g (hit %v): status %v, err %v, basis %v; want Numerical and no basis",
				kc.name, scale, plan.ftranHit, sol.Status, err, basis)
		}
		if at.starts != 1 || at.finishes != 1 {
			t.Errorf("%s: %d starts, %d finishes; want one attempt", kc.name, at.starts, at.finishes)
		}
	}
}

// TestWarmDualTinyPivotFallsBackCold: a dual-simplex pivot whose entering
// direction has no usable entry at the leaving row (|w[row]| ≤ pivotTol:
// the FTRAN disagrees with the BTRAN row that priced the column) abandons
// the warm attempt, and the cold fallback gives the unfailed verdict with
// WarmStarted false. The LP is TestWarmRefactorFailureFallsBackCold's,
// whose u = 10 basis needs dual pivots at u = 2; zeroing the first dual
// pivot's direction makes its w[row] zero.
func TestWarmDualTinyPivotFallsBackCold(t *testing.T) {
	build := func(u float64) *Problem {
		p := NewProblem(Minimize, 4)
		p.Obj = []float64{1, 2, 1, 2}
		for b := 0; b < 2; b++ {
			p.AddConstraintNZ("cover", []int{2 * b, 2*b + 1}, []float64{1, 1}, GE, 5)
			p.AddConstraintNZ("cap", []int{2 * b}, []float64{1}, LE, u)
		}
		return p
	}
	for _, kc := range kernelConfigs {
		_, warm, err := NewSolver(kc.opts...).Solve(context.Background(), build(10), nil)
		if err != nil {
			t.Fatalf("%s: u=10: %v", kc.name, err)
		}
		p := build(2)
		want, _, err := NewSolver(kc.opts...).Solve(context.Background(), p, warm)
		if err != nil || !want.WarmStarted {
			t.Fatalf("%s: unfailed warm solve: err %v, warm %v; want a warm start", kc.name, err, want.WarmStarted)
		}
		plan := faultPlan{zeroFtranAfterBtran: true}
		sol, basis, at, err := solveFaulty(p, warm, kc.opts, &plan)
		switch {
		case err != nil || !plan.ftranHit:
			t.Errorf("%s: %v (hit %v)", kc.name, err, plan.ftranHit)
		case sol.WarmStarted:
			t.Errorf("%s: WarmStarted after the tiny-pivot exit", kc.name)
		case len(at.finishPhases) != 2 || at.finishPhases[0] != "dual":
			t.Errorf("%s: attempts finished in phases %v; want dual, then a cold attempt", kc.name, at.finishPhases)
		case sol.Status != want.Status || math.Abs(sol.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)):
			t.Errorf("%s: fallback %v at %.17g, unfailed %v at %.17g", kc.name, sol.Status, sol.Objective, want.Status, want.Objective)
		default:
			if cerr := certifyVerdict(p, sol, basis, 0, kc.opts...); cerr != nil {
				t.Errorf("%s: verdict not certified: %v", kc.name, cerr)
			}
		}
	}
}
