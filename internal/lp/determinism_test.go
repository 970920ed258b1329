package lp

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// wideProblems returns instances wide enough (nTot ≥ parGrain·workers) that
// the chunked pricing scans genuinely fan out over the worker pool — the
// parity corpus alone never crosses parGrain, so on its own it would only
// test the sequential fallback. Cover-style GE rows force both phases to
// pivot, and the randomized sparse columns give Dantzig and Devex pricing
// real tie-break opportunities at chunk boundaries.
func wideProblems() map[string]*Problem {
	probs := map[string]*Problem{}
	for _, w := range []struct {
		name string
		seed int64
		m, n int
	}{
		{"wide-cover", 7, 48, 3*parGrain + 17},
		{"wide-mixed", 19, 32, 8*parGrain + 3},
	} {
		r := rand.New(rand.NewSource(w.seed))
		q := NewProblem(Minimize, w.n)
		x0 := make([]float64, w.m) // target row activities
		rows := make([][]float64, w.m)
		for i := range rows {
			rows[i] = make([]float64, w.n)
			x0[i] = 1 + r.Float64()*4
		}
		for j := 0; j < w.n; j++ {
			q.Obj[j] = r.Float64()
			// Each column touches 1–3 rows with positive weight.
			for k, t := 0, 1+r.Intn(3); k < t; k++ {
				rows[r.Intn(w.m)][j] = math.Abs(r.NormFloat64())
			}
		}
		for i, coeffs := range rows {
			switch {
			case w.name == "wide-mixed" && i%5 == 0:
				q.AddConstraint("eq", coeffs, EQ, x0[i])
			default:
				q.AddConstraint("ge", coeffs, GE, x0[i])
			}
		}
		probs[w.name] = q
	}
	return probs
}

// solveWith runs one solve under the given kernel options and worker count.
func solveWith(t *testing.T, p *Problem, opts []Option, workers int) (*Solution, *Basis) {
	t.Helper()
	s := NewSolver(append([]Option{withPricingWorkers(workers)}, opts...)...)
	sol, basis, err := s.Solve(context.Background(), p, nil)
	if err != nil && sol.Status != Infeasible && sol.Status != Unbounded {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return sol, basis
}

// TestParallelPricingDeterminism is the bit-identity contract of the
// chunked pricing scans: for every corpus and wide instance, both pricing
// rules (Dantzig under the dense kernel, Devex under the forced at-scale
// one), and workers ∈ {2, 8}, the solve must reproduce the sequential
// (workers = 1) run exactly — same pivot count and refactorization count
// (a pivot sequence that diverged anywhere could not re-converge to both),
// the same final basis, and a bit-identical solution vector. Run under
// -race this also proves the fan-out writes are disjoint.
func TestParallelPricingDeterminism(t *testing.T) {
	probs := parityProblems()
	for name, p := range wideProblems() {
		probs[name] = p
	}
	for name, p := range probs {
		for _, kc := range kernelConfigs {
			seq, seqBasis := solveWith(t, p, kc.opts, 1)
			for _, workers := range []int{2, 8} {
				sol, basis := solveWith(t, p, kc.opts, workers)
				tag := func(field string) string {
					return fmt.Sprintf("%s/%s/workers=%d: %s", name, kc.name, workers, field)
				}
				if sol.Status != seq.Status {
					t.Errorf("%s: %v, sequential %v", tag("status"), sol.Status, seq.Status)
					continue
				}
				if sol.Iterations != seq.Iterations {
					t.Errorf("%s: %d, sequential %d", tag("pivots"), sol.Iterations, seq.Iterations)
				}
				if sol.Refactorizations != seq.Refactorizations {
					t.Errorf("%s: %d, sequential %d", tag("refactorizations"), sol.Refactorizations, seq.Refactorizations)
				}
				if sol.Objective != seq.Objective {
					t.Errorf("%s: %v, sequential %v (not bit-identical)", tag("objective"), sol.Objective, seq.Objective)
				}
				for j := range seq.X {
					if sol.X[j] != seq.X[j] {
						t.Errorf("%s: x[%d] = %v, sequential %v (not bit-identical)", tag("solution"), j, sol.X[j], seq.X[j])
						break
					}
				}
				switch {
				case (basis == nil) != (seqBasis == nil):
					t.Errorf("%s: basis presence %v, sequential %v", tag("basis"), basis != nil, seqBasis != nil)
				case basis != nil:
					got, err1 := basis.MarshalBinary()
					want, err2 := seqBasis.MarshalBinary()
					if err1 != nil || err2 != nil {
						t.Fatalf("%s: marshal: %v / %v", tag("basis"), err1, err2)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s: differs from sequential", tag("basis"))
					}
				}
			}
		}
	}
}

// recordingMonitor captures every flight-recorder snapshot.
type recordingMonitor struct {
	events []Snapshot
}

func (m *recordingMonitor) Observe(s Snapshot) { m.events = append(m.events, s) }

// TestMonitorDeterminism is the no-trajectory-perturbation contract of the
// flight recorder: for every corpus and wide instance, a solve with a
// recording monitor attached at the tightest cadence (every pivot) must
// reproduce the bare solve exactly — same pivot and refactorization counts,
// bit-identical objective and solution vector, byte-identical exported
// basis. The warm-start path is held to the same standard. Run under -race
// this also proves snapshots read no state the pivot loop is writing
// concurrently.
func TestMonitorDeterminism(t *testing.T) {
	probs := parityProblems()
	for name, p := range wideProblems() {
		probs[name] = p
	}
	solve := func(p *Problem, warm *Basis, opts ...Option) (*Solution, *Basis) {
		t.Helper()
		sol, basis, err := NewSolver(opts...).Solve(context.Background(), p, warm)
		if err != nil && sol.Status != Infeasible && sol.Status != Unbounded {
			t.Fatalf("solve: %v", err)
		}
		return sol, basis
	}
	compare := func(tag string, bare, mon *Solution, bareBasis, monBasis *Basis) {
		t.Helper()
		if mon.Status != bare.Status {
			t.Errorf("%s: status %v, bare %v", tag, mon.Status, bare.Status)
			return
		}
		if mon.Iterations != bare.Iterations {
			t.Errorf("%s: pivots %d, bare %d", tag, mon.Iterations, bare.Iterations)
		}
		if mon.Refactorizations != bare.Refactorizations {
			t.Errorf("%s: refactorizations %d, bare %d", tag, mon.Refactorizations, bare.Refactorizations)
		}
		if mon.Objective != bare.Objective {
			t.Errorf("%s: objective %v, bare %v (not bit-identical)", tag, mon.Objective, bare.Objective)
		}
		for j := range bare.X {
			if mon.X[j] != bare.X[j] {
				t.Errorf("%s: x[%d] = %v, bare %v (not bit-identical)", tag, j, mon.X[j], bare.X[j])
				break
			}
		}
		switch {
		case (monBasis == nil) != (bareBasis == nil):
			t.Errorf("%s: basis presence %v, bare %v", tag, monBasis != nil, bareBasis != nil)
		case monBasis != nil:
			got, err1 := monBasis.MarshalBinary()
			want, err2 := bareBasis.MarshalBinary()
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: marshal: %v / %v", tag, err1, err2)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: basis differs from bare solve", tag)
			}
		}
	}
	for name, p := range probs {
		bare, bareBasis := solve(p, nil)
		rec := &recordingMonitor{}
		mon, monBasis := solve(p, nil, WithMonitor(rec), WithMonitorEvery(1))
		compare(name, bare, mon, bareBasis, monBasis)

		// The monitor must have seen a coherent event stream: balanced
		// start/finish pairs and non-decreasing pivot counts per attempt.
		starts, finishes := 0, 0
		pivots := 0
		for _, ev := range rec.events {
			switch ev.Event {
			case "start":
				starts++
				pivots = 0
			case "finish":
				finishes++
			}
			if ev.Pivots < pivots {
				t.Errorf("%s: pivot counter went backwards within an attempt (%d after %d)", name, ev.Pivots, pivots)
			}
			pivots = ev.Pivots
		}
		if starts == 0 || starts != finishes {
			t.Errorf("%s: %d start events vs %d finish events", name, starts, finishes)
		}
		if bare.Status == Optimal && bare.Iterations > 0 && len(rec.events) <= 2 {
			t.Errorf("%s: only %d events for a %d-pivot solve at cadence 1", name, len(rec.events), bare.Iterations)
		}

		// Warm restarts must be equally untouched by an attached monitor.
		if bareBasis == nil {
			continue
		}
		warmBare, warmBareBasis := solve(p, bareBasis)
		warmRec := &recordingMonitor{}
		warmMon, warmMonBasis := solve(p, bareBasis, WithMonitor(warmRec), WithMonitorEvery(1))
		compare(name+"/warm", warmBare, warmMon, warmBareBasis, warmMonBasis)
		if len(warmRec.events) == 0 {
			t.Errorf("%s/warm: monitor saw no events", name)
		}
	}
}

// TestWideProblemsEngageParallelPricing guards the suite above against
// rotting into a sequential-only test: the wide instances must actually
// cross the pool's fan-out threshold with slack, and must take real pivots
// to a real optimum rather than exiting on a degenerate edge case.
func TestWideProblemsEngageParallelPricing(t *testing.T) {
	pool := newWorkPool(8)
	for name, p := range wideProblems() {
		if nv := p.NumVars(); !pool.parallel(nv) {
			t.Errorf("%s: %d variables does not engage the parallel scan (grain %d)", name, nv, parGrain)
		}
		sol, _, err := NewSolver(withPricingWorkers(2)).Solve(context.Background(), p, nil)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if sol.Status != Optimal || sol.Iterations == 0 {
			t.Errorf("%s: status %v after %d pivots, want a pivoted optimum", name, sol.Status, sol.Iterations)
		}
	}
}
