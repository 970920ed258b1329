package lp

// Solve flight recorder: a per-solve callback observing the simplex in
// flight. A Monitor attached with WithMonitor receives a Snapshot at solve
// start and finish, at every exact recomputation (refactorization), on the
// first degenerate-stall escalation of a phase, and
// every WithMonitorEvery pivots in between — enough to render live progress
// for a solve that runs for minutes without waiting for Solution.
//
// Two hard guarantees, enforced by the determinism suite:
//
//   - A nil monitor is zero overhead: the pivot loops test one pointer.
//   - An attached monitor cannot perturb the pivot trajectory: every
//     snapshot is computed read-only from solver state, so pivots,
//     refactorization points, the objective bits and the final basis are
//     bit-identical with and without a monitor.
//
// Observe is called synchronously from the pivot loop — a slow monitor
// slows the solve (never changes it). Implementations that feed live
// tables (the serving daemon) should store the snapshot under a lock and
// return; rendering belongs to the reader.

import (
	"time"

	"repro/internal/mat"
)

// Snapshot is one flight-recorder observation of a solve in progress. All
// fields are values (no references into solver state), so a snapshot may be
// retained and read concurrently with the ongoing solve.
type Snapshot struct {
	// Event says why the snapshot was taken: "start", "progress" (pivot
	// cadence), "refactor" (an exact recomputation point: the basis
	// refactorized, or the basic values recomputed from an unchanged
	// factorization after an rhs change), "stall" (anti-cycling
	// escalation), "finish".
	Event string
	// Phase is the simplex phase at the time: "phase1", "phase2", or
	// "dual" (dual-simplex repair); empty before the first phase starts.
	Phase string
	// Pivots and Refactorizations are the work counters so far (the same
	// counters a finished Solution reports).
	Pivots           int
	Refactorizations int
	// Objective is the active phase's standard-form objective at the
	// current basis, Σ c[basis[i]]·xB[i]: the phase-1 artificial mass
	// during phase 1, the (minimization-form) objective during phase 2.
	Objective float64
	// PrimalInf is the primal infeasibility inf-norm max(0, −min xB);
	// DualInf the worst maintained reduced-cost violation among priced
	// nonbasic columns. Both are 0 at a clean optimum.
	PrimalInf float64
	DualInf   float64
	// EtaLen is the update-file length since the last refactorization and
	// FactorNNZ the factorization's stored nonzeros.
	EtaLen    int
	FactorNNZ int
	// Health is the basis kernel's numerical-health record (zero for the
	// dense kernel): element growth, diagonal range, Forrest–Tomlin
	// rejections, hyper-sparse vs dense BTRAN counts (FTRAN is always
	// dense and uncounted).
	Health mat.HealthStats
	// Timings is the per-stage wall-clock split so far and Elapsed the
	// total wall clock since the solve attempt started.
	Timings Timings
	Elapsed time.Duration
}

// Monitor observes solve snapshots. Implementations must be safe for use
// from the solving goroutine; they are never called concurrently by one
// solve.
type Monitor interface {
	Observe(Snapshot)
}

// MonitorFunc adapts a function to the Monitor interface.
type MonitorFunc func(Snapshot)

// Observe calls f(s).
func (f MonitorFunc) Observe(s Snapshot) { f(s) }

// defaultMonitorEvery is the pivot cadence of "progress" snapshots when
// WithMonitorEvery is not set: frequent enough for a live view of a
// multi-minute solve, rare enough that snapshot cost (O(m + n) scans) is
// noise against the pivots in between.
const defaultMonitorEvery = 64

// WithMonitor attaches a solve flight recorder. m is shared by both solve
// attempts of a Solve call (warm start, then its cold fallback); each
// attempt emits its own start/finish pair. nil detaches.
func WithMonitor(m Monitor) Option {
	return func(c *solverConfig) { c.monitor = m }
}

// WithMonitorEvery sets the pivot cadence of "progress" snapshots
// (n <= 0 keeps the default of 64).
func WithMonitorEvery(n int) Option {
	return func(c *solverConfig) { c.monitorEvery = n }
}

// setMonPhase records the active phase for snapshots: its name, its
// standard-form cost vector, and the number of priced columns (dual
// infeasibility is only meaningful over columns the phase actually
// prices). It also re-arms the once-per-phase stall event.
func (r *revised) setMonPhase(phase string, cost mat.Vector, maxCol int) {
	if r.mon == nil {
		return
	}
	r.monPhase, r.monCost, r.monMaxCol = phase, cost, maxCol
	r.monStall = false
}

// snapshot assembles a flight-recorder observation from current solver
// state. Strictly read-only — the no-trajectory-perturbation guarantee
// lives here.
func (r *revised) snapshot(event string) Snapshot {
	s := Snapshot{
		Event:            event,
		Phase:            r.monPhase,
		Pivots:           r.iterations,
		Refactorizations: r.refactors,
		EtaLen:           r.fact.Updates(),
		FactorNNZ:        r.fact.NNZ(),
		Health:           r.fact.Health(),
		Timings:          r.tm,
		Elapsed:          time.Since(r.monStart),
	}
	if r.monCost != nil {
		obj := 0.0
		for i, b := range r.basis {
			obj += r.monCost[b] * r.xB[i]
		}
		s.Objective = obj
	}
	pinf := 0.0
	for _, v := range r.xB {
		if -v > pinf {
			pinf = -v
		}
	}
	s.PrimalInf = pinf
	if r.d != nil {
		dinf := 0.0
		for j := 0; j < r.monMaxCol && j < len(r.d); j++ {
			if r.pos[j] < 0 {
				if v := -r.d[j]; v > dinf {
					dinf = v
				}
			}
		}
		s.DualInf = dinf
	}
	return s
}

// emit delivers a snapshot to the attached monitor, if any.
func (r *revised) emit(event string) {
	if r.mon == nil {
		return
	}
	r.mon.Observe(r.snapshot(event))
}

// emitProgress delivers a "progress" snapshot when the pivot cadence is
// due. Called once per pivot-loop iteration; the fast path is one pointer
// test.
func (r *revised) emitProgress() {
	if r.mon == nil || r.iterations-r.monLast < r.monEvery {
		return
	}
	r.monLast = r.iterations
	r.emit("progress")
}

// finishMon emits the final "finish" snapshot exactly once per solve
// attempt (both the cold path and the warm path defer it).
func (r *revised) finishMon() {
	if r.mon == nil || r.monDone {
		return
	}
	r.monDone = true
	r.emit("finish")
}
