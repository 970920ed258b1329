package lp

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cancelwalk"
)

// TestSolveCancellationWalk cancels a solve at each of its context polls in
// turn (one per pivot-loop iteration, plus the re-checks after a failed
// dual-simplex repair), cold and warm, under both kernels. Every cancelled
// run must return Cancelled, no basis and an error carrying the cause,
// and leave no goroutine behind; the run past the last poll must equal the
// uncancelled solve bit for bit. The cold solve is balance-stiff's; the
// warm one tightens textbook-max's c3 row from 18 to 10 and starts from the
// old optimal basis, which the tighter row leaves primal infeasible, so it
// takes dual-simplex pivots.
func TestSolveCancellationWalk(t *testing.T) {
	stiff := parityProblems()["balance-stiff"]
	loose := parityProblems()["textbook-max"]
	tight := parityProblems()["textbook-max"]
	tight.Cons[2].RHS = 10
	for _, kc := range kernelConfigs {
		_, basis, err := NewSolver(kc.opts...).Solve(context.Background(), loose, nil)
		if err != nil {
			t.Fatalf("%s: %v", kc.name, err)
		}
		for _, tc := range []struct {
			name string
			p    *Problem
			warm *Basis
		}{
			{"cold", stiff, nil},
			{"warm", tight, basis},
		} {
			label := tc.name + "/" + kc.name
			s := NewSolver(kc.opts...)
			want, wantBasis, err := s.Solve(context.Background(), tc.p, tc.warm)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if tc.warm != nil && (!want.WarmStarted || want.Iterations == 0) {
				t.Fatalf("%s: warm %v after %d pivots, want a warm start that pivots", label, want.WarmStarted, want.Iterations)
			}
			base := runtime.NumGoroutine()
			n := cancelwalk.Walk(func(ctx *cancelwalk.Context) {
				sol, basis, err := s.Solve(ctx, tc.p, tc.warm)
				if got := runtime.NumGoroutine(); got > base {
					t.Errorf("%s: %d goroutines after the solve, %d before", label, got, base)
				}
				if ctx.Fired() {
					if sol.Status != Cancelled || basis != nil || !errors.Is(err, cancelwalk.ErrWalk) {
						t.Errorf("%s: cancelled solve returned %v, basis %v, err %v", label, sol.Status, basis, err)
					}
					return
				}
				if err != nil || !sameSolve(sol, want) || !reflect.DeepEqual(basis, wantBasis) {
					t.Errorf("%s: solve past the last poll differs from the uncancelled one (err %v)", label, err)
				}
			})
			if n <= want.Iterations {
				t.Errorf("%s: %d polls for %d pivots; want one per pivot at least", label, n-1, want.Iterations)
			}
		}
	}
}

// sameSolve reports whether two solves agree bit for bit on everything but
// their wall-clock timings.
func sameSolve(a, b *Solution) bool {
	a2, b2 := *a, *b
	a2.Timings, b2.Timings = Timings{}, Timings{}
	return reflect.DeepEqual(a2, b2)
}
