// Package sweep is the concurrent engine behind the repo's Pareto-style
// parameter sweeps (the dozens of closely related LP solves behind each of
// the paper's Figs. 9–14 tradeoff curves).
//
// Two primitives cover every sweep shape in the experiment runners:
//
//   - Map fans any indexed computation out over a bounded worker pool
//     (GOMAXPROCS-sized by default), is context-cancellable, and returns
//     results in input-index order regardless of completion order — the
//     grid-style experiments (different device configurations per point)
//     build on it directly.
//
//   - Pareto specializes Map for the single-model bound sweep of
//     core.ParetoSweep: the bound values are split into contiguous chunks,
//     one per worker, and each chunk is solved in order with LP
//     warm-starting — every point after a chunk's first reuses the previous
//     feasible point's optimal simplex basis, falling back to a cold
//     two-phase solve whenever the basis does not carry over. Each chunk
//     builds its frequency LP once and keeps it resident (lp.Resident): a
//     point only moves the swept bound's right-hand side, and a warm point
//     reuses the previous solve's standard form and basis factorization, so
//     an rhs-only change costs one FTRAN instead of an LP assembly and an LU
//     rebuild.
//
// Warm-starting is inherently sequential (each point seeds the next) while
// parallelism wants independence; chunking reconciles the two. Both
// primitives are deterministic for a fixed input and worker count, and
// Pareto produces the same points with the same objectives as the
// sequential core.ParetoSweep path (on a degenerate LP the extracted
// policy may be a different optimum of equal objective).
// This is also the seam for future scaling: a sharded or multi-backend
// solver only needs to replace the chunk worker — internal/server already
// drives Pareto as its /v1/sweep backend. Cancelling the sweep context
// aborts not just between points but inside the active solves: the chunk
// worker runs core.ParetoSweepCtx, whose lp layer checks the context once
// per simplex pivot.
package sweep

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/lp"
)

// Config tunes the engine. The zero value — GOMAXPROCS workers,
// warm-starting on — is right for almost every caller.
type Config struct {
	// Workers bounds the number of concurrent solves; values <= 0 select
	// runtime.GOMAXPROCS(0). Workers == 1 reproduces the sequential path.
	Workers int
	// Cold disables LP warm-starting between consecutive points of a chunk,
	// so every point solves from scratch (the engine's behaviour before
	// basis reuse existed; kept for benchmarking and bisection).
	Cold bool
}

// workers resolves the effective worker count for n work items.
func (c Config) workers(n int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn(ctx, i) for every i in [0, n) on a bounded worker pool and
// returns the results in index order. The first error cancels all remaining
// work and is returned (an already-cancelled ctx surfaces as its error).
// fn must be safe for concurrent invocation.
func Map[T any](ctx context.Context, cfg Config, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var skipped atomic.Bool
	var wg sync.WaitGroup
	for w := cfg.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx.Err() != nil {
					skipped.Store(true)
					return
				}
				v, err := fn(ctx, i)
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()

	// Deterministic error selection: the lowest-index real failure wins over
	// the cancellations it triggered in sibling workers.
	var firstCancel error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		if firstCancel == nil {
			firstCancel = err
		}
	}
	if firstCancel != nil {
		return nil, firstCancel
	}
	if skipped.Load() {
		return nil, context.Cause(ctx)
	}
	return out, nil
}

// Pareto traces the tradeoff curve of core.ParetoSweep concurrently: the
// bound values are split into contiguous chunks, one per worker, and each
// chunk runs the warm-started sequential sweep (core.ParetoSweepCtx, one
// resident LP per chunk) over its slice. Results come
// back in input order; infeasible values yield ParetoPoint{Feasible: false}
// exactly like the sequential path, and any other optimizer error aborts the
// whole sweep.
func Pareto(ctx context.Context, m *core.Model, opts core.Options, metric string, rel lp.Rel, boundValues []float64, cfg Config) ([]core.ParetoPoint, error) {
	n := len(boundValues)
	if n == 0 {
		return nil, ctx.Err()
	}
	w := cfg.workers(n)
	type span struct{ lo, hi int }
	chunks := make([]span, 0, w)
	for k := 0; k < w; k++ {
		if lo, hi := k*n/w, (k+1)*n/w; lo < hi {
			chunks = append(chunks, span{lo, hi})
		}
	}
	parts, err := Map(ctx, Config{Workers: len(chunks)}, len(chunks),
		func(ctx context.Context, ci int) ([]core.ParetoPoint, error) {
			return core.ParetoSweepCtx(ctx, m, opts, metric, rel, boundValues[chunks[ci].lo:chunks[ci].hi], cfg.Cold)
		})
	if err != nil {
		return nil, err
	}
	points := make([]core.ParetoPoint, 0, n)
	for _, p := range parts {
		points = append(points, p...)
	}
	return points, nil
}

// Stats summarizes how a sweep's solves went; it exists for CLI reporting
// and tests, not for control flow. Pivots and Refactorizations count the
// feasible points only, each point's final solve attempt: an infeasible
// point carries no Result, and a warm attempt a point discarded for a cold
// solve is not in its Result.
type Stats struct {
	Points           int // total points
	Feasible         int // points with a finite optimum
	WarmStarted      int // feasible points whose LP reused a basis
	Pivots           int // simplex iterations of the feasible points' solves
	Refactorizations int // basis refactorizations of the feasible points' solves
}

// Tally collects Stats over a finished sweep (work counts from the feasible
// points only; see Stats).
func Tally(points []core.ParetoPoint) Stats {
	var s Stats
	s.Points = len(points)
	for _, p := range points {
		if !p.Feasible {
			continue
		}
		s.Feasible++
		if p.Result != nil {
			if p.Result.WarmStarted {
				s.WarmStarted++
			}
			s.Pivots += p.Result.LPIterations
			s.Refactorizations += p.Result.LPRefactorizations
		}
	}
	return s
}
