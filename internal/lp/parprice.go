package lp

// Deterministic parallel pricing. The per-pivot O(nTot) scans — the pricing
// Choose, the reduced-cost maintenance over the pivot row's support, and the
// periodic exact recomputation — are data-parallel over columns, and on wide
// problems (k≈6 composites price ~7.8·10⁴ columns per pivot) they dominate
// the pivot once the kernel solves are hyper-sparse. They are chunked over a
// bounded worker pool (the internal/sweep pattern: contiguous chunks, one
// per worker, GOMAXPROCS-sized by default).
//
// Determinism is a hard contract, not best-effort: the chosen entering
// column — and therefore the entire pivot sequence — must be bit-identical
// to the sequential path for every worker count. Two properties deliver it:
//
//   - Per-column work is read-shared / write-disjoint (d[j], dScale[j],
//     γ[j] are written only by the chunk owning j), so values never depend
//     on scheduling.
//   - Argmax-style scans reduce per-chunk results in ascending chunk order
//     with the same strictly-better comparison the sequential scan uses.
//     The sequential scan keeps the first of equals; chunks are contiguous
//     and ordered, so "first chunk's winner wins ties" is exactly "lowest
//     column index wins ties", independent of chunk boundaries.
//
// FP accumulation order is never split across workers (the pivot-row
// scatter stays sequential), so no floating-point reduction is reassociated.

import (
	"runtime"
	"sync"
)

// parGrain is the minimum number of columns per parallel region; below it
// goroutine handoff costs more than the scan.
const parGrain = 2048

// workPool fans an index range out over a fixed number of workers in
// contiguous, deterministically-sized chunks. The zero value and nil run
// sequentially; a pool is per-solve state (created in newRevised) and not
// safe for concurrent run calls.
type workPool struct {
	workers int
	res     []int     // per-chunk argmax index scratch, reused across regions
	resVal  []float64 // per-chunk argmax key scratch
}

// resolveWorkers maps solverConfig.pricingWorkers to an effective worker
// count: n > 0 is explicit (tests pin 1/2/8), n <= 0 is auto —
// GOMAXPROCS capped at 8 (pricing scans saturate memory bandwidth long
// before they scale past that).
func resolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

func newWorkPool(workers int) *workPool {
	if workers < 1 {
		workers = 1
	}
	return &workPool{
		workers: workers,
		res:     make([]int, workers),
		resVal:  make([]float64, workers),
	}
}

// parallel reports whether a region of n columns is worth fanning out.
func (p *workPool) parallel(n int) bool {
	return p != nil && p.workers > 1 && n >= parGrain
}

// run invokes fn(ci, lo, hi) for each of exactly p.workers contiguous
// chunks covering [0, n), concurrently, and waits for all of them. Chunk
// boundaries depend only on n and the worker count. fn must confine its
// writes to chunk-owned data (plus p.res[ci]).
func (p *workPool) run(n int, fn func(ci, lo, hi int)) {
	w := p.workers
	q := (n + w - 1) / w
	var wg sync.WaitGroup
	for ci := 1; ci < w; ci++ {
		lo := ci * q
		if lo >= n {
			break
		}
		hi := lo + q
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(ci, lo, hi int) {
			defer wg.Done()
			fn(ci, lo, hi)
		}(ci, lo, hi)
	}
	if q > n {
		q = n
	}
	fn(0, 0, q)
	wg.Wait()
}

// chunkSpan returns chunk ci's range for a region of n columns (the same
// split run uses); hi <= lo means the chunk is empty.
func (p *workPool) chunkSpan(ci, n int) (lo, hi int) {
	q := (n + p.workers - 1) / p.workers
	lo = ci * q
	hi = lo + q
	if hi > n {
		hi = n
	}
	return lo, hi
}
