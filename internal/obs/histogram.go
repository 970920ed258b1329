package obs

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a lock-cheap geometrically bucketed histogram: bucket i
// covers (min·g^(i-1), min·g^i] for growth factor g, bucket 0 covers
// (-inf, min] and the last bucket is unbounded. Recording is a couple of
// atomic adds (no locks, no allocation), so it sits on serving hot paths:
// request latency per endpoint, pivots per solve, per-stage solve times.
//
// Quantile estimates return the upper bound of the bucket containing the
// requested rank, so for observations above min the estimate overshoots
// the true sample quantile by at most the growth factor g — the knob that
// trades bucket count against quantile resolution.
//
// Snapshots are not atomic across buckets: a concurrent reader can see a
// count that a racing writer has bucketed but not yet summed. For
// monitoring quantiles over thousands of observations that skew is noise.
type Histogram struct {
	min    float64
	invLnG float64   // 1/ln(growth), for the index fast path
	bounds []float64 // finite upper bounds; len = buckets-1

	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram with the given geometry: min is bucket
// 0's upper bound, growth the per-bucket ratio (> 1), buckets the total
// bucket count including the unbounded overflow bucket.
func NewHistogram(min, growth float64, buckets int) *Histogram {
	if !(min > 0) || !(growth > 1) || buckets < 2 {
		panic(fmt.Sprintf("obs: invalid histogram geometry min=%g growth=%g buckets=%d", min, growth, buckets))
	}
	h := &Histogram{
		min:    min,
		invLnG: 1 / math.Log(growth),
		bounds: make([]float64, buckets-1),
		counts: make([]atomic.Int64, buckets),
	}
	b := min
	for i := range h.bounds {
		h.bounds[i] = b
		b *= growth
	}
	return h
}

// NewLatencyHistogram covers 1µs to ~50min of nanoseconds at growth
// 2^(1/4) (≈ 19% relative quantile error): the default for request
// latencies and per-stage solve times recorded in nanoseconds.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(1e3, math.Pow(2, 0.25), 128)
}

// NewCountHistogram covers 1 to ~2^31 at growth √2 (≈ 41% relative
// quantile error): the default for work counts such as pivots per solve.
func NewCountHistogram() *Histogram {
	return NewHistogram(1, math.Sqrt2, 64)
}

// bucket maps an observation to its bucket index. The log fast path can
// land one off under float rounding, so the result is nudged against the
// exact bounds.
func (h *Histogram) bucket(v float64) int {
	if v <= h.min || math.IsNaN(v) {
		return 0
	}
	i := int(math.Log(v/h.min)*h.invLnG) + 1
	if i < 1 {
		i = 1
	}
	if i > len(h.bounds) {
		i = len(h.bounds)
	}
	for i > 0 && v <= h.bounds[i-1] {
		i--
	}
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(float64(d.Nanoseconds())) }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram: per-bucket
// (non-cumulative) counts plus the finite upper bounds, count and sum.
type HistogramSnapshot struct {
	Bounds []float64 // finite upper bounds; len = len(Counts)-1
	Counts []int64   // per-bucket counts; last bucket is unbounded
	Count  int64
	Sum    float64
}

// Snapshot copies the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile from the snapshot (see Histogram for
// the error bound): the upper bound of the bucket holding the
// ⌈q·count⌉-th observation (the last finite bound scaled once more for the
// overflow bucket). q outside [0,1] is clamped, and an empty snapshot
// returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := int64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			// Overflow bucket: one growth step past the last finite bound
			// is the least-wrong point estimate available.
			last := s.Bounds[len(s.Bounds)-1]
			return last * (s.Bounds[1] / s.Bounds[0])
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}
