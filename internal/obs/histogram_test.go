package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries: observations land exactly at and around
// the geometric bounds; bounds themselves are inclusive upper limits.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(10, 2, 5) // bounds 10, 20, 40, 80, then +Inf
	want := []float64{10, 20, 40, 80}
	for i, b := range h.bounds {
		if b != want[i] {
			t.Fatalf("bound[%d] = %g, want %g", i, b, want[i])
		}
	}
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {5, 0}, {10, 0}, // (-inf, 10]
		{10.0001, 1}, {20, 1}, // (10, 20]
		{20.0001, 2}, {40, 2},
		{80, 3},
		{80.0001, 4}, {1e12, 4}, // overflow bucket
	}
	for _, c := range cases {
		if got := h.bucket(c.v); got != c.bucket {
			t.Errorf("bucket(%g) = %d, want %d", c.v, got, c.bucket)
		}
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	if h.count.Load() != int64(len(cases)) {
		t.Errorf("count = %d, want %d", h.count.Load(), len(cases))
	}
	perBucket := []int64{3, 2, 2, 1, 2}
	for i, want := range perBucket {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d holds %d, want %d", i, got, want)
		}
	}
}

// TestHistogramQuantileErrorBound: for observations above the first
// bucket, the quantile estimate is within a factor of growth of the true
// sample quantile, from above.
func TestHistogramQuantileErrorBound(t *testing.T) {
	growth := math.Pow(2, 0.25)
	h := NewLatencyHistogram()
	rng := rand.New(rand.NewSource(7))
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over (2µs, ~1s) in ns: exercises many buckets.
		v := 2e3 * math.Exp(rng.Float64()*13)
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Float64s(samples)
	s := h.Snapshot()
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		rank := int(math.Ceil(q * float64(len(samples))))
		if rank < 1 {
			rank = 1
		}
		truth := samples[rank-1]
		est := s.Quantile(q)
		if est < truth {
			t.Errorf("q=%g: estimate %g below true quantile %g", q, est, truth)
		}
		if est > truth*growth*1.0000001 {
			t.Errorf("q=%g: estimate %g exceeds true quantile %g by more than growth %g", q, est, truth, growth)
		}
	}
	if s.Quantile(0) <= 0 || s.Quantile(1) < s.Quantile(0.5) {
		t.Errorf("degenerate quantiles: q0=%g q50=%g q100=%g", s.Quantile(0), s.Quantile(0.5), s.Quantile(1))
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines; -race
// is the assertion, plus exact count/sum conservation.
func TestHistogramConcurrent(t *testing.T) {
	h := NewLatencyHistogram()
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(float64(1 + rng.Intn(1e6)))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.count.Load() != workers*per {
		t.Errorf("count = %d, want %d", h.count.Load(), workers*per)
	}
	var bucketSum int64
	for i := range h.counts {
		bucketSum += h.counts[i].Load()
	}
	if bucketSum != workers*per {
		t.Errorf("bucket counts sum to %d, want %d", bucketSum, workers*per)
	}
	if h.Sum() <= 0 {
		t.Errorf("sum %g not positive", h.Sum())
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewLatencyHistogram()
	h.ObserveDuration(5 * time.Millisecond)
	if h.count.Load() != 1 {
		t.Fatalf("count = %d", h.count.Load())
	}
	if q := h.Snapshot().Quantile(0.5); q < 5e6 || q > 5e6*math.Pow(2, 0.25) {
		t.Errorf("5ms recorded, median estimate %gns", q)
	}
}
