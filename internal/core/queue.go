package core

import (
	"fmt"

	"repro/internal/mat"
)

// QueueRow returns the one-slice transition distribution of the bounded
// service queue (paper Eq. 3 with its corner cases), given:
//
//	capacity Q (states 0..Q),
//	current backlog q,
//	service rate b = probability a request completes this slice,
//	arrivals r = number of requests issued this slice.
//
// The law, exactly as in the paper:
//
//   - r == 0, q == 0: the queue stays empty.
//   - r == 0, q > 0:  q−1 with probability b, q with probability 1−b.
//   - r > 0, q+r > Q: the queue becomes (stays) full with probability 1 and
//     the excess arrivals are lost.
//   - r > 0, q+r ≤ Q: q+r−1 with probability b (one request — enqueued or
//     incoming — is serviced), q+r with probability 1−b.
//
// The returned vector has length Q+1 and sums to 1.
func QueueRow(capacity, q int, b float64, r int) mat.Vector {
	cols, vals, n := queueStep(capacity, q, b, r)
	row := mat.NewVector(capacity + 1)
	for k := range n {
		row[cols[k]] = vals[k]
	}
	return row
}

// queueStep returns QueueRow's nonzeros — at most two — in ascending column
// order: row[cols[k]] = vals[k] for k < n. The composition loop expands
// them directly, so a composed row costs O(its nonzeros) rather than a scan
// of all Q+1 backlogs.
func queueStep(capacity, q int, b float64, r int) (cols [2]int, vals [2]float64, n int) {
	if capacity < 0 {
		panic(fmt.Sprintf("core: negative queue capacity %d", capacity))
	}
	if q < 0 || q > capacity {
		panic(fmt.Sprintf("core: queue state %d outside [0,%d]", q, capacity))
	}
	if b < 0 || b > 1 {
		panic(fmt.Sprintf("core: service rate %g outside [0,1]", b))
	}
	if r < 0 {
		panic(fmt.Sprintf("core: negative arrival count %d", r))
	}
	add := func(col int, v float64) {
		if v != 0 {
			cols[n], vals[n] = col, v
			n++
		}
	}
	switch {
	case r == 0 && q == 0:
		add(0, 1)
	case r == 0:
		add(q-1, b)
		add(q, 1-b)
	case r > capacity-q: // q+r > capacity, without overflowing on huge r
		add(capacity, 1)
	default:
		add(q+r-1, b)
		add(q+r, 1-b)
	}
	return cols, vals, n
}

// QueueMatrix returns the full (Q+1)×(Q+1) queue transition matrix for fixed
// service rate b and arrival count r — the matrices tabulated in the paper's
// Example 3.3.
func QueueMatrix(capacity int, b float64, r int) *mat.Matrix {
	m := mat.NewMatrix(capacity+1, capacity+1)
	for q := 0; q <= capacity; q++ {
		copy(m.Row(q), QueueRow(capacity, q, b, r))
	}
	return m
}

// LostRequests returns the expected number of requests lost in one slice
// when the queue holds q of capacity Q, r requests arrive, and service
// completes with probability b. Arrivals beyond the space freed by (at most
// one) service completion are lost. This is the weighted loss metric; the
// paper's LP uses the simpler full-queue indicator (see System.LossFn).
func LostRequests(capacity, q int, b float64, r int) float64 {
	if r == 0 {
		return 0
	}
	// With probability b one slot frees this slice. The excess q+r−capacity
	// is formed as r−(capacity−q), which cannot overflow on huge r.
	excess := r - (capacity - q)
	lossServed := float64(maxInt(0, excess-1))
	lossUnserved := float64(maxInt(0, excess))
	return b*lossServed + (1-b)*lossUnserved
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
