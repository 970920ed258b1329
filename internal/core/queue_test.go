package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// TestQueueMatrixExample33 checks the queue transition matrices of paper
// Example 3.3 (capacity 1, service rate 0.8 when the SP is on and the on
// command is issued, 0 otherwise).
func TestQueueMatrixExample33(t *testing.T) {
	cases := []struct {
		name string
		b    float64
		r    int
		want [][]float64
	}{
		// SP active (b=0.8), no arrivals: enqueued request drains w.p. 0.8.
		{"active-noarrival", 0.8, 0, [][]float64{{1, 0}, {0.8, 0.2}}},
		// SP active, one arrival: incoming request serviced right away
		// w.p. 0.8; if queue already full it stays full (loss).
		{"active-arrival", 0.8, 1, [][]float64{{0.8, 0.2}, {0, 1}}},
		// SP off, no arrivals: queue unchanged (identity).
		{"off-noarrival", 0, 0, [][]float64{{1, 0}, {0, 1}}},
		// SP off, one arrival: empty queue fills w.p. 1; full queue stays
		// full and the request is lost.
		{"off-arrival", 0, 1, [][]float64{{0, 1}, {0, 1}}},
	}
	for _, c := range cases {
		got := QueueMatrix(1, c.b, c.r)
		want := mat.FromRows(c.want)
		if got.MaxAbsDiff(want) > 1e-15 {
			t.Errorf("%s: QueueMatrix =\n%vwant\n%v", c.name, got, want)
		}
	}
}

func TestQueueRowCornerCases(t *testing.T) {
	// Full queue, arrivals: stays full with probability 1 (paper corner
	// case), independent of service rate.
	row := QueueRow(2, 2, 0.9, 1)
	if row[2] != 1 {
		t.Errorf("full+arrival row = %v, want all mass on 2", row)
	}
	// Full queue, no arrivals: drains w.p. b.
	row = QueueRow(2, 2, 0.9, 0)
	if math.Abs(row[1]-0.9) > 1e-15 || math.Abs(row[2]-0.1) > 1e-15 {
		t.Errorf("full+noarrival row = %v", row)
	}
	// Overflowing arrivals from empty queue.
	row = QueueRow(2, 0, 0.5, 5)
	if row[2] != 1 {
		t.Errorf("overflow row = %v, want all mass on 2", row)
	}
	// Arrivals exactly filling the queue with a service completion.
	row = QueueRow(3, 1, 0.25, 2)
	if math.Abs(row[2]-0.25) > 1e-15 || math.Abs(row[3]-0.75) > 1e-15 {
		t.Errorf("fill row = %v", row)
	}
	// Deterministic service rates collapse to single outcomes.
	row = QueueRow(3, 2, 1, 0)
	if row[1] != 1 {
		t.Errorf("b=1 drain row = %v", row)
	}
	row = QueueRow(3, 2, 0, 0)
	if row[2] != 1 {
		t.Errorf("b=0 hold row = %v", row)
	}
	// Arrival counts near MaxInt (a posted model may carry any) still fill
	// the queue: q+r must not wrap around.
	row = QueueRow(2, 1, 0.5, math.MaxInt)
	if row[2] != 1 {
		t.Errorf("huge-arrival row = %v, want all mass on 2", row)
	}
	if got := LostRequests(2, 1, 0.5, math.MaxInt); got < 1e18 {
		t.Errorf("LostRequests with huge arrivals = %g", got)
	}
}

func TestQueueRowPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative capacity": func() { QueueRow(-1, 0, 0.5, 0) },
		"state too large":   func() { QueueRow(2, 3, 0.5, 0) },
		"negative state":    func() { QueueRow(2, -1, 0.5, 0) },
		"bad rate":          func() { QueueRow(2, 0, 1.5, 0) },
		"negative arrivals": func() { QueueRow(2, 0, 0.5, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: every queue row is a probability distribution, and mass only
// moves by at most max(1, r) positions.
func TestQueueRowStochasticProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := rng.Intn(8)
		q := rng.Intn(capacity + 1)
		b := rng.Float64()
		r := rng.Intn(4)
		row := QueueRow(capacity, q, b, r)
		if !row.IsDistribution(1e-12) {
			return false
		}
		// Support check: queue can shrink by at most one and grow by at
		// most r (clipped at capacity).
		for qn, p := range row {
			if p == 0 {
				continue
			}
			if qn < q-1 && r == 0 {
				return false
			}
			if qn > q+r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLostRequests(t *testing.T) {
	// Empty queue, capacity 2, 5 arrivals, no service: 3 lost.
	if got := LostRequests(2, 0, 0, 5); got != 3 {
		t.Errorf("LostRequests = %g, want 3", got)
	}
	// With certain service one more fits.
	if got := LostRequests(2, 0, 1, 5); got != 2 {
		t.Errorf("LostRequests(b=1) = %g, want 2", got)
	}
	// Probability-weighted.
	if got := LostRequests(2, 2, 0.5, 1); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("LostRequests weighted = %g, want 0.5", got)
	}
	// No arrivals, no loss.
	if got := LostRequests(2, 2, 0, 0); got != 0 {
		t.Errorf("LostRequests(no arrivals) = %g, want 0", got)
	}
}
