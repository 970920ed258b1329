// Package trace handles time-stamped request traces: discretization into
// per-slice arrival counts (paper Example 5.1), extraction of service-
// requester Markov models from traces (the SR extractor of Section V,
// Fig. 7), and synthetic workload generation.
//
// The paper characterized its case studies on measured traces (Auspex file
// system traces for the disk, an Internet Traffic Archive trace for the web
// server, and CPU activity traces from a monitoring package). Those
// artifacts are not redistributable here, so this package provides
// generators producing synthetic traces with the same qualitative structure
// (bursty on/off behaviour, heavy-tailed idle periods, diurnal load,
// interactive-vs-batch CPU activity). The extractor consumes either kind
// identically, which is all the reproduction requires: the paper's pipeline
// only ever sees the trace through the extracted Markov model and through
// trace-driven simulation.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Trace is a sequence of request arrival timestamps, in arbitrary time
// units, measured from time zero.
type Trace struct {
	// Times are the arrival instants, ascending.
	Times []float64
}

// Validate checks ordering and non-negativity.
func (t *Trace) Validate() error {
	prev := 0.0
	for i, v := range t.Times {
		if v < 0 {
			return fmt.Errorf("trace: negative timestamp %g at index %d", v, i)
		}
		if v < prev {
			return fmt.Errorf("trace: timestamps not sorted at index %d (%g after %g)", i, v, prev)
		}
		prev = v
	}
	return nil
}

// Discretize buckets arrivals into time slices of width dt, as in paper
// Example 5.1: slot i counts the requests with i·dt ≤ time < (i+1)·dt. The
// returned slice spans slot 0 through the slot of the last arrival.
func (t *Trace) Discretize(dt float64) ([]int, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("trace: time resolution %g must be positive", dt)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if len(t.Times) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	last := int(t.Times[len(t.Times)-1] / dt)
	counts := make([]int, last+1)
	for _, v := range t.Times {
		counts[int(v/dt)]++
	}
	return counts, nil
}

// Binary clips per-slice counts to {0, 1}, the binarized stream the paper's
// extractor works on.
func Binary(counts []int) []int {
	out := make([]int, len(counts))
	for i, c := range counts {
		if c > 0 {
			out[i] = 1
		}
	}
	return out
}

// FromCounts converts a per-slice count stream back into a time-stamped
// trace with arrivals placed at slice starts (k arrivals in slice i become
// k timestamps at i·dt). The inverse of Discretize up to within-slice
// placement.
func FromCounts(counts []int, dt float64) *Trace {
	var times []float64
	for i, c := range counts {
		for j := 0; j < c; j++ {
			times = append(times, float64(i)*dt)
		}
	}
	return &Trace{Times: times}
}

// Write emits one timestamp per line.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, v := range t.Times {
		if _, err := fmt.Fprintf(bw, "%g\n", v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a one-timestamp-per-line trace. Blank lines and lines
// starting with '#' are ignored.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var times []float64
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		times = append(times, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	tr := &Trace{Times: times}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Stats summarizes a count stream.
type Stats struct {
	Slices     int
	Requests   int
	BusySlices int
	// MeanRate is requests per slice.
	MeanRate float64
	// BusyFraction is the fraction of slices with at least one request.
	BusyFraction float64
	// MeanBusyRun and MeanIdleRun are the average lengths of maximal
	// busy/idle runs, in slices (0 when no such run exists).
	MeanBusyRun, MeanIdleRun float64
}

// CountStats computes summary statistics of a per-slice count stream.
func CountStats(counts []int) Stats {
	st := Stats{Slices: len(counts)}
	busyRuns, idleRuns := 0, 0
	busyLen, idleLen := 0, 0
	prev := -1
	for _, c := range counts {
		st.Requests += c
		busy := 0
		if c > 0 {
			busy = 1
			st.BusySlices++
		}
		if busy != prev {
			if busy == 1 {
				busyRuns++
			} else {
				idleRuns++
			}
		}
		if busy == 1 {
			busyLen++
		} else {
			idleLen++
		}
		prev = busy
	}
	if st.Slices > 0 {
		st.MeanRate = float64(st.Requests) / float64(st.Slices)
		st.BusyFraction = float64(st.BusySlices) / float64(st.Slices)
	}
	if busyRuns > 0 {
		st.MeanBusyRun = float64(busyLen) / float64(busyRuns)
	}
	if idleRuns > 0 {
		st.MeanIdleRun = float64(idleLen) / float64(idleRuns)
	}
	return st
}

// Autocorrelation returns the lag-k autocorrelation of the binarized
// stream, a quick burstiness diagnostic used when judging model fit.
func Autocorrelation(counts []int, lag int) float64 {
	if lag <= 0 || lag >= len(counts) {
		return math.NaN()
	}
	b := Binary(counts)
	n := len(b)
	mean := 0.0
	for _, v := range b {
		mean += float64(v)
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		d := float64(b[i]) - mean
		den += d * d
		if i+lag < n {
			num += d * (float64(b[i+lag]) - mean)
		}
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}
