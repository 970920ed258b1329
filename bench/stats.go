package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantiles returns an exact quantile function over the raw samples (sorted
// once): q(p) is the nearest-rank p-quantile. Log-bucketed histograms (2^¼
// wide buckets, ~19%) are too coarse for a regression bound, so nothing here
// buckets.
func quantiles(samples []time.Duration) func(p float64) time.Duration {
	s := slices.Clone(samples)
	slices.Sort(s)
	return func(p float64) time.Duration {
		if len(s) == 0 {
			return 0
		}
		i := int(math.Ceil(p*float64(len(s)))) - 1
		return s[max(0, min(i, len(s)-1))]
	}
}

func median(samples []time.Duration) time.Duration { return quantiles(samples)(0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// opCount fixes a workload's amount of work: its nominal rate (ops/s on the
// reference machine) times the requested seconds, at least minOps.
func opCount(seconds, rate float64, minOps int) int {
	return max(minOps, int(math.Round(seconds*rate)))
}

// traceOps is how many of a run's n inputs the traced run measures: the
// first half, since tracing an op costs about as much again as running it.
func traceOps(n, minOps int) int { return max(minOps, n/2) }

// measureCap bounds the timed phase of a run whose ops got slower than their
// nominal rate (a loaded machine, or a regression), so that a run always
// ends in a bounded time. Nominal rates are set so that the fixed op count
// takes about three quarters of -seconds on an unloaded machine.
func measureCap(seconds float64) time.Duration {
	return min(time.Duration(seconds*1.6*float64(time.Second)), 100*time.Second)
}

// usage is what ops cost a process: CPU time (user plus system, all
// threads) and bytes allocated on the Go heap. CPU time leaves out time the
// machine ran other work, so it holds steadier than wall time on a shared
// host; allocation is nearly deterministic.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func (u usage) sub(v usage) usage { return usage{u.cpu - v.cpu, u.alloc - v.alloc} }
func (u usage) add(v usage) usage { return usage{u.cpu + v.cpu, u.alloc + v.alloc} }

// usageSelf reads this process's usage.
func usageSelf() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), m.TotalAlloc}
}

// clockTicks is the unit of the CPU times in /proc/<pid>/stat (USER_HZ, 100
// on every Linux architecture Go supports).
const clockTicks = 100

// cpuOf returns the CPU time, user plus system, of process pid.
func cpuOf(pid string) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// utime and stime are the 14th and 15th fields; counting resumes at 3
	// after the parenthesized command name, which may contain spaces.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data)[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc/%s/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// timeSetup runs set-up reps times and returns each duration. The workload
// keeps whatever the last repetition built.
func timeSetup(reps int, setup func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

// relClose reports |a−b| ≤ tol·max(1, |a|, |b|).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
