package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/devices"
)

// solvesBody mirrors the GET /v1/solves payload.
type solvesBody struct {
	Solves []SolveInfo `json:"solves"`
	Events []struct {
		Kind  string         `json:"kind"`
		Trace string         `json:"trace"`
		Attrs map[string]any `json:"attrs"`
	} `json:"events"`
}

// TestSolvesLiveTableAndCancel is the flight recorder end to end: during a
// deliberately long multi-point sweep, GET /v1/solves must list the
// in-flight solve with nonzero, monotonically advancing pivots, DELETE
// /v1/solves/{id} must cancel it through the ordinary context machinery
// (the waiting client sees the Cancelled 504), and the table must be empty
// once the flight unwinds.
func TestSolvesLiveTableAndCancel(t *testing.T) {
	s, err := New(Config{CacheSize: 128, DefaultTimeout: time.Minute, SolveMonitorEvery: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	base := hs.URL

	sys, err := devices.MultiDiskSystem(2, 4, core.TwoStateSR("w", 0.05, 0.15))
	if err != nil {
		t.Fatalf("MultiDiskSystem: %v", err)
	}
	e, _, err := s.reg.register(sys, "flight recorder test model")
	if err != nil {
		t.Fatalf("register: %v", err)
	}

	// A long serial sweep: hundreds of points on one worker keeps one
	// flight-recorder row alive for the whole request while pivots pile up.
	values := make([]float64, 400)
	for i := range values {
		values[i] = 0.1 + 1.4*float64(i)/float64(len(values))
	}
	req := SweepRequest{
		OptimizeRequest: OptimizeRequest{Model: e.ID, Objective: "power"},
		Sweep:           SweepSpec{Metric: "penalty", Rel: "<=", Values: values, Workers: 1},
	}
	type result struct {
		status int
		errMsg string
	}
	done := make(chan result, 1)
	go func() {
		var resp errorResponse
		st := call(t, http.MethodPost, base+"/v1/sweep", req, &resp)
		done <- result{status: st, errMsg: resp.Error}
	}()

	// Poll until the solve shows up with pivots, then until it advances.
	deadline := time.Now().Add(30 * time.Second)
	var seen SolveInfo
	for {
		if time.Now().After(deadline) {
			t.Fatal("solve never appeared in /v1/solves with nonzero pivots")
		}
		var sb solvesBody
		if st := call(t, http.MethodGet, base+"/v1/solves", nil, &sb); st != http.StatusOK {
			t.Fatalf("GET /v1/solves: status %d", st)
		}
		if len(sb.Solves) > 0 && sb.Solves[0].Pivots > 0 {
			seen = sb.Solves[0]
			break
		}
		time.Sleep(time.Millisecond)
	}
	if seen.Endpoint != "sweep" || seen.Model != e.ID || seen.ID <= 0 {
		t.Fatalf("in-flight row %+v, want a sweep on %s", seen, e.ID)
	}
	if seen.Trace == "" {
		t.Error("in-flight row has no trace id")
	}
	for {
		if time.Now().After(deadline) {
			t.Fatalf("pivots never advanced past %d", seen.Pivots)
		}
		var sb solvesBody
		call(t, http.MethodGet, base+"/v1/solves", nil, &sb)
		if len(sb.Solves) == 0 {
			t.Fatal("solve vanished before the sweep finished or was cancelled")
		}
		row := sb.Solves[0]
		if row.Pivots < seen.Pivots {
			t.Fatalf("pivots went backwards: %d after %d", row.Pivots, seen.Pivots)
		}
		if row.Pivots > seen.Pivots {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// The aggregate gauge mirrors the table.
	var stats struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	call(t, http.MethodGet, base+"/v1/stats", nil, &stats)
	if stats.Gauges["solves_inflight"] != 1 || stats.Gauges["solves_inflight_sweep"] != 1 {
		t.Errorf("gauges %v, want one sweep in flight", stats.Gauges)
	}

	// Cancel it; the waiting client must see the ordinary Cancelled 504.
	var cancelResp map[string]any
	if st := call(t, http.MethodDelete, fmt.Sprintf("%s/v1/solves/%d", base, seen.ID), nil, &cancelResp); st != http.StatusOK {
		t.Fatalf("DELETE: status %d (%v)", st, cancelResp)
	}
	select {
	case r := <-done:
		if r.status != http.StatusGatewayTimeout {
			t.Fatalf("cancelled sweep returned %d (%s), want 504", r.status, r.errMsg)
		}
		if !strings.Contains(r.errMsg, "cancelled") {
			t.Errorf("error %q does not mention cancellation", r.errMsg)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not unwind after DELETE")
	}

	// Table empty, gauges back to zero, cancellation counted.
	var sb solvesBody
	call(t, http.MethodGet, base+"/v1/solves", nil, &sb)
	if len(sb.Solves) != 0 {
		t.Errorf("%d solves still listed after cancellation", len(sb.Solves))
	}
	call(t, http.MethodGet, base+"/v1/stats", nil, &stats)
	if stats.Gauges["solves_inflight"] != 0 {
		t.Errorf("solves_inflight = %d after unwind", stats.Gauges["solves_inflight"])
	}
	if n := s.stats.CancelledSolves.Load(); n == 0 {
		t.Error("cancelled_solves counter did not move")
	}
	// A second DELETE of the same id is a 404: the flight is gone.
	if st := call(t, http.MethodDelete, fmt.Sprintf("%s/v1/solves/%d", base, seen.ID), nil, nil); st != http.StatusNotFound {
		t.Errorf("re-DELETE status %d, want 404", st)
	}

	// The journal retained the flight's lifecycle, keyed by its trace.
	call(t, http.MethodGet, base+"/v1/solves", nil, &sb)
	kinds := map[string]bool{}
	traced := false
	for _, ev := range sb.Events {
		kinds[ev.Kind] = true
		if ev.Trace == seen.Trace {
			traced = true
		}
	}
	if !kinds["solve_start"] || !kinds["solve_finish"] {
		t.Errorf("journal kinds %v, want solve_start and solve_finish", kinds)
	}
	if !traced {
		t.Errorf("no journal event carries trace %s", seen.Trace)
	}
}

// TestSolvesTableAfterCompletion: a solve that runs to completion leaves no
// row behind, and the monitoring surfaces (stats gauges, dropped_spans,
// /metrics mirrors) are present even when idle.
func TestSolvesTableAfterCompletion(t *testing.T) {
	s, base := newTestServer(t)
	_ = s
	var opt OptimizeResponse
	st := call(t, http.MethodPost, base+"/v1/optimize", OptimizeRequest{
		Model:     "disk",
		Objective: "power",
		Bounds:    []BoundSpec{{Metric: "penalty", Rel: "<=", Value: 1.2}},
	}, &opt)
	if st != http.StatusOK || !opt.Feasible {
		t.Fatalf("optimize: status %d %+v", st, opt)
	}
	var sb solvesBody
	call(t, http.MethodGet, base+"/v1/solves", nil, &sb)
	if len(sb.Solves) != 0 {
		t.Errorf("%d solves listed after completion", len(sb.Solves))
	}
	if len(sb.Events) == 0 {
		t.Error("journal empty after a completed solve")
	}

	var stats struct {
		Gauges       map[string]int64 `json:"gauges"`
		DroppedSpans *int             `json:"dropped_spans"`
	}
	call(t, http.MethodGet, base+"/v1/stats", nil, &stats)
	if stats.DroppedSpans == nil {
		t.Error("/v1/stats has no dropped_spans")
	}
	if v, ok := stats.Gauges["solves_inflight"]; !ok || v != 0 {
		t.Errorf("solves_inflight gauge %d present=%v, want 0", v, ok)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	body := string(raw)
	for _, want := range []string{"dpmserved_solves_inflight 0", "dpmserved_dropped_spans_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestWorkCountersEqualFinishEvents: the pivots and refactorizations
// counters add up exactly the work the flight recorder's journaled
// solve_finish events report, one per solve attempt — so the work of
// infeasible sweep points, of warm attempts that fell back to a cold solve
// and of failed solves is counted, not only that of answers served.
func TestWorkCountersEqualFinishEvents(t *testing.T) {
	s, base := newTestServer(t)
	var sw SweepResponse
	st := call(t, http.MethodPost, base+"/v1/sweep", SweepRequest{
		OptimizeRequest: OptimizeRequest{Model: "disk", Objective: "power"},
		Sweep:           SweepSpec{Metric: "penalty", Rel: "<=", Values: []float64{0.8, 1.2, 0.3, 0.4, 1.0}, Workers: 1},
	}, &sw)
	if st != http.StatusOK || sw.Feasible != 3 {
		t.Fatalf("sweep: status %d, %d/5 feasible", st, sw.Feasible)
	}
	for _, v := range []float64{1.1, 1.15, 0.35} {
		call(t, http.MethodPost, base+"/v1/optimize", OptimizeRequest{
			Model:     "disk",
			Objective: "power",
			Bounds:    []BoundSpec{{Metric: "penalty", Rel: "<=", Value: v}},
		}, nil)
	}

	events := s.solves.journal.Last(0)
	if len(events) >= 256 {
		t.Fatalf("%d journal events: the ring may have wrapped", len(events))
	}
	var pivots, refacs, sweepPivots int
	for _, e := range events {
		if e.Kind != "solve_finish" {
			continue
		}
		p, _ := e.Attrs["pivots"].(int)
		r, _ := e.Attrs["refactorizations"].(int)
		pivots += p
		refacs += r
		if e.Attrs["endpoint"] == "sweep" {
			sweepPivots += p
		}
	}
	// The sweep response counts only the feasible points' final attempts;
	// the test needs the discarded work to exist to mean anything.
	if sweepPivots <= sw.Pivots {
		t.Fatalf("sweep finish events report %d pivots, response %d: no discarded work exercised", sweepPivots, sw.Pivots)
	}
	stats := s.Stats()
	if got := stats["pivots"]; got != int64(pivots) {
		t.Errorf("pivots counter %d, finish events %d", got, pivots)
	}
	if got := stats["refactorizations"]; got != int64(refacs) || refacs == 0 {
		t.Errorf("refactorizations counter %d, finish events %d", got, refacs)
	}
}
