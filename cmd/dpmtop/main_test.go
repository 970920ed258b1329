package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// TestRunAgainstServer renders two refreshes of an in-process daemon that
// has served one cold optimize: the counters line, the idle table, the
// solve journal with the solve's pivots, and the pivot rate of the second
// refresh.
func TestRunAgainstServer(t *testing.T) {
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	body := `{"model":"disk","objective":"power","bounds":[{"metric":"penalty","rel":"<=","value":1.0}]}`
	resp, err := http.Post(hs.URL+"/v1/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status %d", resp.StatusCode)
	}

	var out bytes.Buffer
	if err := run(context.Background(), &out, hs.URL, time.Millisecond, 2, true); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"served: optimize 1  sweep 0  observe 0  hits 0  warm 0  cold 1",
		"no solves in flight",
		"recent solve events:",
		" pivots/s",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if !regexp.MustCompile(`solve_finish +[0-9a-f]{64} +pivots [1-9]`).MatchString(got) {
		t.Errorf("journal lost the finished solve's model or pivots:\n%s", got)
	}
	if strings.Contains(got, "\033[") {
		t.Errorf("-plain output carries ANSI escapes")
	}
}

// TestRenderLiveRow renders one in-flight solve row with its stage split.
func TestRenderLiveRow(t *testing.T) {
	solves := &server.SolvesResponse{
		Events: []obs.Event{{Time: time.Now(), Kind: "solve_start", Attrs: map[string]any{"model": "disk", "pivots": 0.0}}},
		Solves: []server.SolveInfo{{
			ID: 3, Model: "0123456789abcdef0123", Endpoint: "sweep", Event: "progress", Phase: "phase2",
			Pivots: 120, Refactorizations: 2, Objective: 1.5, EtaLen: 7, ElapsedMS: 2500,
			Stages: map[string]float64{"price": 3, "ftran": 1},
		}},
	}
	stats := &server.StatsResponse{Counters: map[string]int64{"sweep_queries": 1}, Gauges: map[string]int64{"solves_inflight": 1}}
	var out bytes.Buffer
	render(&out, "http://x", solves, stats, nil, time.Time{})
	got := out.String()
	for _, want := range []string{
		"inflight 1",
		"sweep     0123456789abcdef  phase2   progress       120       2",
		"2.5s\n",
		"stages: ftran 1ms  price 3ms",
		"solve_start       disk",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}
