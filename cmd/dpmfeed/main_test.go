package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestFeedDriftRefresh streams a short two-regime workload at an
// in-process daemon (the smoke test's feed): the first regime installs a
// policy, the flip triggers at least one drift refresh, and run returns nil
// only because one happened (expectDrift).
func TestFeedDriftRefresh(t *testing.T) {
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	bounds, err := boundSpecs("penalty<=1.8")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run(&out, feedConfig{
		url: hs.URL, model: "disk",
		slices: 1600, flip: 800, chunk: 50,
		p01: 0.03, p10: 0.25, p01b: 0.20, p10b: 0.10, seed: 1,
		expectDrift: true, quiet: true,
		req: server.ObserveRequest{
			OptimizeRequest: server.OptimizeRequest{Horizon: 1e4, Objective: "power", Bounds: bounds},
			Memory:          1, Decay: 0.99, DriftThreshold: 0.05,
			MinSlices: 200, MinEvidence: 8, CheckEvery: 25,
		},
	})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"initial refresh (rebuilt", "drift refresh (patched, warm)", "drift-triggered"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "ingested (") {
		t.Errorf("-q output carries ingest lines:\n%s", got)
	}
	if st := s.Stats(); st["online_drift_refreshes"] == 0 || st["observe_requests"] != 32 {
		t.Errorf("server counters: %d drift refreshes, %d observe requests", st["online_drift_refreshes"], st["observe_requests"])
	}
}

// TestBoundSpecs: the -bounds flag becomes the wire's constraint rows.
func TestBoundSpecs(t *testing.T) {
	got, err := boundSpecs("penalty<=1.8,loss>=0.1")
	if err != nil {
		t.Fatal(err)
	}
	want := []server.BoundSpec{{Metric: "penalty", Rel: "<=", Value: 1.8}, {Metric: "loss", Rel: ">=", Value: 0.1}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("boundSpecs = %+v, want %+v", got, want)
	}
	if _, err := boundSpecs("penalty~1"); err == nil {
		t.Error("malformed bound accepted")
	}
}
