package server

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lp"
)

// TestCachePersistenceRoundTrip: a solved query's basis survives
// SaveCache/LoadCache into a fresh server, where the same query family
// warm-starts instead of solving cold — and an exact repeat of the original
// query is NOT served as a stale hit (results are never persisted).
func TestCachePersistenceRoundTrip(t *testing.T) {
	s1, base1 := newTestServer(t)
	req := map[string]any{
		"model":     "disk",
		"objective": "power",
		"bounds":    []map[string]any{{"metric": "penalty", "rel": "<=", "value": 1.0}},
	}
	var resp OptimizeResponse
	if st := call(t, http.MethodPost, base1+"/v1/optimize", req, &resp); st != http.StatusOK {
		t.Fatalf("optimize status %d", st)
	}
	if resp.Cache != "cold" {
		t.Fatalf("first solve cache = %q, want cold", resp.Cache)
	}

	var buf bytes.Buffer
	n, err := s1.SaveCache(&buf)
	if err != nil {
		t.Fatalf("SaveCache: %v", err)
	}
	if n < 1 {
		t.Fatalf("SaveCache wrote %d entries, want ≥ 1", n)
	}

	s2, base2 := newTestServer(t)
	if got, err := s2.LoadCache(bytes.NewReader(buf.Bytes())); err != nil || got != n {
		t.Fatalf("LoadCache: restored %d, err %v; want %d", got, err, n)
	}

	// Exact repeat: must NOT be an exact hit (no results persisted), but
	// must warm-start from the restored basis.
	var again OptimizeResponse
	if st := call(t, http.MethodPost, base2+"/v1/optimize", req, &again); st != http.StatusOK {
		t.Fatalf("optimize status %d", st)
	}
	if again.Cache != "warm" || !again.WarmStarted {
		t.Errorf("restored-cache solve cache = %q (warm_started %v), want warm", again.Cache, again.WarmStarted)
	}
	if again.Objective != resp.Objective {
		t.Errorf("objective across restart: %g vs %g", again.Objective, resp.Objective)
	}
	if c := counter(t, base2, "warm_solves"); c != 1 {
		t.Errorf("warm_solves = %d, want 1", c)
	}
	if c := counter(t, base2, "exact_hits"); c != 0 {
		t.Errorf("exact_hits = %d, want 0 (results must not survive restarts)", c)
	}
}

// TestCacheFileVersionGuard: a version-mismatched document refuses to load
// and leaves the cache empty; corrupt bases are skipped individually.
func TestCacheFileVersionGuard(t *testing.T) {
	s, _ := newTestServer(t)
	if _, err := s.LoadCache(strings.NewReader(`{"version": 99, "entries": []}`)); err == nil {
		t.Errorf("version 99 accepted")
	}
	if _, err := s.LoadCache(strings.NewReader(`not json`)); err == nil {
		t.Errorf("garbage accepted")
	}
	// Entries with undecodable bases are dropped, not fatal.
	n, err := s.LoadCache(strings.NewReader(
		`{"version": 2, "entries": [{"key": "k", "family": "f", "basis": "AAAA"}]}`))
	if err != nil || n != 0 {
		t.Errorf("corrupt basis: restored %d, err %v; want 0, nil", n, err)
	}
	if s.cache.len() != 0 {
		t.Errorf("cache has %d entries after rejected loads, want 0", s.cache.len())
	}
}

// TestCacheFileV1Refused: a version 1 document — written when family keys
// still fingerprinted the solver strategy fields — is refused whole, with
// the version in the error, even when its bases decode. Loading it would
// fill the cache with entries no query can ever match.
func TestCacheFileV1Refused(t *testing.T) {
	s1, base1 := newTestServer(t)
	req := map[string]any{
		"model":     "disk",
		"objective": "power",
		"bounds":    []map[string]any{{"metric": "penalty", "rel": "<=", "value": 1.0}},
	}
	if st := call(t, http.MethodPost, base1+"/v1/optimize", req, nil); st != http.StatusOK {
		t.Fatalf("optimize status %d", st)
	}
	var buf bytes.Buffer
	if n, err := s1.SaveCache(&buf); err != nil || n < 1 {
		t.Fatalf("SaveCache: n=%d err=%v", n, err)
	}
	v1 := strings.Replace(buf.String(), `"version":2`, `"version":1`, 1)
	if v1 == buf.String() {
		t.Fatalf("saved document carries no version 2 marker: %s", buf.String())
	}

	s2, _ := newTestServer(t)
	n, err := s2.LoadCache(strings.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("v1 document: restored %d, err %v; want a version error", n, err)
	}
	if s2.cache.len() != 0 {
		t.Errorf("cache has %d entries after a refused v1 load, want 0", s2.cache.len())
	}
}

// TestCacheFileRoundTripOnDisk: the file-level helpers (atomic write,
// missing-file tolerance).
func TestCacheFileRoundTripOnDisk(t *testing.T) {
	s1, base1 := newTestServer(t)
	req := map[string]any{
		"model":     "webserver",
		"horizon":   1e5,
		"objective": "power",
		"bounds":    []map[string]any{{"metric": "service", "rel": ">=", "value": 0.1}},
	}
	if st := call(t, http.MethodPost, base1+"/v1/optimize", req, nil); st != http.StatusOK {
		t.Fatalf("optimize status %d", st)
	}
	path := t.TempDir() + "/dpmserved.cache"
	if n, err := s1.SaveCacheFile(path); err != nil || n < 1 {
		t.Fatalf("SaveCacheFile: n=%d err=%v", n, err)
	}

	s2, _ := newTestServer(t)
	if n, err := s2.LoadCacheFile(path); err != nil || n < 1 {
		t.Fatalf("LoadCacheFile: n=%d err=%v", n, err)
	}
	if n, err := s2.LoadCacheFile(path + ".nosuch"); err != nil || n != 0 {
		t.Errorf("missing file: n=%d err=%v; want 0, nil", n, err)
	}
}

// warmGapTol is the relative warm-versus-cold objective tolerance the warm
// path is held to elsewhere (lp's TestWarmDualSimplexAtScale). The simplex
// stops on an absolute reduced-cost tolerance, so a warm start from a
// foreign basis can end at a different vertex that passes the same test.
// Two seeds are such warm starts: mutated-basis-warm-gap, which once
// stopped 1.05e-8 relative above the cold optimum at horizon 1e5, and
// drifted-reduced-costs, whose warm phase 2 ended 5.1e-5 above it on
// maintained reduced costs that had drifted from the basis's own (the warm
// path now rechecks them and falls back to a cold solve).
const warmGapTol = 1e-6

// FuzzLoadCache feeds arbitrary bytes to LoadCache, the -cache-file restore
// path. The contract: no panic; a rejected document is an error and restores
// nothing; an accepted one survives SaveCache → LoadCache into a fresh
// server with the same restored count and re-saves to the same bytes; and
// every restored basis, handed to a disk-preset optimize as its warm start,
// either carries over or falls back to a cold solve, ending within
// warmGapTol of the cold optimum.
func FuzzLoadCache(f *testing.F) {
	ref, err := New(Config{CacheSize: 16})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	disk, ok := ref.reg.resolve("disk")
	if !ok {
		f.Fatal("no disk preset")
	}
	opts, err := ref.buildOptions(disk, &OptimizeRequest{
		Model: "disk", Objective: "power",
		Bounds: []BoundSpec{{Metric: "penalty", Rel: "<=", Value: 1}},
	})
	if err != nil {
		f.Fatalf("buildOptions: %v", err)
	}
	opts.SkipEvaluation = true
	opts.LPMaxPivots = 10000
	cold, err := core.OptimizeCtx(context.Background(), disk.Model, opts)
	if err != nil {
		f.Fatalf("cold disk optimize: %v", err)
	}

	// LoadCache and SaveCache touch only the cache, so each input gets a
	// fresh one rather than a whole server with every preset compiled.
	cacheOnly := func() *Server { return &Server{cache: newSolveCache(16)} }

	f.Fuzz(func(t *testing.T, data []byte) {
		s := cacheOnly()
		n, err := s.LoadCache(bytes.NewReader(data))
		if err != nil {
			if n != 0 || s.cache.len() != 0 {
				t.Fatalf("rejected document (%v) restored %d entries, cache holds %d", err, n, s.cache.len())
			}
			return
		}
		if n < s.cache.len() {
			t.Fatalf("restored %d entries but the cache holds %d", n, s.cache.len())
		}

		var saved bytes.Buffer
		m, err := s.SaveCache(&saved)
		if err != nil {
			t.Fatalf("SaveCache after an accepted load: %v", err)
		}
		if m != s.cache.len() {
			t.Fatalf("saved %d entries from a cache of %d", m, s.cache.len())
		}
		s2 := cacheOnly()
		if m2, err := s2.LoadCache(bytes.NewReader(saved.Bytes())); err != nil || m2 != m {
			t.Fatalf("reloading the saved cache: restored %d, err %v; want %d", m2, err, m)
		}
		var again bytes.Buffer
		if _, err := s2.SaveCache(&again); err != nil {
			t.Fatalf("second SaveCache: %v", err)
		}
		if !bytes.Equal(saved.Bytes(), again.Bytes()) {
			t.Fatalf("save → load → save changed the document:\n%s\n%s", saved.Bytes(), again.Bytes())
		}

		// Warm-start every restored basis (at most a few per input) on the
		// disk preset.
		entries := s.cache.export()
		for i := 0; i < len(entries) && i < 3; i++ {
			basis := new(lp.Basis)
			if err := basis.UnmarshalBinary(entries[i].Basis); err != nil {
				t.Fatalf("exported basis does not decode: %v", err)
			}
			o := opts
			o.WarmBasis = basis
			res, err := core.OptimizeCtx(context.Background(), disk.Model, o)
			if err != nil {
				t.Fatalf("disk optimize warm-started from restored basis %v: %v", basis, err)
			}
			if d := math.Abs(res.Objective - cold.Objective); d > warmGapTol*(1+math.Abs(cold.Objective)) {
				t.Fatalf("warm-started objective %.12g, cold %.12g", res.Objective, cold.Objective)
			}
		}
	})
}
