package online_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
	"repro/internal/mat"
	"repro/internal/online"
	"repro/internal/trace"
)

func feed(t *testing.T, e *online.Estimator, counts []int) {
	t.Helper()
	for _, c := range counts {
		if err := e.Observe(c); err != nil {
			t.Fatalf("Observe(%d): %v", c, err)
		}
	}
}

// TestEstimatorMatchesExtractSR: with decay 1 the streaming estimator is an
// exact incremental form of the batch extractor — same transition matrix,
// same states, same uniform fallback for unseen histories.
func TestEstimatorMatchesExtractSR(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, memory := range []int{1, 2, 3} {
		counts := trace.OnOff(rng, 4000, 0.08, 0.3)
		batch, err := trace.ExtractSR("batch", counts, memory)
		if err != nil {
			t.Fatal(err)
		}
		e, err := online.NewEstimator(memory, 1)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, e, counts)
		if got, want := e.Slices(), len(counts)-memory; got != want {
			t.Fatalf("memory %d: %d transitions, want %d", memory, got, want)
		}
		sr, err := e.SR("stream")
		if err != nil {
			t.Fatal(err)
		}
		n := batch.N()
		if sr.N() != n {
			t.Fatalf("memory %d: %d states, want %d", memory, sr.N(), n)
		}
		for s := 0; s < n; s++ {
			if sr.States[s] != batch.States[s] || sr.Requests[s] != batch.Requests[s] {
				t.Fatalf("memory %d state %d: (%s,%d) vs (%s,%d)", memory, s,
					sr.States[s], sr.Requests[s], batch.States[s], batch.Requests[s])
			}
			for j := 0; j < n; j++ {
				if d := math.Abs(sr.P.At(s, j) - batch.P.At(s, j)); d > 1e-12 {
					t.Fatalf("memory %d P(%d,%d): stream %g batch %g", memory, s, j,
						sr.P.At(s, j), batch.P.At(s, j))
				}
			}
		}
	}
}

// TestEstimatorForgets: after a regime switch, a decayed estimator tracks
// the new parameters while the undecayed one stays pinned near the
// whole-stream average.
func TestEstimatorForgets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	regimeA := trace.OnOff(rng, 20000, 0.02, 0.3)
	regimeB := trace.OnOff(rng, 2000, 0.4, 0.05)

	decayed, _ := online.NewEstimator(1, 0.99)
	flat, _ := online.NewEstimator(1, 1)
	feed(t, decayed, regimeA)
	feed(t, flat, regimeA)
	feed(t, decayed, regimeB)
	feed(t, flat, regimeB)

	// State 0 = idle history; its busy-next probability is p01.
	if got := decayed.PBusy(0); math.Abs(got-0.4) > 0.12 {
		t.Errorf("decayed P(idle→busy) = %g, want ≈0.4 (regime B)", got)
	}
	if got := flat.PBusy(0); got > 0.1 {
		t.Errorf("undecayed P(idle→busy) = %g, should stay near the 0.02-dominated average", got)
	}

	// Drift against the regime-A extraction must be large for the decayed
	// estimator and small against a regime-B extraction.
	srA, err := trace.ExtractSR("a", regimeA, 1)
	if err != nil {
		t.Fatal(err)
	}
	srB, err := trace.ExtractSR("b", regimeB, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, dA, err := decayed.DriftAdaptive(srA, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, dB, err := decayed.DriftAdaptive(srB, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dA < 0.2 {
		t.Errorf("drift vs stale regime = %g, want large", dA)
	}
	if dB > 0.1 {
		t.Errorf("drift vs current regime = %g, want small", dB)
	}
}

// TestEstimatorValidation: bad construction parameters, negative counts and
// premature SR materialization are rejected.
func TestEstimatorValidation(t *testing.T) {
	if _, err := online.NewEstimator(0, 1); err == nil {
		t.Errorf("memory 0 accepted")
	}
	if _, err := online.NewEstimator(2, 0); err == nil {
		t.Errorf("decay 0 accepted")
	}
	if _, err := online.NewEstimator(2, 1.5); err == nil {
		t.Errorf("decay 1.5 accepted")
	}
	e, err := online.NewEstimator(2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(-1); err == nil {
		t.Errorf("negative count accepted")
	}
	if _, err := e.SR("x"); err == nil {
		t.Errorf("SR before any transition accepted")
	}
	if e.Evidence(0) != 0 {
		t.Errorf("evidence nonzero before any transition")
	}
	// Drift against a wrong-size SR errors.
	feed(t, e, []int{0, 1, 0, 1, 0})
	if _, _, err := e.DriftAdaptive(core.TwoStateSR("w", 0.1, 0.1), 0, 1, 0); err == nil {
		t.Errorf("drift against wrong-size SR accepted")
	}
}

// TestEstimatorEvidenceGating: histories with no decayed mass sit at the
// uniform fallback and must be excluded from drift by the evidence floor.
func TestEstimatorEvidenceGating(t *testing.T) {
	e, err := online.NewEstimator(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All-idle stream: only history 00 accumulates evidence.
	feed(t, e, make([]int, 64))
	if ev := e.Evidence(0); ev < 60 {
		t.Errorf("evidence(00) = %g, want ≈62", ev)
	}
	if ev := e.Evidence(3); ev != 0 {
		t.Errorf("evidence(11) = %g, want 0", ev)
	}
	sr, err := e.SR("idle")
	if err != nil {
		t.Fatal(err)
	}
	// Unseen history 11: uniform over its shift successors 10 and 11.
	if sr.P.At(3, 2) != 0.5 || sr.P.At(3, 3) != 0.5 {
		t.Errorf("unseen history row = [%g %g], want uniform fallback",
			sr.P.At(3, 2), sr.P.At(3, 3))
	}
	// A served SR that disagrees wildly on unseen rows only: no drift with
	// the floor in place, drift without it.
	served := &core.ServiceRequester{
		Name:     "served",
		States:   sr.States,
		P:        sr.P.Clone(),
		Requests: sr.Requests,
	}
	served.P.Set(3, 2, 1)
	served.P.Set(3, 3, 0)
	_, gated, err := e.DriftAdaptive(served, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gated != 0 {
		t.Errorf("gated drift = %g, want 0 (only unseen rows moved)", gated)
	}
	_, ungated, err := e.DriftAdaptive(served, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ungated < 0.4 {
		t.Errorf("ungated drift = %g, want ≈0.5", ungated)
	}
}

// TestDriftAdaptiveEvidenceScaling: the adaptive trigger suppresses a TV
// deviation that a thinly observed row cannot statistically support, then
// fires once the same deviation persists under accumulated evidence — the
// per-row scaling a single global threshold cannot express.
func TestDriftAdaptiveEvidenceScaling(t *testing.T) {
	const threshold, minEv, z = 0.05, 8.0, 2.0
	e, err := online.NewEstimator(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Seed + 10 cycles of [0,0,0,0,1]: row 0 sees 40 transitions at
	// pb₀ = 0.25, row 1 sees 10 at pb₁ = 0.
	calm := []int{0}
	for i := 0; i < 10; i++ {
		calm = append(calm, 0, 0, 0, 0, 1)
	}
	feed(t, e, calm)
	served, err := e.SR("served")
	if err != nil {
		t.Fatal(err)
	}

	// A short burst of [0,1] pulls pb₀ to 0.375 on thin evidence: the raw
	// TV (0.125) is far above the global threshold, but within the row's
	// own z = 2 sampling band — the adaptive trigger must hold fire.
	var burst []int
	for i := 0; i < 8; i++ {
		burst = append(burst, 0, 1)
	}
	feed(t, e, burst)
	_, tvGlobal, err := e.DriftAdaptive(served, minEv, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tvGlobal <= threshold {
		t.Fatalf("raw TV after burst = %g, expected above the global threshold %g", tvGlobal, threshold)
	}
	ratio, tv, err := e.DriftAdaptive(served, minEv, threshold, z)
	if err != nil {
		t.Fatal(err)
	}
	if ratio >= 1 {
		t.Errorf("adaptive trigger fired on thin evidence: ratio = %g (tv %g)", ratio, tv)
	}

	// The same regime sustained for 300 more cycles shrinks the row's
	// sampling band far below the now-large deviation: it must fire.
	var sustained []int
	for i := 0; i < 300; i++ {
		sustained = append(sustained, 0, 1)
	}
	feed(t, e, sustained)
	ratio, tv, err = e.DriftAdaptive(served, minEv, threshold, z)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1 {
		t.Errorf("adaptive trigger did not fire on sustained drift: ratio = %g (tv %g)", ratio, tv)
	}

	// z = 0 collapses to the global rule exactly.
	r0, tv0, err := e.DriftAdaptive(served, minEv, threshold, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, maxTV, err := e.DriftAdaptive(served, minEv, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tv0 != maxTV || r0 != maxTV/threshold {
		t.Errorf("z=0: (ratio, tv) = (%g, %g), want (%g, %g)", r0, tv0, maxTV/threshold, maxTV)
	}

	if _, _, err := e.DriftAdaptive(served, minEv, 0, z); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, _, err := e.DriftAdaptive(served, minEv, threshold, -1); err == nil {
		t.Error("negative z accepted")
	}
}

// diskRebuild swaps the estimated SR into the paper's disk system, the
// rebuild contract the server uses for preset models.
func diskRebuild(sr *core.ServiceRequester) (*core.System, error) {
	return devices.DiskSystem(sr), nil
}

func diskOpts() core.Options {
	return core.Options{
		Alpha:     core.HorizonToAlpha(1e4),
		Objective: core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		Bounds:    []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: 1.8}},
	}
}

// TestAdapterDriftLoop is the subsystem's end-to-end contract: a drifting
// trace triggers an initial refresh and at least one drift refresh; every
// refresh after the first revises the LP in place (exactly one full
// assembly over the whole run) and warm-starts with strictly fewer pivots
// than a cold solve of the same instance; and the installed policy matches
// a from-scratch solve on the drifted SR to 1e-8.
func TestAdapterDriftLoop(t *testing.T) {
	a, err := online.New(diskRebuild, diskOpts(), online.Config{
		Memory:         1,
		Decay:          0.995,
		DriftThreshold: 0.05,
		MinSlices:      300,
		MinEvidence:    8,
		CheckEvery:     25,
		SolveBudget:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	counts := trace.Concat(
		trace.OnOff(rng, 1500, 0.03, 0.25), // calm: sleeping pays
		trace.OnOff(rng, 1500, 0.20, 0.10), // busy: the penalty bound binds
	)

	ctx := context.Background()
	var initial, drifted *core.Result
	driftPivots := -1
	for lo := 0; lo < len(counts); lo += 50 {
		hi := min(lo+50, len(counts))
		out, err := a.Observe(ctx, counts[lo:hi])
		if err != nil {
			t.Fatalf("Observe[%d:%d]: %v", lo, hi, err)
		}
		if out.RefreshErr != nil {
			t.Fatalf("refresh failed at slice %d: %v", hi, out.RefreshErr)
		}
		if out.Refreshed {
			switch out.Trigger {
			case "initial":
				initial = out.Result
				if out.Patched {
					t.Errorf("initial refresh claims the patch path with no LP resident")
				}
			case "drift":
				drifted = out.Result
				driftPivots = out.Pivots
				if !out.Patched {
					t.Errorf("drift refresh at slice %d did not use the patch path", hi)
				}
				if !out.ModelPatched {
					t.Errorf("drift refresh at slice %d did not revise the model in place", hi)
				}
				if !out.WarmStarted {
					t.Errorf("drift refresh at slice %d did not warm-start", hi)
				}
			}
		}
	}

	st := a.Stats()
	if initial == nil || st.Refreshes < 2 || st.DriftRefreshes < 1 || drifted == nil {
		t.Fatalf("refreshes = %+v; want an initial and ≥1 drift refresh", st)
	}
	if st.LPRebuilt != 1 {
		t.Errorf("LP assembled from scratch %d times; want exactly 1 (patch path otherwise)", st.LPRebuilt)
	}
	if st.LPPatched < st.Refreshes-1 {
		t.Errorf("LP patched %d times across %d refreshes", st.LPPatched, st.Refreshes)
	}
	if st.ModelRebuilt != 1 {
		t.Errorf("model compiled from scratch %d times; want exactly 1 (patch path otherwise)", st.ModelRebuilt)
	}
	if st.ModelPatched < st.Refreshes-1 {
		t.Errorf("model patched %d times across %d refreshes", st.ModelPatched, st.Refreshes)
	}
	if st.FailedRefreshes != 0 {
		t.Errorf("%d failed refreshes", st.FailedRefreshes)
	}

	// From-scratch reference on the final served SR: same optimum, and the
	// warm patched solve must have paid strictly fewer pivots than the cold
	// solve of the identical instance.
	sys, err := diskRebuild(a.ServedSR())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.Optimize(m, diskOpts())
	if err != nil {
		t.Fatalf("from-scratch solve: %v", err)
	}
	if driftPivots < 0 || driftPivots >= cold.LPIterations {
		t.Errorf("drift refresh pivots = %d, cold solve = %d; want warm < cold",
			driftPivots, cold.LPIterations)
	}
	if math.Abs(drifted.Objective-cold.Objective) > 1e-8 {
		t.Errorf("drifted objective %g, from-scratch %g", drifted.Objective, cold.Objective)
	}
	for s := 0; s < m.N; s++ {
		for c := 0; c < m.A; c++ {
			if d := math.Abs(drifted.Policy.CommandDist(s)[c] - cold.Policy.CommandDist(s)[c]); d > 1e-8 {
				t.Fatalf("policy(%d,%d): served %g, from-scratch %g (Δ %g)",
					s, c, drifted.Policy.CommandDist(s)[c], cold.Policy.CommandDist(s)[c], d)
			}
		}
	}

	// The drift must have actually changed the served commands somewhere.
	changed := false
	for s := 0; s < m.N && !changed; s++ {
		changed = modeCommand(initial.Policy.CommandDist(s)) != modeCommand(drifted.Policy.CommandDist(s))
	}
	if !changed {
		t.Errorf("drift refresh left the mode command identical on every state")
	}
}

// TestAdapterFailedRefreshKeepsPolicy: an exhausted solve budget keeps the
// previous policy in place and is reported, not fatal.
func TestAdapterFailedRefreshKeepsPolicy(t *testing.T) {
	a, err := online.New(diskRebuild, diskOpts(), online.Config{
		Memory:         1,
		Decay:          0.98,
		DriftThreshold: 0.1,
		MinSlices:      100,
		MinEvidence:    4,
		CheckEvery:     25,
		SolveBudget:    time.Nanosecond, // nothing solves in this
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	out, err := a.Observe(context.Background(), trace.OnOff(rng, 400, 0.1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if out.Refreshed || out.RefreshErr == nil {
		t.Fatalf("outcome %+v; want a reported failed refresh", out)
	}
	if a.Current() != nil {
		t.Errorf("a policy was installed despite the failed solve")
	}
	if st := a.Stats(); st.FailedRefreshes != 1 || st.Refreshes != 0 {
		t.Errorf("stats %+v; want one failed, zero successful refreshes", st)
	}
}

// TestAdapterPivotBudget: an exhausted pivot budget behaves exactly like a
// cancelled refresh — reported, counted as failed, previous policy (here:
// none) keeps serving.
func TestAdapterPivotBudget(t *testing.T) {
	opts := diskOpts()
	opts.LPMaxPivots = 1 // no policy LP solves in one pivot
	a, err := online.New(diskRebuild, opts, online.Config{
		Memory:         1,
		Decay:          0.98,
		DriftThreshold: 0.1,
		MinSlices:      100,
		MinEvidence:    4,
		CheckEvery:     25,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	out, err := a.Observe(context.Background(), trace.OnOff(rng, 400, 0.1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if out.Refreshed || out.RefreshErr == nil {
		t.Fatalf("outcome %+v; want a reported failed refresh", out)
	}
	if !errors.Is(out.RefreshErr, lp.ErrNotOptimal) {
		t.Errorf("RefreshErr = %v; want wrap of lp.ErrNotOptimal", out.RefreshErr)
	}
	if a.Current() != nil {
		t.Errorf("a policy was installed despite the exhausted pivot budget")
	}
	if st := a.Stats(); st.FailedRefreshes != 1 || st.Refreshes != 0 {
		t.Errorf("stats %+v; want one failed, zero successful refreshes", st)
	}
}

// TestAdapterValidation: construction and ingestion errors.
func TestAdapterValidation(t *testing.T) {
	if _, err := online.New(nil, diskOpts(), online.Config{}); err == nil {
		t.Errorf("nil rebuild accepted")
	}
	a, err := online.New(diskRebuild, diskOpts(), online.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Observe(context.Background(), []int{1, -2}); err == nil {
		t.Errorf("negative count accepted")
	}
	if st := a.Stats(); st.Slices != 0 {
		t.Errorf("rejected batch was partially ingested: %+v", st)
	}
}

// modeCommand returns the most probable command of a command distribution.
func modeCommand(dist mat.Vector) int {
	best := 0
	for a, w := range dist {
		if w > dist[best] {
			best = a
		}
	}
	return best
}
