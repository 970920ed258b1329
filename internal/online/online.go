// Package online is the streaming adaptation subsystem: it turns live
// per-slice request counts into refreshed optimal policies without ever
// rebuilding the policy LP from scratch.
//
// The paper optimizes a policy for one stationary service-requester model,
// but real workloads drift. This package closes the loop the related work
// (Q-DPM; Mandal et al.) closes offline-online: a streaming Estimator
// maintains the k-memory SR transition estimates of trace.ExtractSR
// incrementally, with exponential forgetting and O(1) work per slice; an
// Adapter monitors the estimate against the SR the currently served policy
// was solved for (maximum per-row total-variation distance, over rows with
// enough decayed evidence) and, when the drift exceeds a threshold,
// re-solves under a bounded wall-clock budget — warm-starting the simplex
// from the previous optimal basis and revising the resident core.Model and
// lp.Problem in place through core.PatchModel and core.PatchFrequencyLP
// instead of recompiling them. Each patch runs the same row generator as
// the matching build (System.Build, core.BuildFrequencyLP) into an in-place
// sink, so a patched refresh solves bit-for-bit the program a rebuild
// would.
//
// The three refresh tiers, cheapest first:
//
//	patched + warm   coefficients rewritten in place, phase 1 skipped
//	rebuilt + warm   new LP assembly, previous basis still reused
//	rebuilt + cold   full two-phase solve (first refresh, pattern change)
//
// internal/server exposes the loop as POST /v1/models/{id}/observe;
// cmd/dpmfeed streams synthetic drifting traces at a daemon.
package online

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mat"
)

// renormAt bounds the growing per-observation weight; when it is exceeded
// every tally and the weight are rescaled (amortized O(1) per slice).
const renormAt = 1e12

// Estimator incrementally maintains the k-memory service-requester model of
// trace.ExtractSR over a count stream, with exponential forgetting: the
// transition mass of a slice observed t slices ago is discounted by
// decay^t, so the estimate tracks a drifting workload with an effective
// window of 1/(1−decay) slices (decay 1 reproduces ExtractSR's plain
// counts). Ingesting one slice is O(1): instead of decaying every tally
// each slice, new observations carry a geometrically growing weight and the
// ratios that define the transition probabilities cancel the global scale.
type Estimator struct {
	memory int
	decay  float64
	mask   int
	state  int
	seeded int     // bits consumed into the initial history register
	slices int     // transitions observed (after seeding)
	weight float64 // weight of the next observation
	tally  [][2]float64
}

// NewEstimator returns an estimator for history length memory (the
// extractor's k, 2^k SR states) and per-slice decay factor in (0, 1].
func NewEstimator(memory int, decay float64) (*Estimator, error) {
	if memory < 1 || memory > 16 {
		return nil, fmt.Errorf("online: memory %d outside [1,16]", memory)
	}
	if decay <= 0 || decay > 1 {
		return nil, fmt.Errorf("online: decay %g outside (0,1]", decay)
	}
	return &Estimator{
		memory: memory,
		decay:  decay,
		mask:   1<<memory - 1,
		weight: 1,
		tally:  make([][2]float64, 1<<memory),
	}, nil
}

// States returns the number of SR states, 2^k.
func (e *Estimator) States() int { return 1 << e.memory }

// Slices returns the number of transitions observed so far (the first k
// slices only seed the history register, exactly like trace.ExtractSR).
func (e *Estimator) Slices() int { return e.slices }

// Observe ingests one per-slice request count in O(1). Negative counts are
// rejected; counts above one binarize, matching the paper's extractor.
func (e *Estimator) Observe(count int) error {
	if count < 0 {
		return fmt.Errorf("online: negative request count %d", count)
	}
	b := 0
	if count > 0 {
		b = 1
	}
	if e.seeded < e.memory {
		e.state = (e.state<<1 | b) & e.mask
		e.seeded++
		return nil
	}
	e.tally[e.state][b] += e.weight
	e.state = (e.state<<1 | b) & e.mask
	e.slices++
	if e.decay < 1 {
		e.weight /= e.decay
		if e.weight > renormAt {
			inv := 1 / e.weight
			for s := range e.tally {
				e.tally[s][0] *= inv
				e.tally[s][1] *= inv
			}
			e.weight = 1
		}
	}
	return nil
}

// lastWeight returns the weight the most recent observation carried (the
// unit Evidence is measured in).
func (e *Estimator) lastWeight() float64 {
	if e.decay < 1 {
		return e.weight * e.decay
	}
	return e.weight
}

// Evidence returns the decayed transition mass observed out of SR state s,
// in units of the most recent slice's weight: a row that saw w slices ago
// contributes decay^w. Under steady streaming it approaches (stationary
// visit probability of s)/(1−decay); rows below a few units are dominated
// by the uniform fallback and should not drive drift decisions.
func (e *Estimator) Evidence(s int) float64 {
	if e.slices == 0 {
		return 0
	}
	t := e.tally[s]
	return (t[0] + t[1]) / e.lastWeight()
}

// PBusy returns the current estimate of the probability that state s's next
// slice is busy. Unseen histories fall back to 0.5, the same uniform
// distribution trace.ExtractSR assigns them.
func (e *Estimator) PBusy(s int) float64 {
	t := e.tally[s]
	total := t[0] + t[1]
	if total == 0 {
		return 0.5
	}
	return t[1] / total
}

// SR materializes the current estimate as a core.ServiceRequester with
// exactly the structure trace.ExtractSR produces: 2^k states named by their
// bit history, transitions on the two shift successors, requests equal to
// the newest bit. It errors before the first transition is observed.
func (e *Estimator) SR(name string) (*core.ServiceRequester, error) {
	if e.slices == 0 {
		return nil, fmt.Errorf("online: no transitions observed yet")
	}
	n := e.States()
	p := mat.NewMatrix(n, n)
	states := make([]string, n)
	reqs := make([]int, n)
	for s := 0; s < n; s++ {
		succ0 := (s << 1) & e.mask
		pb := e.PBusy(s)
		p.Add(s, succ0, 1-pb)
		p.Add(s, succ0|1, pb)
		states[s] = fmt.Sprintf("%0*b", e.memory, s)
		reqs[s] = s & 1
	}
	sr := &core.ServiceRequester{Name: name, States: states, P: p, Requests: reqs}
	if err := sr.Validate(); err != nil {
		return nil, fmt.Errorf("online: estimated model invalid: %w", err)
	}
	return sr, nil
}

// rowTV returns the total-variation distance between row s of the current
// estimate and row s of served.
func (e *Estimator) rowTV(served *core.ServiceRequester, s int) float64 {
	n := e.States()
	succ0 := (s << 1) & e.mask
	succ1 := succ0 | 1
	pb := e.PBusy(s)
	tv := math.Abs((1-pb)-served.P.At(s, succ0)) + math.Abs(pb-served.P.At(s, succ1))
	for j := 0; j < n; j++ {
		if j != succ0 && j != succ1 {
			tv += math.Abs(served.P.At(s, j))
		}
	}
	return tv / 2
}

// DriftAdaptive is the evidence-aware drift measure: each row's TV distance
// is compared against its own trigger threshold + z·SE(s), where SE(s) =
// sqrt(p̃(1−p̃)/Evidence(s)) is the sampling noise of the row's busy-bit
// estimate (p̃ Laplace-smoothed so saturated rows keep a nonzero noise
// floor). A well-observed row therefore triggers on small deviations while
// a thinly observed one must move far beyond its own noise — the per-row
// scaling that one global threshold cannot express. Returned are the worst
// ratio TV(s)/threshold(s) over rows with at least minEvidence mass (≥ 1
// means some row exceeded its trigger) and the raw TV of that worst row.
// z = 0 degenerates to the global rule: ratio = maxTV/threshold. The
// evidence floor keeps unseen histories, which both sides fill in by
// convention, from faking drift. served must have the estimator's 2^k
// states in extractor order — in the adaptation loop it is simply the SR of
// the previous refresh.
func (e *Estimator) DriftAdaptive(served *core.ServiceRequester, minEvidence, threshold, z float64) (ratio, tv float64, err error) {
	n := e.States()
	if served.N() != n {
		return 0, 0, fmt.Errorf("online: served SR has %d states, estimator %d", served.N(), n)
	}
	if threshold <= 0 || z < 0 {
		return 0, 0, fmt.Errorf("online: invalid adaptive drift parameters threshold=%g z=%g", threshold, z)
	}
	for s := 0; s < n; s++ {
		ev := e.Evidence(s)
		if ev < minEvidence {
			continue
		}
		rtv := e.rowTV(served, s)
		thr := threshold
		if z > 0 && ev > 0 {
			pb := e.PBusy(s)
			smoothed := (ev*pb + 0.5) / (ev + 1)
			thr += z * math.Sqrt(smoothed*(1-smoothed)/ev)
		}
		if r := rtv / thr; r > ratio {
			ratio, tv = r, rtv
		}
	}
	return ratio, tv, nil
}
