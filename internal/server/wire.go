package server

import (
	"fmt"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/mat"
)

// Wire types: the JSON surface of the service. Requests reference models by
// the content id returned at registration (or by registered name); model
// bodies mirror core.ServiceProvider / core.ServiceRequester closely enough
// that a parameter file is also a valid request body.

// BoundSpec is one metric constraint row: Metric Rel Value, with Rel one of
// "<=" or ">=".
type BoundSpec struct {
	Metric string  `json:"metric"`
	Rel    string  `json:"rel"`
	Value  float64 `json:"value"`
}

func (b BoundSpec) toCore() (core.Bound, error) {
	rel, err := cli.ParseRel(b.Rel)
	if err != nil {
		return core.Bound{}, fmt.Errorf("bound %q: %v", b.Metric, err)
	}
	if b.Metric == "" {
		return core.Bound{}, fmt.Errorf("bound missing metric name")
	}
	return core.Bound{Metric: b.Metric, Rel: rel, Value: b.Value}, nil
}

// SRSpec is a user-posted service requester: a row-stochastic transition
// matrix and per-state request counts. State names are optional (generated
// when omitted).
type SRSpec struct {
	Name     string      `json:"name,omitempty"`
	States   []string    `json:"states,omitempty"`
	P        [][]float64 `json:"p"`
	Requests []int       `json:"requests"`
}

func (s *SRSpec) toCore() (*core.ServiceRequester, error) {
	n := len(s.P)
	if n == 0 {
		return nil, fmt.Errorf("sr: empty transition matrix")
	}
	states, err := stateNames(s.States, n, "r")
	if err != nil {
		return nil, fmt.Errorf("sr: %v", err)
	}
	p, err := denseMatrix(s.P, n, n)
	if err != nil {
		return nil, fmt.Errorf("sr transition matrix: %v", err)
	}
	sr := &core.ServiceRequester{
		Name:     orDefault(s.Name, "posted-sr"),
		States:   states,
		P:        p,
		Requests: append([]int(nil), s.Requests...),
	}
	if err := sr.Validate(); err != nil {
		return nil, err
	}
	return sr, nil
}

// SPSpec is a user-posted service provider: one transition matrix per
// command plus the service-rate and power tables.
type SPSpec struct {
	Name        string        `json:"name,omitempty"`
	States      []string      `json:"states,omitempty"`
	Commands    []string      `json:"commands,omitempty"`
	P           [][][]float64 `json:"p"`
	ServiceRate [][]float64   `json:"service_rate"`
	Power       [][]float64   `json:"power"`
}

func (s *SPSpec) toCore() (*core.ServiceProvider, error) {
	a := len(s.P)
	if a == 0 {
		return nil, fmt.Errorf("sp: no per-command transition matrices")
	}
	n := len(s.P[0])
	states, err := stateNames(s.States, n, "s")
	if err != nil {
		return nil, fmt.Errorf("sp: %v", err)
	}
	cmds, err := stateNames(s.Commands, a, "cmd")
	if err != nil {
		return nil, fmt.Errorf("sp commands: %v", err)
	}
	ps := make([]*mat.Matrix, a)
	for cmd := range s.P {
		if ps[cmd], err = denseMatrix(s.P[cmd], n, n); err != nil {
			return nil, fmt.Errorf("sp transition matrix for command %s: %v", cmds[cmd], err)
		}
	}
	rate, err := denseMatrix(s.ServiceRate, n, a)
	if err != nil {
		return nil, fmt.Errorf("sp service_rate: %v", err)
	}
	power, err := denseMatrix(s.Power, n, a)
	if err != nil {
		return nil, fmt.Errorf("sp power: %v", err)
	}
	sp := &core.ServiceProvider{
		Name:        orDefault(s.Name, "posted-sp"),
		States:      states,
		Commands:    cmds,
		P:           ps,
		ServiceRate: rate,
		Power:       power,
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// ModelSpec is the body of POST /v1/models: either a named preset (with an
// optional two-state workload parameterization) or a full SP/SR parameter
// set with a queue capacity.
type ModelSpec struct {
	Name string `json:"name,omitempty"`

	// Preset selects a built-in device model (see cli.DeviceNames); P01/P10
	// parameterize its two-state workload where the device accepts one.
	Preset string  `json:"preset,omitempty"`
	P01    float64 `json:"p01,omitempty"`
	P10    float64 `json:"p10,omitempty"`

	// SP/SR/QueueCap define a user model when Preset is empty.
	SP       *SPSpec `json:"sp,omitempty"`
	SR       *SRSpec `json:"sr,omitempty"`
	QueueCap int     `json:"queue_cap,omitempty"`
}

func (ms *ModelSpec) toSystem() (*core.System, string, error) {
	if ms.Preset != "" {
		if ms.SP != nil || ms.SR != nil {
			return nil, "", fmt.Errorf("model spec: preset and sp/sr are mutually exclusive")
		}
		d, err := cli.NewDevice(ms.Preset, ms.P01, ms.P10)
		if err != nil {
			return nil, "", err
		}
		return d.Sys, d.Desc, nil
	}
	if ms.SP == nil || ms.SR == nil {
		return nil, "", fmt.Errorf("model spec: need preset, or both sp and sr")
	}
	sp, err := ms.SP.toCore()
	if err != nil {
		return nil, "", err
	}
	sr, err := ms.SR.toCore()
	if err != nil {
		return nil, "", err
	}
	if ms.QueueCap < 0 {
		return nil, "", fmt.Errorf("model spec: negative queue_cap %d", ms.QueueCap)
	}
	sys := &core.System{
		Name:     orDefault(ms.Name, sp.Name+"+"+sr.Name),
		SP:       sp,
		SR:       sr,
		QueueCap: ms.QueueCap,
	}
	return sys, "user-posted model", nil
}

// ModelInfo describes one registered model (GET /v1/models and the
// registration response).
type ModelInfo struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	Desc     string   `json:"desc,omitempty"`
	States   int      `json:"states"`
	Commands int      `json:"commands"`
	Metrics  []string `json:"metrics"`
	// Existing reports that registration found the same content fingerprint
	// already compiled (the registration was a no-op).
	Existing bool `json:"existing,omitempty"`
}

// OptimizeRequest is the body of POST /v1/optimize. Exactly one of Alpha or
// Horizon selects the discount; Horizon is the expected session length in
// slices (alpha = 1 - 1/horizon). The initial distribution is always
// uniform — resident results are shared across callers, and a per-caller q0
// would fragment the cache for a quantity policies barely depend on at the
// long horizons served here.
type OptimizeRequest struct {
	Model     string      `json:"model"`
	Alpha     float64     `json:"alpha,omitempty"`
	Horizon   float64     `json:"horizon,omitempty"`
	Objective string      `json:"objective,omitempty"` // default "penalty"
	Maximize  bool        `json:"maximize,omitempty"`
	Bounds    []BoundSpec `json:"bounds,omitempty"`
	// TimeoutMS bounds the solve; 0 selects the server default. The solve
	// is cancelled mid-pivot when it expires.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxPivots bounds the simplex pivots of the solve (0: unlimited). An
	// exhausted budget is answered with 422 and counted in the
	// budget_exceeded serving counter.
	MaxPivots int `json:"max_pivots,omitempty"`
	// IncludePolicy adds the full per-state command distributions to the
	// response (N×A numbers; off by default).
	IncludePolicy bool `json:"include_policy,omitempty"`
}

// PolicyJSON is the optional policy payload: Dist[s][a] is the probability
// of issuing command a in state s.
type PolicyJSON struct {
	States   []string    `json:"states"`
	Commands []string    `json:"commands"`
	Dist     [][]float64 `json:"dist"`
}

// OptimizeResponse is the result of one optimize query.
type OptimizeResponse struct {
	Model     string             `json:"model"`
	Status    string             `json:"status"`
	Feasible  bool               `json:"feasible"`
	Objective float64            `json:"objective,omitempty"`
	Averages  map[string]float64 `json:"averages,omitempty"`
	// Cache reports how the query was served: "hit" (cached result, no
	// solve), "warm" (solved, warm-started from a cached basis), "cold"
	// (solved from scratch), or "shared" (deduplicated onto a concurrent
	// identical solve).
	Cache string `json:"cache"`
	// Pivots counts the simplex iterations this request paid for (0 on an
	// exact cache hit).
	Pivots      int         `json:"pivots"`
	WarmStarted bool        `json:"warm_started,omitempty"`
	Policy      *PolicyJSON `json:"policy,omitempty"`
	ElapsedMS   float64     `json:"elapsed_ms"`
}

// ObserveRequest is the body of POST /v1/models/{id}/observe: a batch of
// per-slice request counts for the model's streaming SR estimator, plus
// the estimator/drift configuration and the optimization options every
// refresh solves under (zero values select the adapter defaults). The
// configuration is fixed when the model's online adapter is created by its
// first observe; later requests may repeat the same settings or omit them,
// and any explicitly conflicting option or tuning field is rejected with
// 409 — the adaptation loop's LP patch path and warm starts require every
// refresh to solve a structurally identical program, and a silently
// ignored reconfiguration would leave the caller adapting under settings
// it does not believe it has. TimeoutMS becomes the per-refresh solve
// budget: a refresh whose simplex exceeds it is cancelled mid-pivot and
// the previous policy stays.
type ObserveRequest struct {
	OptimizeRequest
	// Counts are the observed per-slice request counts, oldest first.
	Counts []int `json:"counts"`
	// Memory is the extractor history length k (default 1).
	Memory int `json:"memory,omitempty"`
	// Decay is the estimator's per-slice forgetting factor in (0,1]
	// (default 0.995 ≈ a 200-slice effective window).
	Decay float64 `json:"decay,omitempty"`
	// DriftThreshold is the max per-row total-variation distance between
	// the estimate and the served SR before a re-solve (default 0.05).
	DriftThreshold float64 `json:"drift_threshold,omitempty"`
	// DriftZ scales each row's trigger by its own sampling noise:
	// re-solve when a row's TV exceeds drift_threshold + drift_z·SE(row).
	// Default 2; negative disables the adaptive margin (global threshold).
	DriftZ float64 `json:"drift_z,omitempty"`
	// MinSlices gates the first solve (default 100 observed transitions).
	MinSlices int `json:"min_slices,omitempty"`
	// MinEvidence excludes rows with less decayed transition mass from the
	// drift measure (default 8).
	MinEvidence float64 `json:"min_evidence,omitempty"`
	// CheckEvery is the number of ingested slices between drift checks
	// (default 32).
	CheckEvery int `json:"check_every,omitempty"`
}

// hasOptions reports whether the request carries any optimization options —
// used to reject conflicting reconfiguration of an existing adapter while
// letting pure count batches through.
func (r *ObserveRequest) hasOptions() bool {
	return r.Alpha != 0 || r.Horizon != 0 || r.Objective != "" || r.Maximize || len(r.Bounds) > 0 ||
		r.MaxPivots != 0
}

// ObserveResponse reports one ingest: what the drift controller measured
// and whether it refreshed the served policy.
type ObserveResponse struct {
	Model string `json:"model"`
	// Ingested counts this batch's slices; Slices the model's lifetime total.
	Ingested int   `json:"ingested"`
	Slices   int64 `json:"slices"`
	// Drift is the measured drift at this batch's check (0 if none ran).
	Drift float64 `json:"drift"`
	// Refreshed reports a re-solve installed a new policy; Trigger is
	// "initial" or "drift" when one was attempted. Patched means the
	// resident LP was revised in place (no rebuild); WarmStarted that the
	// solve reused the previous optimal basis; Pivots its simplex work.
	Refreshed   bool   `json:"refreshed"`
	Trigger     string `json:"trigger,omitempty"`
	Patched     bool   `json:"patched,omitempty"`
	WarmStarted bool   `json:"warm_started,omitempty"`
	Pivots      int    `json:"pivots"`
	// Refreshes is the model's lifetime refresh count.
	Refreshes int `json:"refreshes"`
	// RefreshError reports a refresh attempt that failed (the previous
	// policy, if any, keeps serving).
	RefreshError string `json:"refresh_error,omitempty"`
	// Serving reports that a policy is installed; Objective/Averages (and
	// Policy when include_policy is set) describe it.
	Serving   bool               `json:"serving"`
	Objective float64            `json:"objective,omitempty"`
	Averages  map[string]float64 `json:"averages,omitempty"`
	Policy    *PolicyJSON        `json:"policy,omitempty"`
	ElapsedMS float64            `json:"elapsed_ms"`
}

// SweepSpec selects the swept constraint of POST /v1/sweep.
type SweepSpec struct {
	Metric  string    `json:"metric"`
	Rel     string    `json:"rel"`
	Values  []float64 `json:"values"`
	Workers int       `json:"workers,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: the optimize options plus the
// swept constraint. Every feasible point's result and basis land in the
// cache, so later optimize queries at swept bounds are exact hits.
type SweepRequest struct {
	OptimizeRequest
	Sweep SweepSpec `json:"sweep"`
}

// SweepPoint is one point of the returned tradeoff curve.
type SweepPoint struct {
	Value     float64            `json:"value"`
	Feasible  bool               `json:"feasible"`
	Objective float64            `json:"objective,omitempty"`
	Averages  map[string]float64 `json:"averages,omitempty"`
}

// SweepResponse is the result of one sweep query.
type SweepResponse struct {
	Model       string       `json:"model"`
	Points      []SweepPoint `json:"points"`
	Feasible    int          `json:"feasible"`
	WarmStarted int          `json:"warm_started"`
	Pivots      int          `json:"pivots"`
	Cache       string       `json:"cache"` // "hit" or "miss"
	ElapsedMS   float64      `json:"elapsed_ms"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func stateNames(given []string, n int, prefix string) ([]string, error) {
	if len(given) == 0 {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return names, nil
	}
	if len(given) != n {
		return nil, fmt.Errorf("%d names for %d entries", len(given), n)
	}
	return append([]string(nil), given...), nil
}

func denseMatrix(rows [][]float64, r, c int) (*mat.Matrix, error) {
	if len(rows) != r {
		return nil, fmt.Errorf("%d rows, want %d", len(rows), r)
	}
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("row %d has %d entries, want %d", i, len(row), c)
		}
	}
	return mat.FromRows(rows), nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
