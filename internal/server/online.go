package server

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/online"
)

// onlineEntry is the per-model online adaptation state: one streaming
// adapter plus the option-family fingerprint and effective estimator
// configuration it was created with, so a later observe request with
// conflicting settings is rejected instead of silently refreshing against
// the wrong LP family or a different estimator than the caller believes.
type onlineEntry struct {
	adapter *online.Adapter
	family  string
	cfg     online.Config // effective (defaults applied)
	created time.Time
	relay   monitorRelay
}

// monitorRelay is the adapter's fixed lp.Monitor (optimization options are
// frozen at adapter creation) forwarding to the flight-recorder row of the
// observe request currently driving a refresh. Between requests it keeps
// pointing at the last request's retired row, which still counts the work
// of a refresh that lands there (concurrent observe requests race on the
// pointer) but shows nothing.
type monitorRelay struct {
	target atomic.Pointer[solveFlight]
}

func (m *monitorRelay) Observe(sn lp.Snapshot) {
	if f := m.target.Load(); f != nil {
		f.Observe(sn)
	}
}

// tuningConflict reports which estimator/budget field of the request, if
// explicitly set, disagrees with the entry's effective configuration
// (omitted fields conflict with nothing; the comparison is against
// defaults-applied values, so restating a default is fine).
func (oe *onlineEntry) tuningConflict(req *ObserveRequest, budget time.Duration) string {
	c := oe.cfg
	switch {
	case req.Memory != 0 && req.Memory != c.Memory:
		return "memory"
	case req.Decay != 0 && req.Decay != c.Decay:
		return "decay"
	case req.DriftThreshold != 0 && req.DriftThreshold != c.DriftThreshold:
		return "drift_threshold"
	case req.DriftZ != 0 && max(req.DriftZ, -1) != c.DriftZ:
		return "drift_z"
	case req.MinSlices != 0 && req.MinSlices != c.MinSlices:
		return "min_slices"
	case req.MinEvidence != 0 && req.MinEvidence != c.MinEvidence:
		return "min_evidence"
	case req.CheckEvery != 0 && req.CheckEvery != c.CheckEvery:
		return "check_every"
	case req.TimeoutMS > 0 && budget != c.SolveBudget:
		return "timeout_ms"
	}
	return ""
}

// onlineFor returns the model's adapter, creating it from the request's
// configuration on first use. The estimator/drift configuration and the
// optimization options are fixed at creation — the LP patch path and warm
// starts rely on every refresh solving a structurally identical program —
// so later requests may only repeat (or omit) them. There is no
// reconfiguration path short of restarting the daemon; a model registered
// under different parameters (a different content fingerprint) gets its
// own adapter.
func (s *Server) onlineFor(e *modelEntry, req *ObserveRequest) (*onlineEntry, int, error) {
	opts, err := s.buildOptions(e, &req.OptimizeRequest)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	_, family, _ := queryKey(e.ID, opts)
	budget := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		if budget, err = s.timeout(req.TimeoutMS); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}

	s.onlineMu.Lock()
	defer s.onlineMu.Unlock()
	if oe, ok := s.onlines[e.ID]; ok {
		if req.hasOptions() && oe.family != family {
			return nil, http.StatusConflict, fmt.Errorf(
				"model %s already adapts under a different optimization option set, fixed at its first observe; omit or repeat the original options (reconfiguring needs a daemon restart or a model with different parameters)", e.ID)
		}
		if f := oe.tuningConflict(req, budget); f != "" {
			return nil, http.StatusConflict, fmt.Errorf(
				"model %s already adapts with a different %q, fixed at its first observe; omit or repeat the original value (reconfiguring needs a daemon restart or a model with different parameters)", e.ID, f)
		}
		return oe, 0, nil
	}

	// The rebuild contract swaps the estimated SR into the registered
	// system. Behavioral hooks capture the original SR in closures (and are
	// index-coupled to its state space), so hooked systems cannot be
	// re-targeted this way.
	if e.Sys.SPRow != nil || e.Sys.PenaltyFn != nil || e.Sys.LossFn != nil || len(e.Sys.ExtraMetrics) > 0 {
		return nil, http.StatusBadRequest, fmt.Errorf(
			"model %s has behavioral hooks (%q); online adaptation needs a hook-free system", e.ID, e.Sys.HookTag)
	}
	rebuild := func(sr *core.ServiceRequester) (*core.System, error) {
		sys := *e.Sys
		sys.SR = sr
		sys.Name = e.Sys.Name + "+online"
		return &sys, nil
	}
	cfg := online.Config{
		Memory:         req.Memory,
		Decay:          req.Decay,
		DriftThreshold: req.DriftThreshold,
		DriftZ:         req.DriftZ,
		MinSlices:      req.MinSlices,
		MinEvidence:    req.MinEvidence,
		CheckEvery:     req.CheckEvery,
		SolveBudget:    budget,
	}
	oe := &onlineEntry{family: family, cfg: cfg.WithDefaults(), created: time.Now()}
	// Refresh solves report to whichever observe request is driving the
	// adapter; the relay indirection exists because the adapter's options
	// are fixed here, before any flight exists. Runtime-only — queryKey
	// never fingerprints monitors, so the family is unaffected.
	opts.LPMonitor = &oe.relay
	opts.LPMonitorEvery = s.cfg.SolveMonitorEvery
	adapter, err := online.New(rebuild, opts, cfg)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	oe.adapter = adapter
	s.onlines[e.ID] = oe
	return oe, 0, nil
}

// handleObserve is POST /v1/models/{model}/observe: ingest a slice batch
// into the model's streaming estimator and report what the drift controller
// did with it. The response mirrors /v1/optimize where a refresh happened
// (objective, averages, optional policy); refresh counters surface in
// /v1/stats and /metrics.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	e, ok := s.reg.resolve(r.PathValue("model"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown model %q", r.PathValue("model")))
		return
	}
	var req ObserveRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Counts) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("observe needs at least one slice count"))
		return
	}
	if len(req.Counts) > maxObserveSlices {
		writeError(w, http.StatusBadRequest, fmt.Errorf("observe accepts at most %d slices per request, got %d", maxObserveSlices, len(req.Counts)))
		return
	}
	// Counts are validated before the adapter is created: a rejected batch
	// must not pin the model's option family.
	for i, c := range req.Counts {
		if c < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("negative request count %d at slice %d", c, i))
			return
		}
	}
	s.stats.ObserveRequests.Add(1)
	oe, status, err := s.onlineFor(e, &req)
	if err != nil {
		writeError(w, status, err)
		return
	}

	// Register a flight-recorder row for any refresh this batch triggers;
	// a batch the drift controller absorbs without solving never surfaces
	// (the row only registers on the first monitor snapshot).
	ctx, fl := s.solves.attach(r.Context(), e.ID, "observe")
	oe.relay.target.Store(fl)
	out, err := oe.adapter.Observe(ctx, req.Counts)
	fl.done()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.stats.SlicesIngested.Add(int64(out.Ingested))
	if out.Refreshed {
		s.stats.OnlineRefreshes.Add(1)
		if out.Trigger == "drift" {
			s.stats.OnlineDriftRefreshes.Add(1)
		}
		if out.Patched {
			s.stats.OnlinePatched.Add(1)
		} else {
			s.stats.OnlineRebuilt.Add(1)
		}
		if out.WarmStarted {
			s.stats.OnlineWarm.Add(1)
		}
	} else if out.RefreshErr != nil {
		s.stats.OnlineFailed.Add(1)
	}

	st := oe.adapter.Stats()
	resp := &ObserveResponse{
		Model:       e.ID,
		Ingested:    out.Ingested,
		Slices:      st.Slices,
		Drift:       out.Drift,
		Refreshed:   out.Refreshed,
		Trigger:     out.Trigger,
		Patched:     out.Patched,
		WarmStarted: out.WarmStarted,
		Pivots:      out.Pivots,
		Refreshes:   st.Refreshes,
		ElapsedMS:   float64(time.Since(started).Microseconds()) / 1000,
	}
	if out.RefreshErr != nil {
		resp.RefreshError = out.RefreshErr.Error()
	}
	if res := oe.adapter.Current(); res != nil {
		resp.Serving = true
		resp.Objective = res.Objective
		resp.Averages = res.Averages
		if req.IncludePolicy {
			resp.Policy = policyJSON(oe.adapter.CurrentSystem(), res)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
