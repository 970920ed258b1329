package server

// The server-side solve flight recorder: every solve the daemon runs — an
// optimize miss, a sweep request, an online drift refresh — registers a row
// in a live table while its pivots are in flight. GET /v1/solves lists the
// rows (plus the most recent solve-event journal entries); DELETE
// /v1/solves/{id} cancels one through the same context machinery a client
// timeout uses, so the victim reports the ordinary Cancelled status.
//
// A row is an lp.Monitor: the solver pushes read-only snapshots into it at
// its event cadence and the row stores the latest one under a lock, so the
// HTTP reader renders live progress without touching solver state. One row
// covers one server-side flight, which may span several solve attempts
// (warm start and cold fallback, or every point of a sweep); pivot totals
// accumulate across finished attempts while the latest snapshot tracks the
// attempt currently pivoting.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/lp"
	"repro/internal/obs"
)

// solveTable is the registry of in-flight solves plus the observability
// surfaces fed by them: the server metrics (the in-flight gauges and every
// solve attempt's work) and the bounded solve-event journal served with
// /v1/solves.
type solveTable struct {
	m       *metrics
	journal *obs.Journal

	mu      sync.Mutex
	seq     int64
	entries map[int64]*solveFlight
}

func newSolveTable(m *metrics) *solveTable {
	return &solveTable{m: m, journal: obs.NewJournal(256), entries: make(map[int64]*solveFlight)}
}

// attach derives a cancellable solve context and its flight-recorder row.
// The row is not yet in the table — it registers itself on the first monitor
// snapshot, so requests that never pivot (cache hits upstream, observe
// batches the drift controller ignores) leave no trace. The caller must
// defer done().
func (t *solveTable) attach(ctx context.Context, model, endpoint string) (context.Context, *solveFlight) {
	ctx, cancel := context.WithCancelCause(ctx)
	f := &solveFlight{t: t, model: model, endpoint: endpoint, cancel: cancel}
	if tr := obs.TraceFrom(ctx); tr != nil {
		f.trace = tr.ID
	}
	return ctx, f
}

func (t *solveTable) register(f *solveFlight) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	t.entries[t.seq] = f
	return t.seq
}

func (t *solveTable) remove(id int64) {
	t.mu.Lock()
	delete(t.entries, id)
	t.mu.Unlock()
}

func (t *solveTable) get(id int64) (*solveFlight, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.entries[id]
	return f, ok
}

// list snapshots the table, oldest flight first. Row locks are taken only
// after t.mu is released (the monitor path nests f.mu → t.mu, so the reader
// must never nest the other way).
func (t *solveTable) list() []*solveFlight {
	t.mu.Lock()
	flights := make([]*solveFlight, 0, len(t.entries))
	for _, f := range t.entries {
		flights = append(flights, f)
	}
	t.mu.Unlock()
	sort.Slice(flights, func(i, j int) bool { return flights[i].id < flights[j].id })
	return flights
}

// solveFlight is one live solve. It implements lp.Monitor; all mutable
// state is guarded by mu because the solving goroutine writes snapshots
// while HTTP readers render them.
type solveFlight struct {
	t        *solveTable
	model    string
	endpoint string
	trace    string
	cancel   context.CancelCauseFunc

	mu          sync.Mutex
	id          int64 // 0 until the first snapshot registers the row
	started     time.Time
	latest      lp.Snapshot
	hasSnap     bool
	attemptLive bool // a solve attempt has started and not yet finished
	donePivots  int  // pivot total of finished attempts
	doneRefacs  int
	finished    bool // done() ran; late snapshots must not resurrect the row
}

// Observe implements lp.Monitor: count a finished attempt's work in the
// server metrics, store the snapshot, fold finished-attempt totals, journal
// the non-progress events. Called synchronously from the pivot loop, so it
// does nothing heavier than a map insert. Work is counted even on a retired
// row: the solve paid for it.
func (f *solveFlight) Observe(sn lp.Snapshot) {
	if sn.Event == "finish" {
		f.t.m.finish(sn)
	}
	f.mu.Lock()
	if f.finished {
		f.mu.Unlock()
		return
	}
	if f.id == 0 {
		f.started = time.Now()
		f.id = f.t.register(f)
		f.t.m.inflight.Add("solves_inflight", 1)
		f.t.m.inflight.Add("solves_inflight_"+f.endpoint, 1)
	}
	switch sn.Event {
	case "start":
		f.attemptLive = true
	case "finish":
		f.attemptLive = false
		f.donePivots += sn.Pivots
		f.doneRefacs += sn.Refactorizations
	}
	f.latest = sn
	f.hasSnap = true
	f.mu.Unlock()
	if sn.Event != "progress" {
		f.t.journal.Record(obs.Event{
			Kind:  "solve_" + sn.Event,
			Trace: f.trace,
			Attrs: map[string]any{
				"model":            f.model,
				"endpoint":         f.endpoint,
				"phase":            sn.Phase,
				"pivots":           sn.Pivots,
				"refactorizations": sn.Refactorizations,
				"objective":        sn.Objective,
			},
		})
	}
}

// done retires the flight: the row leaves the table, the gauges decrement,
// and the cancel-cause context is released. Idempotent.
func (f *solveFlight) done() {
	f.mu.Lock()
	if f.finished {
		f.mu.Unlock()
		return
	}
	f.finished = true
	id := f.id
	f.mu.Unlock()
	if id != 0 {
		f.t.remove(id)
		f.t.m.inflight.Add("solves_inflight", -1)
		f.t.m.inflight.Add("solves_inflight_"+f.endpoint, -1)
	}
	f.cancel(nil)
}

// SolveInfo is one /v1/solves row: identity, progress counters, the
// numerical-health record, and the per-stage wall-clock split so far.
// Its hyper_solves/dense_solves pair counts BTRAN solves only (see
// mat.HealthStats): FTRAN is always dense.
type SolveInfo struct {
	ID               int64   `json:"id"`
	Model            string  `json:"model"`
	Endpoint         string  `json:"endpoint"`
	Trace            string  `json:"trace,omitempty"`
	Event            string  `json:"event"`
	Phase            string  `json:"phase,omitempty"`
	Pivots           int     `json:"pivots"`
	Refactorizations int     `json:"refactorizations"`
	Objective        float64 `json:"objective"`
	PrimalInf        float64 `json:"primal_inf"`
	DualInf          float64 `json:"dual_inf"`
	EtaLen           int     `json:"eta_len"`
	FactorNNZ        int     `json:"factor_nnz"`
	GrowthFactor     float64 `json:"growth_factor,omitempty"`
	DiagRatio        float64 `json:"diag_ratio,omitempty"`
	FTRejections     int     `json:"ft_rejections,omitempty"`
	HyperSolves      int     `json:"hyper_solves,omitempty"`
	DenseSolves      int     `json:"dense_solves,omitempty"`
	ElapsedMS        float64 `json:"elapsed_ms"`

	Stages map[string]float64 `json:"stages_ms,omitempty"`
}

// SolvesResponse is the body of GET /v1/solves: the most recent
// solve-journal events, newest first, and the live table, oldest flight
// first. Events encode first, so everything from the "solves" key on is
// the live table.
type SolvesResponse struct {
	Events []obs.Event `json:"events"`
	Solves []SolveInfo `json:"solves"`
}

// info renders the row. Pivot/refactorization totals combine finished
// attempts with the attempt currently in flight.
func (f *solveFlight) info() SolveInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	in := SolveInfo{
		ID:        f.id,
		Model:     f.model,
		Endpoint:  f.endpoint,
		Trace:     f.trace,
		Pivots:    f.donePivots,
		ElapsedMS: float64(time.Since(f.started).Microseconds()) / 1000,
	}
	in.Refactorizations = f.doneRefacs
	if !f.hasSnap {
		return in
	}
	sn := f.latest
	in.Event = sn.Event
	in.Phase = sn.Phase
	if f.attemptLive {
		in.Pivots += sn.Pivots
		in.Refactorizations += sn.Refactorizations
	}
	in.Objective = sn.Objective
	in.PrimalInf = sn.PrimalInf
	in.DualInf = sn.DualInf
	in.EtaLen = sn.EtaLen
	in.FactorNNZ = sn.FactorNNZ
	in.GrowthFactor = sn.Health.GrowthFactor
	in.DiagRatio = sn.Health.DiagRatio()
	in.FTRejections = sn.Health.FTRejections
	in.HyperSolves = sn.Health.HyperSolves
	in.DenseSolves = sn.Health.DenseSolves
	if tm := sn.Timings; tm.Total() > 0 {
		in.Stages = make(map[string]float64)
		for _, st := range tm.Stages() {
			in.Stages[st.Name] = float64(st.D.Microseconds()) / 1000
		}
	}
	return in
}

// handleSolves is GET /v1/solves: the live solve table plus the most recent
// solve-event journal entries.
func (s *Server) handleSolves(w http.ResponseWriter, r *http.Request) {
	flights := s.solves.list()
	infos := make([]SolveInfo, 0, len(flights))
	for _, f := range flights {
		infos = append(infos, f.info())
	}
	writeJSON(w, http.StatusOK, &SolvesResponse{Events: s.solves.journal.Last(32), Solves: infos})
}

// handleSolveCancel is DELETE /v1/solves/{id}: cancel one in-flight solve.
// The cancellation cause wraps context.Canceled, so the victim unwinds
// through the ordinary deadline path — lp Status Cancelled, a 504 on the
// waiting client, the cancelled_solves counter.
func (s *Server) handleSolveCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil || id <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid solve id %q", r.PathValue("id")))
		return
	}
	f, ok := s.solves.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no in-flight solve %d (it may have finished; see GET /v1/solves)", id))
		return
	}
	f.cancel(fmt.Errorf("solve %d cancelled via DELETE /v1/solves: %w", id, context.Canceled))
	writeJSON(w, http.StatusOK, map[string]any{"cancelled": id})
}
