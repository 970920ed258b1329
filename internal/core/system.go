package core

import (
	"fmt"

	"repro/internal/lp"
	"repro/internal/mat"
)

// Built-in metric names attached to every compiled Model. Additional metrics
// can be registered through System.ExtraMetrics.
const (
	// MetricPower is the expected power consumption per slice, c(s,a)
	// (paper Section III-B).
	MetricPower = "power"
	// MetricPenalty is the performance penalty per slice, d(s); by default
	// the number of enqueued requests.
	MetricPenalty = "penalty"
	// MetricLoss is the request-loss indicator: 1 when the SR issues
	// requests and the queue is full (Appendix A's loss constraint).
	MetricLoss = "loss"
	// MetricDrops is the expected number of requests dropped per slice:
	// arrivals beyond the space left by the queue and the (probabilistic)
	// service completion, averaged over the next SR state. Unlike the
	// indicator, it credits service headroom — an awake server at a full
	// queue drops nothing if it completes a request — which makes it the
	// right constraint metric when studying transition-speed and
	// queue-length sensitivity (Appendix B).
	MetricDrops = "drops"
	// MetricService is the service rate b(s,a); for systems whose
	// performance measure is throughput (the web-server case study) this is
	// the natural constraint metric.
	MetricService = "service"
)

// State identifies one composed system state: the triple
// (SP state, SR state, queue backlog) of paper Eq. 4.
type State struct {
	SP, SR, Q int
}

// System describes a complete power-managed system before compilation:
// a service provider, a service requester, and a bounded queue, with
// optional hooks that generalize the composition exactly where the paper's
// case studies need it.
type System struct {
	// Name identifies the system in diagnostics and reports.
	Name string
	// SP is the service provider: an explicit *ServiceProvider or the
	// Kronecker-factored *FactoredSP a Composite compiles to. Composition
	// consumes the Provider contract only, so the two are interchangeable.
	SP Provider
	// SR is the service requester.
	SR *ServiceRequester
	// QueueCap is the queue capacity Q; the queue component has Q+1 states.
	// Zero means requests are never buffered (the CPU case study).
	QueueCap int

	// SPRow optionally overrides the SP transition row, allowing SP
	// dynamics to depend on the current SR state. The CPU case study uses
	// this for wake-on-request: when a request arrives, the SP transitions
	// toward active regardless of the issued command. A nil function (or a
	// nil return value) falls back to SP.P[cmd].Row(spState).
	SPRow func(spState, cmd, srState int) mat.Vector

	// PenaltyFn optionally overrides the performance penalty d(s,a). The
	// default is the queue backlog (paper Section III-B). The CPU case
	// study sets it to 1 when the SR is issuing requests and the SP is
	// asleep.
	PenaltyFn func(st State, cmd int) float64

	// LossFn optionally overrides the request-loss metric. The default is
	// the paper's indicator: 1 iff the SR issues requests and the queue is
	// full.
	LossFn func(st State, cmd int) float64

	// ExtraMetrics registers additional named metrics evaluated per
	// (state, command).
	ExtraMetrics map[string]func(st State, cmd int) float64

	// HookTag canonically identifies the behavioral hooks above (SPRow,
	// PenaltyFn, LossFn, ExtraMetrics) for content fingerprinting. Closures
	// cannot be serialized, so a system that sets any hook must also carry a
	// tag that names the hook semantics — including a version marker and any
	// parameters the closures capture beyond the SP/SR data (e.g.
	// "cpu-wake-on-request/v1"). Fingerprint returns an error for hooked
	// systems without one. Hook-free systems may leave it empty.
	HookTag string
}

// NumStates returns |S_p|·|S_r|·(Q+1).
func (sys *System) NumStates() int {
	return sys.SP.N() * sys.SR.N() * (sys.QueueCap + 1)
}

// Index maps a State triple to its flat index. Layout: SP major, then SR,
// then queue.
func (sys *System) Index(st State) int {
	nq := sys.QueueCap + 1
	return (st.SP*sys.SR.N()+st.SR)*nq + st.Q
}

// StateOf inverts Index.
func (sys *System) StateOf(i int) State {
	nq := sys.QueueCap + 1
	q := i % nq
	i /= nq
	r := i % sys.SR.N()
	p := i / sys.SR.N()
	return State{SP: p, SR: r, Q: q}
}

// StateName renders state i as "(spName,srName,q)".
func (sys *System) StateName(i int) string {
	st := sys.StateOf(i)
	return fmt.Sprintf("(%s,%s,%d)", sys.SP.StateNames()[st.SP], sys.SR.States[st.SR], st.Q)
}

// Validate checks both components and the queue capacity.
func (sys *System) Validate() error {
	if sys.SP == nil || sys.SR == nil {
		return fmt.Errorf("core: system %q missing SP or SR", sys.Name)
	}
	if err := sys.SP.Validate(); err != nil {
		return err
	}
	if err := sys.SR.Validate(); err != nil {
		return err
	}
	if sys.QueueCap < 0 {
		return fmt.Errorf("core: system %q has negative queue capacity", sys.Name)
	}
	return nil
}

// Model is a compiled System: the composed controlled Markov chain (one
// transition matrix per command, paper Eq. 4) plus all cost metrics
// tabulated per (state, command).
type Model struct {
	Sys *System
	// N is the number of composed states; A the number of commands.
	N, A int
	// P[a] is the N×N transition matrix of the system under command a, in
	// compressed-sparse-row form. Composed DPM chains are extremely sparse
	// (the queue law of Eq. 3 is banded, the component chains have tiny
	// out-degrees), so a dense |S|×|S| matrix per command is never
	// materialized — on large compositions that dense family alone would
	// dwarf every other allocation in the pipeline.
	P []*mat.CSR
	// Metrics maps metric name → N×A value table.
	Metrics map[string]*mat.Matrix
}

// Build compiles the system into its composed controlled Markov chain.
// Following the paper's Example 3.5, the arrivals that drive the queue
// update in a slice are those of the destination SR state, and the queue
// drains at the service rate b of the current SP state under the issued
// command.
func (sys *System) Build() (*Model, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	n := sys.NumStates()
	a := sys.SP.A()
	m := &Model{
		Sys:     sys,
		N:       n,
		A:       a,
		P:       make([]*mat.CSR, a),
		Metrics: make(map[string]*mat.Matrix),
	}

	// composedRows yields rows in state order, so each command's chain is
	// appended straight into CSR arrays; the dense form is never
	// materialized.
	var sc rowScratch
	nnz := 0
	for cmd := 0; cmd < a; cmd++ {
		rowPtr := make([]int, 1, n+1)
		colIdx := make([]int, 0, nnz)
		vals := make([]float64, 0, nnz)
		err := sys.composedRows(cmd, &sc, func(_ int, cols []int, v []float64) error {
			colIdx = append(colIdx, cols...)
			vals = append(vals, v...)
			rowPtr = append(rowPtr, len(colIdx))
			return nil
		})
		if err != nil {
			return nil, err
		}
		m.P[cmd] = mat.NewCSR(n, n, rowPtr, colIdx, vals)
		if err := m.P[cmd].CheckStochastic(1e-9); err != nil {
			return nil, fmt.Errorf("core: composed matrix for command %q: %w", sys.SP.CommandNames()[cmd], err)
		}
		nnz = len(colIdx)
	}

	fns := sys.MetricFns()
	for name := range fns {
		m.Metrics[name] = mat.NewMatrix(n, a)
	}
	sys.tabulate(fns, m.Metrics)
	return m, nil
}

// rowScratch is composedRows' reusable working storage; one value serves
// every command of a compilation.
type rowScratch struct {
	hookCols, cols []int
	hookVals, vals []float64
	sr             *mat.CSR // the SR chain, row-sparse (built on first use)
}

// composedRows is the one generator of the composed chain of command cmd
// (paper Eq. 4), shared by Build and PatchModel. It calls emit once per
// composed state i, in ascending state order, with row i's nonzeros sorted
// by column and exact zeros dropped (lp.CompressRow). The slices passed to
// emit alias sc and are overwritten by the next row. The SP chain is
// consumed row-sparse through the Provider contract — for a factored
// composite that row comes straight out of a Kronecker-compiled CSR — and
// SPRow overrides are validated as they are used. The SR chain is consumed
// row-sparse too, and a queue row contributes only its (at most two)
// nonzeros, so a compilation costs O(the nonzeros it emits). Composed rows
// never hold duplicate columns: (pNext, rNext, qNext) ↔ j is one-to-one
// within a row.
func (sys *System) composedRows(cmd int, sc *rowScratch, emit func(i int, cols []int, vals []float64) error) error {
	nsp, nsr, nq := sys.SP.N(), sys.SR.N(), sys.QueueCap+1
	chain := sys.SP.Chain(cmd)
	if chain.Rows() != nsp || chain.Cols() != nsp {
		return fmt.Errorf("core: provider %q chain for command %d is %dx%d, want %dx%d",
			sys.SP.ProviderName(), cmd, chain.Rows(), chain.Cols(), nsp, nsp)
	}
	if sc.sr == nil {
		sc.sr = mat.FromDense(sys.SR.P)
	}
	for p := 0; p < nsp; p++ {
		b := sys.SP.RateAt(p, cmd)
		chainCols, chainVals := chain.RowNZ(p)
		for r := 0; r < nsr; r++ {
			srCols, srVals := sc.sr.RowNZ(r)
			spCols, spVals := chainCols, chainVals
			if sys.SPRow != nil {
				if row := sys.SPRow(p, cmd, r); row != nil {
					if len(row) != nsp {
						return fmt.Errorf("core: SPRow override returned %d entries, want %d", len(row), nsp)
					}
					if !row.IsDistribution(1e-9) {
						return fmt.Errorf("core: SPRow override for (%s,%s,%s) is not a distribution",
							sys.SP.StateNames()[p], sys.SP.CommandNames()[cmd], sys.SR.States[r])
					}
					sc.hookCols, sc.hookVals = sc.hookCols[:0], sc.hookVals[:0]
					for pNext, v := range row {
						if v != 0 {
							sc.hookCols = append(sc.hookCols, pNext)
							sc.hookVals = append(sc.hookVals, v)
						}
					}
					spCols, spVals = sc.hookCols, sc.hookVals
				}
			}
			for q := 0; q < nq; q++ {
				i := sys.Index(State{SP: p, SR: r, Q: q})
				sc.cols, sc.vals = sc.cols[:0], sc.vals[:0]
				for kr, rNext := range srCols {
					srP := srVals[kr]
					qCols, qVals, qn := queueStep(sys.QueueCap, q, b, sys.SR.Requests[rNext])
					for k, pNext := range spCols {
						base := spVals[k] * srP
						for t := range qn {
							sc.cols = append(sc.cols, sys.Index(State{SP: pNext, SR: rNext, Q: qCols[t]}))
							sc.vals = append(sc.vals, base*qVals[t])
						}
					}
				}
				cols, vals := lp.CompressRow(sc.cols, sc.vals)
				if err := emit(i, cols, vals); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// tabulate fills tables[name] — an N×A table for every metric of fns — by
// evaluating the on-demand evaluators at every (state, command), decoding
// each state once. Model consumers get O(1) lookups; Model-free consumers
// (the factored evaluation and simulation paths) call the same MetricFns
// directly, so the two paths compute bit-identical values.
func (sys *System) tabulate(fns map[string]MetricFn, tables map[string]*mat.Matrix) {
	type column struct {
		fn MetricFn
		t  *mat.Matrix
	}
	cols := make([]column, 0, len(fns))
	for name, fn := range fns {
		cols = append(cols, column{fn, tables[name]})
	}
	for i := 0; i < sys.NumStates(); i++ {
		st := sys.StateOf(i)
		for _, c := range cols {
			row := c.t.Row(i)
			for cmd := range row {
				row[cmd] = c.fn(st, cmd)
			}
		}
	}
}

// MetricFn evaluates one metric at a (state, command) pair.
type MetricFn func(st State, cmd int) float64

// MetricFns returns on-demand evaluators for every metric Build tabulates —
// the built-ins (power, penalty, loss, drops, service) with the system's
// hook overrides applied, plus ExtraMetrics. Build fills its Model.Metrics
// tables from exactly these functions; Model-free consumers evaluate them
// per visited state instead, paying O(1) memory rather than O(|S|·|A|)
// tables.
func (sys *System) MetricFns() map[string]MetricFn {
	sr := mat.FromDense(sys.SR.P)
	fns := map[string]MetricFn{
		MetricPower: func(st State, cmd int) float64 {
			return sys.SP.PowerAt(st.SP, cmd)
		},
		MetricService: func(st State, cmd int) float64 {
			return sys.SP.RateAt(st.SP, cmd)
		},
		MetricPenalty: func(st State, cmd int) float64 {
			if sys.PenaltyFn != nil {
				return sys.PenaltyFn(st, cmd)
			}
			return float64(st.Q)
		},
		MetricLoss: func(st State, cmd int) float64 {
			if sys.LossFn != nil {
				return sys.LossFn(st, cmd)
			}
			if sys.SR.Requests[st.SR] > 0 && st.Q == sys.QueueCap {
				return 1
			}
			return 0
		},
		// Expected drops in the upcoming transition: arrivals follow the
		// destination SR state (composition semantics, Eq. 4).
		MetricDrops: func(st State, cmd int) float64 {
			b := sys.SP.RateAt(st.SP, cmd)
			exp := 0.0
			cols, vals := sr.RowNZ(st.SR)
			for k, rNext := range cols {
				exp += vals[k] * LostRequests(sys.QueueCap, st.Q, b, sys.SR.Requests[rNext])
			}
			return exp
		},
	}
	for name, fn := range sys.ExtraMetrics {
		fns[name] = fn
	}
	return fns
}

// Metric returns the named metric table or an error listing the available
// names.
func (m *Model) Metric(name string) (*mat.Matrix, error) {
	t, ok := m.Metrics[name]
	if !ok {
		names := make([]string, 0, len(m.Metrics))
		for k := range m.Metrics {
			names = append(names, k)
		}
		return nil, fmt.Errorf("core: unknown metric %q (have %v)", name, names)
	}
	return t, nil
}

// Delta returns the length-n distribution concentrated on state i.
func Delta(n, i int) mat.Vector {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("core: Delta index %d outside [0,%d)", i, n))
	}
	v := mat.NewVector(n)
	v[i] = 1
	return v
}

// Uniform returns the uniform distribution over n states.
func Uniform(n int) mat.Vector {
	v := mat.NewVector(n)
	for i := range v {
		v[i] = 1 / float64(n)
	}
	return v
}
