// Package sim is the simulation engine of the paper's policy-optimization
// tool (Section V, Fig. 7): a slotted-time stochastic simulator that runs a
// power-manager controller against either the Markov system model
// (model-driven mode, used to cross-check the optimizer's expected power and
// performance) or a recorded request trace (trace-driven mode, used to judge
// how well the Markov workload model represents reality — the circles of
// Figs. 8(b) and 9(a)).
//
// Metric accounting matches the optimizer's semantics exactly: at each slice
// the metrics of the current (state, command) pair accumulate, then the
// components advance — the SP row of the current state under the issued
// command, the SR chain, and the queue law of Eq. 3 driven by the service
// rate of the current SP state and the arrivals of the destination SR state.
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/policy"
)

// Config configures a Simulator.
type Config struct {
	// Seed seeds the simulation RNG (state sampling); controller sampling
	// uses the controller's own generator.
	Seed int64
	// Initial is the initial composed state of every run or session.
	Initial core.State
	// SRStateOf maps an arrival count to an SR state index for trace-driven
	// runs (the controller and the SP-coupling hook observe SR state, which
	// a trace does not carry). Nil maps count k to state min(k, |S_r|−1),
	// which is exact for the two-state requesters used throughout the paper.
	SRStateOf func(arrivals int) int
}

// Stats aggregates one simulation run.
type Stats struct {
	// Slices is the number of simulated time slices.
	Slices int64
	// Sessions is the number of sessions aggregated (1 for fixed-horizon
	// runs).
	Sessions int
	// Averages maps each model metric to its per-slice average — directly
	// comparable with the optimizer's Result.Averages and with
	// core.Evaluation.Averages.
	Averages map[string]float64
	// Arrived, Serviced and Lost count individual requests. Lost counts
	// actual dropped requests (arrivals beyond capacity), which is related
	// to but distinct from the loss-indicator average in Averages.
	Arrived, Serviced, Lost int64
	// AvgWait is the mean waiting time, in slices, of serviced requests
	// (0 when none were serviced).
	AvgWait float64
	// CommandCounts tallies issued commands.
	CommandCounts []int64
	// Occupancy is the fraction of slices spent in each composed state.
	Occupancy []float64
}

// Throughput returns serviced requests per slice.
func (s *Stats) Throughput() float64 {
	if s.Slices == 0 {
		return 0
	}
	return float64(s.Serviced) / float64(s.Slices)
}

// LossFraction returns the fraction of arrived requests that were dropped.
func (s *Stats) LossFraction() float64 {
	if s.Arrived == 0 {
		return 0
	}
	return float64(s.Lost) / float64(s.Arrived)
}

// metricEval computes one metric at a (state, command) pair. Model-backed
// simulators read the precomputed N×A tables by index; direct simulators
// evaluate the system's metric functions on the decoded state.
type metricEval func(idx int, st core.State, cmd int) float64

// Simulator runs a controller against a power-managed system — either a
// compiled Model (New) or the System itself, Model-free (NewDirect).
type Simulator struct {
	sys     *core.System
	ctrl    policy.Controller
	cfg     Config
	rng     *rand.Rand
	nCmds   int
	metrics map[string]metricEval
	// spChains caches the provider's per-command CSR chains for plain
	// providers: the step loop samples SP transitions from sparse rows
	// (Provider does not expose dense rows, and re-compressing per step
	// would dominate the run). nil when the provider is factored.
	spChains []*mat.CSR
	// fsp is set when the provider is a FactoredSP: SP transitions then
	// sample each part's row independently (one uniform per part, factor
	// order) instead of walking a joint row — O(Σ out-degreeᵢ) per step and
	// no joint CSR is ever compiled. Model-backed simulators use the same
	// per-part stepping, so lazy and eager runs share trajectories
	// bit for bit.
	fsp *core.FactoredSP
}

// validateConfig range-checks the initial state and installs the default
// arrival→SR-state quantizer.
func validateConfig(sys *core.System, cfg *Config) error {
	if cfg.Initial.SP < 0 || cfg.Initial.SP >= sys.SP.N() ||
		cfg.Initial.SR < 0 || cfg.Initial.SR >= sys.SR.N() ||
		cfg.Initial.Q < 0 || cfg.Initial.Q > sys.QueueCap {
		return fmt.Errorf("sim: initial state %+v out of range", cfg.Initial)
	}
	if cfg.SRStateOf == nil {
		maxSR := sys.SR.N() - 1
		cfg.SRStateOf = func(arrivals int) int {
			if arrivals > maxSR {
				return maxSR
			}
			return arrivals
		}
	}
	return nil
}

// newSimulator wires the parts shared by New and NewDirect: the SP stepping
// strategy (per-part for factored providers, cached sparse rows otherwise)
// and the RNG.
func newSimulator(sys *core.System, ctrl policy.Controller, cfg Config, metrics map[string]metricEval) *Simulator {
	s := &Simulator{
		sys:     sys,
		ctrl:    ctrl,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		nCmds:   sys.SP.A(),
		metrics: metrics,
	}
	if fsp, ok := sys.SP.(*core.FactoredSP); ok {
		s.fsp = fsp
	} else {
		s.spChains = make([]*mat.CSR, sys.SP.A())
		for a := range s.spChains {
			s.spChains[a] = sys.SP.Chain(a)
		}
	}
	return s
}

// New builds a simulator for the compiled model m driven by ctrl. Metrics
// come from the model's precomputed tables.
func New(m *core.Model, ctrl policy.Controller, cfg Config) (*Simulator, error) {
	sys := m.Sys
	if err := validateConfig(sys, &cfg); err != nil {
		return nil, err
	}
	metrics := make(map[string]metricEval, len(m.Metrics))
	for name, table := range m.Metrics {
		table := table
		metrics[name] = func(idx int, _ core.State, cmd int) float64 { return table.At(idx, cmd) }
	}
	return newSimulator(sys, ctrl, cfg, metrics), nil
}

// NewDirect builds a simulator straight from the system, without compiling a
// Model: metrics are evaluated on demand from core.MetricFns, and a factored
// provider steps per part — nothing Π|Sᵢ|-sized is ever allocated, so
// composites far beyond Build's reach simulate fine. The accounting is
// identical to the Model-backed path (MetricFns is what Build tabulates).
func NewDirect(sys *core.System, ctrl policy.Controller, cfg Config) (*Simulator, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := validateConfig(sys, &cfg); err != nil {
		return nil, err
	}
	metrics := make(map[string]metricEval, 8)
	for name, fn := range sys.MetricFns() {
		fn := fn
		metrics[name] = func(_ int, st core.State, cmd int) float64 { return fn(st, cmd) }
	}
	return newSimulator(sys, ctrl, cfg, metrics), nil
}

// run is the common loop. nextArrivals returns the arrival count of slice
// t+1 and the corresponding SR state, or done=true to stop.
type arrivalSource func(t int64) (arrivals int, srState int, done bool)

// accumulator tracks running sums for one or more sessions.
type accumulator struct {
	slices     int64
	metricSums map[string]float64
	arrived    int64
	serviced   int64
	lost       int64
	waitSum    int64
	cmdCounts  []int64
	occupancy  []int64
}

func (s *Simulator) newAccumulator() *accumulator {
	sums := make(map[string]float64, len(s.metrics))
	for name := range s.metrics {
		sums[name] = 0
	}
	return &accumulator{
		metricSums: sums,
		cmdCounts:  make([]int64, s.nCmds),
		occupancy:  make([]int64, s.sys.NumStates()),
	}
}

func (ac *accumulator) stats(sessions int) *Stats {
	st := &Stats{
		Slices:        ac.slices,
		Sessions:      sessions,
		Averages:      make(map[string]float64, len(ac.metricSums)),
		Arrived:       ac.arrived,
		Serviced:      ac.serviced,
		Lost:          ac.lost,
		CommandCounts: ac.cmdCounts,
		Occupancy:     make([]float64, len(ac.occupancy)),
	}
	if ac.slices > 0 {
		for name, sum := range ac.metricSums {
			st.Averages[name] = sum / float64(ac.slices)
		}
		for i, c := range ac.occupancy {
			st.Occupancy[i] = float64(c) / float64(ac.slices)
		}
	}
	if ac.serviced > 0 {
		st.AvgWait = float64(ac.waitSum) / float64(ac.serviced)
	}
	return st
}

// session simulates one session: from the initial state until src reports
// done. The queue is tracked as a FIFO of arrival timestamps so waiting
// times are exact.
func (s *Simulator) session(ac *accumulator, src arrivalSource) {
	sys := s.sys
	s.ctrl.Reset()
	st := s.cfg.Initial
	// Arrival timestamps of currently enqueued requests.
	fifo := make([]int64, 0, sys.QueueCap+1)
	for i := 0; i < st.Q; i++ {
		fifo = append(fifo, 0)
	}

	for t := int64(0); ; t++ {
		obs := policy.Observation{
			SP:       st.SP,
			SR:       st.SR,
			Queue:    st.Q,
			Requests: sys.SR.Requests[st.SR],
			Time:     t,
		}
		cmd := s.ctrl.Command(obs)
		if cmd < 0 || cmd >= s.nCmds {
			panic(fmt.Sprintf("sim: controller issued command %d outside [0,%d)", cmd, s.nCmds))
		}

		// Metric accounting at the current (state, command) pair.
		idx := sys.Index(st)
		for name, ev := range s.metrics {
			ac.metricSums[name] += ev(idx, st, cmd)
		}
		ac.cmdCounts[cmd]++
		ac.occupancy[idx]++
		ac.slices++

		// Advance the environment.
		arrivals, srNext, done := src(t)
		if done {
			return
		}

		// SP transition row for the *current* SR state (coupling hook).
		var spNext int
		if row := s.hookRow(st.SP, cmd, st.SR); row != nil {
			spNext = sampleRow(s.rng, row)
		} else if s.fsp != nil {
			spNext = s.fsp.SampleNext(st.SP, cmd, s.rng.Float64)
		} else {
			spNext = s.spChains[cmd].RowSample(st.SP, s.rng.Float64)
		}

		// Queue update per Eq. 3, with exact request accounting.
		b := sys.SP.RateAt(st.SP, cmd)
		ac.arrived += int64(arrivals)
		q := len(fifo)
		switch {
		case arrivals == 0 && q == 0:
			// Nothing to do.
		case arrivals == 0:
			if s.rng.Float64() < b {
				ac.serviced++
				ac.waitSum += t + 1 - fifo[0]
				fifo = fifo[1:]
			}
		case q+arrivals > sys.QueueCap:
			// Overflow corner case: the composed chain moves to q'=Q with
			// probability 1 (Eq. 3) whether or not a service completes this
			// slice — q+r−1 ≥ Q in every overflow — so the service event is
			// still drawn: it changes only the request accounting (one more
			// served, one fewer dropped), keeping the drop counter
			// consistent with the analytic MetricDrops table.
			remaining := arrivals
			if s.rng.Float64() < b {
				ac.serviced++
				if q > 0 {
					ac.waitSum += t + 1 - fifo[0]
					fifo = fifo[1:]
				} else {
					remaining-- // an incoming request is served directly
				}
			}
			space := sys.QueueCap - len(fifo)
			for i := 0; i < space && i < remaining; i++ {
				fifo = append(fifo, t+1)
			}
			if remaining > space {
				ac.lost += int64(remaining - space)
			}
		default:
			for i := 0; i < arrivals; i++ {
				fifo = append(fifo, t+1)
			}
			if s.rng.Float64() < b {
				ac.serviced++
				ac.waitSum += t + 1 - fifo[0]
				fifo = fifo[1:]
			}
		}

		st = core.State{SP: spNext, SR: srNext, Q: len(fifo)}
	}
}

// hookRow returns the SPRow override for (p, cmd, r), or nil when the
// system has no hook (or the hook defers to the commanded dynamics).
func (s *Simulator) hookRow(p, cmd, r int) mat.Vector {
	if s.sys.SPRow == nil {
		return nil
	}
	return s.sys.SPRow(p, cmd, r)
}

func sampleRow(rng *rand.Rand, row []float64) int {
	u := rng.Float64()
	for i, p := range row {
		u -= p
		if u <= 0 {
			return i
		}
	}
	return len(row) - 1
}

// Run simulates a single fixed-horizon session of the given number of
// slices in model-driven mode (the SR evolves by its Markov chain).
func (s *Simulator) Run(slices int64) (*Stats, error) {
	if slices <= 0 {
		return nil, fmt.Errorf("sim: horizon %d must be positive", slices)
	}
	ac := s.newAccumulator()
	sys := s.sys
	sr := s.cfg.Initial.SR
	s.session(ac, func(t int64) (int, int, bool) {
		if t+1 >= slices {
			return 0, 0, true
		}
		sr = sampleRow(s.rng, sys.SR.P.Row(sr))
		return sys.SR.Requests[sr], sr, false
	})
	return ac.stats(1), nil
}

// RunSessions simulates the paper's stopping-time model: sessions end with
// probability 1−alpha at each slice (geometric horizon, Fig. 5), and the
// reported averages aggregate over all sessions. This estimates the same
// quantities as the optimizer's discounted per-slice averages.
func (s *Simulator) RunSessions(alpha float64, sessions int) (*Stats, error) {
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("sim: alpha %g outside [0,1)", alpha)
	}
	if sessions <= 0 {
		return nil, fmt.Errorf("sim: session count %d must be positive", sessions)
	}
	ac := s.newAccumulator()
	sys := s.sys
	for i := 0; i < sessions; i++ {
		sr := s.cfg.Initial.SR
		s.session(ac, func(t int64) (int, int, bool) {
			if s.rng.Float64() >= alpha {
				return 0, 0, true
			}
			sr = sampleRow(s.rng, sys.SR.P.Row(sr))
			return sys.SR.Requests[sr], sr, false
		})
	}
	return ac.stats(sessions), nil
}

// RunTrace simulates one session driven by a discretized arrival trace:
// arrivals[t] requests arrive during slice t+1 (slice 0 starts from the
// configured initial state). The controller observes the quantized SR state
// given by Config.SRStateOf.
func (s *Simulator) RunTrace(arrivals []int) (*Stats, error) {
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("sim: empty trace")
	}
	for i, a := range arrivals {
		if a < 0 {
			return nil, fmt.Errorf("sim: negative arrival count %d at slice %d", a, i)
		}
	}
	ac := s.newAccumulator()
	s.session(ac, func(t int64) (int, int, bool) {
		if t >= int64(len(arrivals))-1 {
			return 0, 0, true
		}
		a := arrivals[t+1]
		return a, s.cfg.SRStateOf(a), false
	})
	return ac.stats(1), nil
}
