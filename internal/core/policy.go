package core

import (
	"fmt"
	"math"

	"repro/internal/markov"
	"repro/internal/mat"
)

// Policy is a Markov stationary randomized policy (paper Definitions
// 3.5–3.7): row s of the matrix is the probability distribution over
// commands issued when the system is in state s. Deterministic Markov
// stationary policies are the special case with one unit entry per row.
type Policy struct {
	// M is the N×A matrix of command probabilities π(s,a).
	M *mat.Matrix
}

// NewPolicy wraps an N×A stochastic matrix as a policy after validation.
func NewPolicy(m *mat.Matrix) (*Policy, error) {
	p := &Policy{M: m}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// DeterministicPolicy builds the policy that issues commands[s] in state s
// with probability one (the compact vector representation of the paper's
// class D of deterministic Markov stationary policies).
func DeterministicPolicy(commands []int, numCommands int) (*Policy, error) {
	m := mat.NewMatrix(len(commands), numCommands)
	for s, c := range commands {
		if c < 0 || c >= numCommands {
			return nil, fmt.Errorf("core: command %d for state %d outside [0,%d)", c, s, numCommands)
		}
		m.Set(s, c, 1)
	}
	return &Policy{M: m}, nil
}

// ConstantPolicy issues the same command in every state (the paper's
// "trivial constant policy" of Example 3.4).
func ConstantPolicy(numStates, numCommands, command int) (*Policy, error) {
	cmds := make([]int, numStates)
	for i := range cmds {
		cmds[i] = command
	}
	return DeterministicPolicy(cmds, numCommands)
}

// N returns the number of states the policy covers.
func (p *Policy) N() int { return p.M.Rows }

// A returns the number of commands.
func (p *Policy) A() int { return p.M.Cols }

// Validate checks that every row is a probability distribution.
func (p *Policy) Validate() error {
	if p.M == nil {
		return fmt.Errorf("core: nil policy matrix")
	}
	if err := p.M.CheckStochastic(1e-7); err != nil {
		return fmt.Errorf("core: policy: %w", err)
	}
	return nil
}

// RandomizedStates returns the indices of states whose command distribution
// is genuinely randomized (no command has probability ≥ 1−tol). Theorem A.2
// predicts these are nonempty exactly when a constraint is active.
func (p *Policy) RandomizedStates(tol float64) []int {
	var out []int
	for s := 0; s < p.N(); s++ {
		if p.M.Row(s).Max() < 1-tol {
			out = append(out, s)
		}
	}
	return out
}

// CommandDist returns the command distribution in state s (aliases internal
// storage; callers must not mutate).
func (p *Policy) CommandDist(s int) mat.Vector { return p.M.Row(s) }

// Chain composes the model's per-command transition matrices with the
// policy: P^π = Σ_a π(s,a) P_a(s,·) rowwise (paper Eq. 5). The composition
// stays sparse end to end: weighted sparse rows accumulate into a triplet
// builder and the chain is validated on its CSR form.
func (p *Policy) Chain(m *Model) (*markov.Chain, error) {
	if p.N() != m.N || p.A() != m.A {
		return nil, fmt.Errorf("core: policy is %dx%d, model wants %dx%d", p.N(), p.A(), m.N, m.A)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	trip := mat.NewTriplet(m.N, m.N)
	for s := 0; s < m.N; s++ {
		dist := p.CommandDist(s)
		for a := 0; a < m.A; a++ {
			w := dist[a]
			if w == 0 {
				continue
			}
			cols, vals := m.P[a].RowNZ(s)
			for k, j := range cols {
				trip.Add(s, j, w*vals[k])
			}
		}
	}
	return markov.NewCSR(trip.ToCSR(), 1e-7)
}

// MetricVector collapses an N×A metric table under the policy:
// out[s] = Σ_a π(s,a)·metric(s,a).
func (p *Policy) MetricVector(table *mat.Matrix) mat.Vector {
	out := mat.NewVector(p.N())
	for s := 0; s < p.N(); s++ {
		out[s] = p.CommandDist(s).Dot(table.Row(s))
	}
	return out
}

// Evaluation holds the exact (analytic) metrics of a policy on a model
// under the discounted session model: per-slice averages over the
// discounted occupancy measure, which the paper's optimizer reports and its
// simulation engine cross-checks.
type Evaluation struct {
	// Alpha is the discount factor used.
	Alpha float64
	// Occupancy is the normalized discounted state-occupancy measure
	// (sums to one).
	Occupancy mat.Vector
	// Averages maps metric name → expected per-slice value
	// Σ_s y(s) Σ_a π(s,a) metric(s,a).
	Averages map[string]float64
}

// Average returns the named per-slice average, or NaN when absent.
func (e *Evaluation) Average(name string) float64 {
	v, ok := e.Averages[name]
	if !ok {
		return math.NaN()
	}
	return v
}

// Evaluate computes the exact discounted per-slice averages of every model
// metric under the policy, starting from initial distribution q0.
func Evaluate(m *Model, p *Policy, q0 mat.Vector, alpha float64) (*Evaluation, error) {
	if len(q0) != m.N {
		return nil, fmt.Errorf("core: initial distribution has %d entries, want %d", len(q0), m.N)
	}
	chain, err := p.Chain(m)
	if err != nil {
		return nil, err
	}
	occ, err := chain.DiscountedOccupancy(q0, alpha)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{Alpha: alpha, Occupancy: occ, Averages: make(map[string]float64, len(m.Metrics))}
	for name, table := range m.Metrics {
		ev.Averages[name] = occ.Dot(p.MetricVector(table))
	}
	return ev, nil
}
