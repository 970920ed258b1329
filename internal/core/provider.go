package core

import (
	"fmt"
	"io"

	"repro/internal/mat"
)

// Provider is the service-provider contract the composition pipeline and the
// tools consume: a finite controlled Markov chain exposed command-by-command
// in sparse form, per-(state, command) service rate and power, naming for
// diagnostics, and a canonical serialization for content fingerprinting.
//
// Two implementations exist: *ServiceProvider, the explicit (dense-tabled)
// form every paper case study uses, and *FactoredSP, the Kronecker-factored
// form a Composite compiles to, whose joint chain is assembled sparsely and
// whose rate/power are evaluated on demand — never tabulated densely. System
// composition (System.Build) works against this interface only, so the two
// forms are interchangeable everywhere a system is built, solved, served, or
// simulated.
type Provider interface {
	// ProviderName identifies the provider in diagnostics.
	ProviderName() string
	// N is the number of states; A the number of commands.
	N() int
	A() int
	// StateNames and CommandNames return the vocabularies; callers must not
	// mutate the returned slices.
	StateNames() []string
	CommandNames() []string
	// CommandIndex returns the index of the named command, or -1.
	CommandIndex(name string) int
	// Chain returns the transition matrix under command a in CSR form. The
	// returned matrix may be shared; callers must not mutate it.
	Chain(a int) *mat.CSR
	// RateAt returns the service rate b(s,a) in [0,1].
	RateAt(s, a int) float64
	// PowerAt returns the power consumption c(s,a).
	PowerAt(s, a int) float64
	// Validate checks structural consistency.
	Validate() error
	// WriteCanonical writes the deterministic, parameter-complete byte
	// encoding used for content fingerprinting (see fingerprint.go).
	WriteCanonical(w io.Writer) error
}

// ServiceProvider is the resource under power management (paper
// Definition 3.1): a stationary controlled Markov process with one
// transition matrix per power-manager command, a service rate b(s,a) — the
// probability of completing one request in a time slice — and a power
// consumption c(s,a) for every (state, command) pair.
type ServiceProvider struct {
	// Name identifies the provider in diagnostics.
	Name string
	// States names the SP states; len(States) is the state count.
	States []string
	// Commands names the power-manager commands; len(Commands) is the
	// command count.
	Commands []string
	// P holds one row-stochastic transition matrix per command;
	// P[a].At(s, s') is the probability of moving from state s to s' in one
	// slice when command a is asserted.
	P []*mat.Matrix
	// ServiceRate is the S×A matrix of service rates b(s,a) in [0,1].
	ServiceRate *mat.Matrix
	// Power is the S×A matrix of power consumptions c(s,a) (arbitrary
	// units, typically Watts).
	Power *mat.Matrix
}

// N returns the number of SP states.
func (sp *ServiceProvider) N() int { return len(sp.States) }

// A returns the number of commands.
func (sp *ServiceProvider) A() int { return len(sp.Commands) }

// ProviderName returns the provider's name.
func (sp *ServiceProvider) ProviderName() string { return sp.Name }

// StateNames returns the state vocabulary.
func (sp *ServiceProvider) StateNames() []string { return sp.States }

// CommandNames returns the command vocabulary.
func (sp *ServiceProvider) CommandNames() []string { return sp.Commands }

// Chain returns the transition matrix under command a compressed to CSR.
func (sp *ServiceProvider) Chain(a int) *mat.CSR { return mat.FromDense(sp.P[a]) }

// RateAt returns the service rate b(s,a).
func (sp *ServiceProvider) RateAt(s, a int) float64 { return sp.ServiceRate.At(s, a) }

// PowerAt returns the power consumption c(s,a).
func (sp *ServiceProvider) PowerAt(s, a int) float64 { return sp.Power.At(s, a) }

// CommandIndex returns the index of the named command, or -1.
func (sp *ServiceProvider) CommandIndex(name string) int {
	for i, c := range sp.Commands {
		if c == name {
			return i
		}
	}
	return -1
}

// Validate checks structural consistency: matching dimensions, stochastic
// rows, service rates in [0,1].
func (sp *ServiceProvider) Validate() error {
	n, a := sp.N(), sp.A()
	if n == 0 {
		return fmt.Errorf("core: provider %q has no states", sp.Name)
	}
	if a == 0 {
		return fmt.Errorf("core: provider %q has no commands", sp.Name)
	}
	if len(sp.P) != a {
		return fmt.Errorf("core: provider %q has %d transition matrices, want %d", sp.Name, len(sp.P), a)
	}
	for cmd, p := range sp.P {
		if p == nil {
			return fmt.Errorf("core: provider %q command %q has nil transition matrix", sp.Name, sp.Commands[cmd])
		}
		if p.Rows != n || p.Cols != n {
			return fmt.Errorf("core: provider %q command %q matrix is %dx%d, want %dx%d",
				sp.Name, sp.Commands[cmd], p.Rows, p.Cols, n, n)
		}
		if err := p.CheckStochastic(0); err != nil {
			return fmt.Errorf("core: provider %q command %q: %w", sp.Name, sp.Commands[cmd], err)
		}
	}
	for name, m := range map[string]*mat.Matrix{"ServiceRate": sp.ServiceRate, "Power": sp.Power} {
		if m == nil {
			return fmt.Errorf("core: provider %q has nil %s", sp.Name, name)
		}
		if m.Rows != n || m.Cols != a {
			return fmt.Errorf("core: provider %q %s is %dx%d, want %dx%d", sp.Name, name, m.Rows, m.Cols, n, a)
		}
	}
	for s := 0; s < n; s++ {
		for cmd := 0; cmd < a; cmd++ {
			b := sp.ServiceRate.At(s, cmd)
			if b < 0 || b > 1 {
				return fmt.Errorf("core: provider %q service rate b(%s,%s)=%g outside [0,1]",
					sp.Name, sp.States[s], sp.Commands[cmd], b)
			}
		}
	}
	return nil
}

// ExpectedTransitionTime returns the expected number of slices for the SP to
// first reach state `to` from state `from` when command cmd is asserted at
// every slice until the transition completes (paper Eq. 2 generalized to
// arbitrary chain structure via hitting times). This is used to verify
// device models against data-sheet transition times.
func (sp *ServiceProvider) ExpectedTransitionTime(from, to, cmd int) (float64, error) {
	if err := sp.Validate(); err != nil {
		return 0, err
	}
	n := sp.N()
	if from < 0 || from >= n || to < 0 || to >= n || cmd < 0 || cmd >= sp.A() {
		return 0, fmt.Errorf("core: ExpectedTransitionTime index out of range")
	}
	// Expected hitting time of {to} under the fixed-command chain, computed
	// by solving h = 1 + P h over non-target states.
	p := sp.P[cmd]
	free := make([]int, 0, n-1)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = -1
	}
	for i := 0; i < n; i++ {
		if i != to {
			idx[i] = len(free)
			free = append(free, i)
		}
	}
	m := len(free)
	a := mat.NewMatrix(m, m)
	b := mat.NewVector(m)
	for r, i := range free {
		b[r] = 1
		for j := 0; j < n; j++ {
			if j == to {
				continue
			}
			if v := p.At(i, j); v != 0 {
				a.Add(r, idx[j], -v)
			}
		}
		a.Add(r, r, 1)
	}
	sol, err := mat.Solve(a, b)
	if err != nil {
		return 0, fmt.Errorf("core: transition %s→%s under %s unreachable: %w",
			sp.States[from], sp.States[to], sp.Commands[cmd], err)
	}
	return sol[idx[from]], nil
}
