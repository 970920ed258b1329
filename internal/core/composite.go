package core

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/mat"
)

// Composite is the factored form of a network of independent service
// providers (paper Section VII): the parts evolve independently given their
// own commands, the power manager issues one command per part each slice,
// power adds across parts, and the joint service rate is supplied by Rate
// (it is system-specific — a parallel-server queue saturates, a two-
// processor web server follows a throughput table).
//
// Unlike the legacy CompositeSP — which eagerly enumerates the joint chain
// into dense |S|×|S| matrices and dense |S|×|A| rate/power tables — Build
// *compiles* the composite, and lazily: it stores only the per-part CSR
// chains, rate/power evaluate on demand from the factors, and a joint
// per-command transition matrix is expanded to its Kronecker-product CSR
// (mat.KronAll) only if and when someone asks for it via Chain. Consumers
// that evaluate or simulate — matvecs via Op, stepping via SampleNext —
// never trigger the expansion, so their footprint scales with Σ nnz(partᵢ)
// rather than Π nnzᵢ.
//
// The joint command space A = Π aᵢ grows just as fast, and most of it is
// junk — real power managers do not retarget every device every slice. Two
// masking hooks tame it: PartCommands restricts each part to a subset of its
// own commands before the cross product is formed, and Allow prunes
// individual joint combinations (e.g. "at most one part may be commanded to
// transition per slice"). Both shrink the compiled model's command dimension
// — and with it every per-command chain and every LP column block.
//
// Index conventions match CompositeSP: part 0 varies fastest in both the
// joint state index and the joint command index, and joint names join the
// part names with "+".
type Composite struct {
	// Name identifies the composite in diagnostics.
	Name string
	// Parts are the component providers. They are referenced, not copied;
	// callers must not mutate them after Build.
	Parts []*ServiceProvider
	// Rate combines per-part state and command indices into the joint
	// service rate b(s,a) ∈ [0,1]. The slices are shared scratch owned by
	// the compiled provider; implementations must not retain or mutate them.
	Rate func(states, cmds []int) float64
	// RateTag canonically identifies Rate for content fingerprinting
	// (closures cannot be serialized — same contract as System.HookTag).
	// Required only when the compiled provider is fingerprinted.
	RateTag string

	// PartCommands optionally restricts part i to the given subset of its
	// command indices before the joint cross product is formed. A nil outer
	// slice (or a nil entry) keeps every command of the corresponding part;
	// a non-nil empty entry is an error — it would leave the part
	// uncommandable.
	PartCommands [][]int
	// Allow optionally prunes joint commands: a combination (one original
	// command index per part) is compiled only when Allow returns true. The
	// slice is shared scratch; implementations must not retain or mutate it.
	// Masking every joint command is an error.
	Allow func(cmds []int) bool
	// AllowTag canonically identifies Allow for content fingerprinting,
	// like RateTag. Required at fingerprint time only when Allow is set.
	AllowTag string
}

// FactoredSP is a compiled Composite: a Provider whose per-command joint
// chains stay *factored* — Build stores only the per-part CSR factors, and
// the expanded Kronecker-product CSR of a joint command is compiled lazily,
// on first Chain(a) call, then cached. Evaluation and simulation never need
// the expansion: Op hands out the lazy mat.KronOp over the factors and
// SampleNext steps the joint chain one part at a time, so those paths hold
// O(Σ nnz(partᵢ) + k·(|S|+|A|)) memory — no joint CSR, no dense |S|×|S| or
// |S|×|A| table.
type FactoredSP struct {
	name     string
	parts    []*ServiceProvider
	rate     func(states, cmds []int) float64
	rateTag  string
	allowTag string
	masked   bool // Allow was set (fingerprinting must record it)

	states []string // joint state names, part 0 fastest
	cmds   []string // masked joint command names

	stateIdx [][]int // per joint state, the per-part state indices
	cmdIdx   [][]int // per joint command, the per-part (original) command indices

	factors [][]*mat.CSR  // per joint command, the part chains reversed (part k-1 first, so part 0 varies fastest)
	ops     []*mat.KronOp // per joint command, the shared sampling operator (RowSample is stateless)
	chains  []*mat.CSR    // per joint command, the lazily compiled expanded chain
	chainMu []sync.Once   // compile-once guards for chains
}

// Build compiles the composite into its factored provider. All validation
// happens here — part consistency, mask well-formedness, stochasticity of
// the compressed part chains (which implies it for any lazily expanded
// joint chain), and the combined rate staying inside [0,1] — so the
// returned provider's Validate is cheap.
func (c *Composite) Build() (*FactoredSP, error) {
	if len(c.Parts) == 0 {
		return nil, fmt.Errorf("core: composite %q needs at least one part", c.Name)
	}
	if c.Rate == nil {
		return nil, fmt.Errorf("core: composite %q needs a service-rate combiner", c.Name)
	}
	if c.PartCommands != nil && len(c.PartCommands) != len(c.Parts) {
		return nil, fmt.Errorf("core: composite %q has %d command subsets for %d parts",
			c.Name, len(c.PartCommands), len(c.Parts))
	}
	k := len(c.Parts)
	for i, p := range c.Parts {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("core: composite part %d: %w", i, err)
		}
	}

	// Resolve the per-part command subsets.
	allowed := make([][]int, k)
	for i, p := range c.Parts {
		if c.PartCommands == nil || c.PartCommands[i] == nil {
			all := make([]int, p.A())
			for a := range all {
				all[a] = a
			}
			allowed[i] = all
			continue
		}
		sub := c.PartCommands[i]
		if len(sub) == 0 {
			return nil, fmt.Errorf("core: composite %q: command mask excludes every command of part %d (%s)",
				c.Name, i, p.Name)
		}
		seen := make(map[int]bool, len(sub))
		for _, a := range sub {
			if a < 0 || a >= p.A() {
				return nil, fmt.Errorf("core: composite %q: part %d (%s) has no command %d",
					c.Name, i, p.Name, a)
			}
			if seen[a] {
				return nil, fmt.Errorf("core: composite %q: part %d (%s) command %d repeated in mask",
					c.Name, i, p.Name, a)
			}
			seen[a] = true
		}
		allowed[i] = append([]int(nil), sub...)
	}

	// Joint states: cross product, part 0 fastest. The per-part index table
	// doubles as the decode cache RateAt/PowerAt use.
	nStates := 1
	for _, p := range c.Parts {
		nStates *= p.N()
	}
	states := make([]string, nStates)
	stateIdx := make([][]int, nStates)
	names := make([]string, k)
	for s := 0; s < nStates; s++ {
		idx := make([]int, k)
		rem := s
		for i, p := range c.Parts {
			idx[i] = rem % p.N()
			rem /= p.N()
			names[i] = p.States[idx[i]]
		}
		stateIdx[s] = idx
		states[s] = strings.Join(names, "+")
	}

	// Joint commands: cross product of the per-part subsets (part 0
	// fastest over subset positions), pruned by Allow. Part chains are
	// compressed once per (part, allowed command) and reused across every
	// joint command that selects them.
	partChains := make([]map[int]*mat.CSR, k)
	for i, p := range c.Parts {
		partChains[i] = make(map[int]*mat.CSR, len(allowed[i]))
		for _, a := range allowed[i] {
			partChains[i][a] = mat.FromDense(p.P[a])
		}
	}
	nCombos := 1
	for _, sub := range allowed {
		nCombos *= len(sub)
	}
	var cmds []string
	var cmdIdx [][]int
	var factors [][]*mat.CSR
	combo := make([]int, k)
	for jc := 0; jc < nCombos; jc++ {
		rem := jc
		for i := range c.Parts {
			combo[i] = allowed[i][rem%len(allowed[i])]
			rem /= len(allowed[i])
		}
		if c.Allow != nil && !c.Allow(combo) {
			continue
		}
		idx := append([]int(nil), combo...)
		fs := make([]*mat.CSR, k) // reversed: part k-1 first, so part 0 varies fastest
		for i := range c.Parts {
			names[i] = c.Parts[i].Commands[idx[i]]
			fs[k-1-i] = partChains[i][idx[i]]
		}
		cmdIdx = append(cmdIdx, idx)
		cmds = append(cmds, strings.Join(names, "+"))
		factors = append(factors, fs)
	}
	if len(cmds) == 0 {
		return nil, fmt.Errorf("core: composite %q: command mask excludes every joint command", c.Name)
	}
	// Per-part stochasticity on the compressed factors (a Kronecker product
	// of stochastic factors is stochastic, so the expanded chains — compiled
	// lazily, if ever — need no separate check).
	for i, pc := range partChains {
		for a, ch := range pc {
			if err := ch.CheckStochastic(1e-9); err != nil {
				return nil, fmt.Errorf("core: composite %q: part %d (%s) chain for command %q: %w",
					c.Name, i, c.Parts[i].Name, c.Parts[i].Commands[a], err)
			}
		}
	}
	ops := make([]*mat.KronOp, len(factors))
	for a, fs := range factors {
		ops[a] = mat.NewKronOp(fs...)
	}

	f := &FactoredSP{
		name:     c.Name,
		parts:    c.Parts,
		rate:     c.Rate,
		rateTag:  c.RateTag,
		allowTag: c.AllowTag,
		masked:   c.Allow != nil,
		states:   states,
		cmds:     cmds,
		stateIdx: stateIdx,
		cmdIdx:   cmdIdx,
		factors:  factors,
		ops:      ops,
		chains:   make([]*mat.CSR, len(cmds)),
		chainMu:  make([]sync.Once, len(cmds)),
	}
	// Validate the combined rate over the whole (state, command) space once,
	// without tabulating it: O(|S|·|A|) time, O(1) extra space.
	for s := 0; s < f.N(); s++ {
		for a := 0; a < f.A(); a++ {
			if b := f.RateAt(s, a); b < 0 || b > 1 {
				return nil, fmt.Errorf("core: composite %q: combined service rate %g outside [0,1] at state %q command %q",
					c.Name, b, f.states[s], f.cmds[a])
			}
		}
	}
	return f, nil
}

// ProviderName returns the composite's name.
func (f *FactoredSP) ProviderName() string { return f.name }

// N returns the number of joint states (the product of the part sizes).
func (f *FactoredSP) N() int { return len(f.states) }

// A returns the number of compiled (mask-surviving) joint commands.
func (f *FactoredSP) A() int { return len(f.cmds) }

// StateNames returns the joint state names; callers must not mutate them.
func (f *FactoredSP) StateNames() []string { return f.states }

// CommandNames returns the compiled joint command names; callers must not
// mutate them.
func (f *FactoredSP) CommandNames() []string { return f.cmds }

// CommandIndex returns the index of the named joint command, or -1.
func (f *FactoredSP) CommandIndex(name string) int {
	for i, c := range f.cmds {
		if c == name {
			return i
		}
	}
	return -1
}

// Chain returns the expanded Kronecker-product CSR chain of joint command a,
// compiling it on first use (guarded per command, so concurrent callers —
// e.g. server goroutines sharing a registered provider — compile each chain
// exactly once). The matrix is shared; callers must not mutate it.
//
// Only consumers that genuinely need the expanded joint CSR (System.Build's
// Model compilation, the LP assembly) should call this: evaluation and
// simulation paths take Op and SampleNext instead, which never expand.
func (f *FactoredSP) Chain(a int) *mat.CSR {
	f.chainMu[a].Do(func() { f.chains[a] = mat.KronAll(f.factors[a]...) })
	return f.chains[a]
}

// Op returns a fresh lazy Kronecker operator over joint command a's part
// chains: matvecs cost Σᵢ nnz(partᵢ)·(|S|/|Sᵢ|) and row samples
// O(Σᵢ out-degreeᵢ), with no joint CSR ever compiled. Each call returns a
// new operator (the matvec scratch is per-instance, so distinct callers can
// apply concurrently); the factors themselves are shared and read-only.
func (f *FactoredSP) Op(a int) *mat.KronOp { return mat.NewKronOp(f.factors[a]...) }

// SampleNext draws the joint successor of state s under joint command a by
// sampling each part's row independently (one inverse-CDF walk per part, in
// part order k-1..0 of the factor list — i.e. slowest joint digit first),
// consuming one uniform from u per part. Allocation-free and safe for
// concurrent use.
func (f *FactoredSP) SampleNext(s, a int, u func() float64) int {
	return f.ops[a].RowSample(s, u)
}

// CompiledChains reports how many joint commands have had their expanded
// CSR chain compiled — 0 proves a workload ran fully factored.
func (f *FactoredSP) CompiledChains() int {
	n := 0
	for i := range f.chains {
		if f.chains[i] != nil {
			n++
		}
	}
	return n
}

// RateAt evaluates the combined service rate b(s,a) from the factors.
func (f *FactoredSP) RateAt(s, a int) float64 { return f.rate(f.stateIdx[s], f.cmdIdx[a]) }

// PowerAt returns the joint power c(s,a): the sum over parts.
func (f *FactoredSP) PowerAt(s, a int) float64 {
	pw := 0.0
	for i, p := range f.parts {
		pw += p.Power.At(f.stateIdx[s][i], f.cmdIdx[a][i])
	}
	return pw
}

// Validate reports structural problems. A FactoredSP can only be obtained
// from Composite.Build, which validates parts, mask, chains and rates
// exhaustively, so only the cheap invariants are rechecked here.
func (f *FactoredSP) Validate() error {
	if len(f.states) == 0 || len(f.cmds) == 0 {
		return fmt.Errorf("core: factored provider %q is empty", f.name)
	}
	if len(f.chains) != len(f.cmds) || len(f.cmdIdx) != len(f.cmds) {
		return fmt.Errorf("core: factored provider %q has inconsistent command tables", f.name)
	}
	return nil
}

// WriteCanonical writes the factored provider's canonical serialization:
// the parts in order, the compiled joint command list, and the tags naming
// the rate combiner and the mask predicate. Like System.HookTag, the tags
// stand in for closures; a missing RateTag (or a masked composite without an
// AllowTag) is an error rather than a silent collision between behaviorally
// different composites.
func (f *FactoredSP) WriteCanonical(w io.Writer) error {
	if f.rateTag == "" {
		return fmt.Errorf("core: factored provider %q has no RateTag; set one to make it fingerprintable", f.name)
	}
	if f.masked && f.allowTag == "" {
		return fmt.Errorf("core: factored provider %q has a joint-command mask but no AllowTag; set one to make it fingerprintable", f.name)
	}
	c := &cw{w: w}
	c.str("fsp", f.name)
	c.str("ratetag", f.rateTag)
	c.str("allowtag", f.allowTag)
	c.count("parts", len(f.parts))
	if err := c.flush(); err != nil {
		return err
	}
	for _, p := range f.parts {
		if err := p.WriteCanonical(w); err != nil {
			return err
		}
	}
	// The compiled command list captures PartCommands and the concrete
	// effect of Allow, so equal fingerprints imply identical chains.
	c.count("jointcmds", len(f.cmdIdx))
	for _, idx := range f.cmdIdx {
		c.count("jc", len(idx))
		for _, a := range idx {
			c.count("a", a)
		}
	}
	return c.flush()
}
