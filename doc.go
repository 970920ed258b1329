// Package repro is a Go reproduction of Benini, Bogliolo, Paleologo and
// De Micheli, "Policy Optimization for Dynamic Power Management" (DAC 1998;
// extended in IEEE TCAD 18(6), June 1999): stochastic modeling of
// power-managed systems as controlled Markov chains, and exact
// polynomial-time policy optimization via linear programming over
// state-action frequencies.
//
// This top-level package is a facade re-exporting the core modeling and
// optimization API; the implementation lives in the internal packages:
//
//   - internal/core — the paper's model (service provider / requester /
//     queue, composition, policies, LP2/LP3/LP4 policy optimization,
//     Pareto exploration);
//   - internal/lp — two-phase revised simplex over a column-sparse
//     constraint matrix behind one entry point, lp.Solver (see "Solver
//     architecture" below): the basis size picks the kernel — dense LU
//     with an eta file and Dantzig pricing for small bases, Markowitz-
//     ordered sparse LU with Forrest–Tomlin updates and Devex pricing for
//     large ones — plus optimal-basis export/import (lp.Basis) so the
//     closely related LPs of a Pareto sweep warm-start each other, with
//     dual-simplex restoration when a bound change breaks feasibility, and
//     resident re-solves (lp.Resident) that keep one LP's standard form and
//     basis factorization across rhs-only changes; a per-solve
//     flight recorder (lp.WithMonitor) streams read-only iteration
//     snapshots — pivots, objective, infeasibilities, and the sparse
//     kernel's numerical-health counters (mat.HealthStats) — without
//     perturbing the pivot trajectory; lp.CertifyExact reads a returned
//     basis in exact rational arithmetic and proves it optimal, the
//     oracle the tests hold every solver configuration to;
//   - internal/sweep — the concurrent sweep engine: a bounded
//     GOMAXPROCS-sized worker pool with deterministic input-ordered
//     results (sweep.Map), and chunked warm-started Pareto tracing
//     (sweep.Pareto, one resident LP per chunk) that reproduces the
//     sequential curve point for point with identical objectives;
//   - internal/markov — Markov-chain analysis over one operator interface
//     (markov.Op: a distribution step and a value step), so a chain is
//     either an explicit CSR or a matrix-free operator
//     (markov.NewOp). Stationary distributions, discounted values and
//     occupancies dispatch between the dense-LU direct solves (small
//     explicit chains — also the parity oracle) and iterative matrix-free
//     paths (damped power iteration, geometric-series accumulation) for
//     large or operator-backed chains;
//   - internal/policy — heuristic power managers (greedy, timeout,
//     randomized timeout) and the stationary-policy controller;
//   - internal/sim — the slotted stochastic simulation engine (model-,
//     session- and trace-driven), with a Model-free mode (sim.NewDirect)
//     that evaluates metrics on demand and steps factored composites one
//     part at a time;
//   - internal/trace — request traces, the SR extractor and synthetic
//     workload generators;
//   - internal/mat — the linear-algebra substrate: dense vectors and
//     matrices with an LU solver, the sparse kernel (triplet builder,
//     CSR/CSC, sparse×dense products, stochastic validation on sparse
//     form) that the composed chains and the LP columns live in, and the
//     sparse Kronecker kernel (mat.KronAll) that compiles product
//     chains directly in CSR and the lazy Kronecker operator
//     (mat.KronOp) that applies and samples the product without forming
//     it;
//   - internal/devices — the paper's case-study models (example system,
//     Appendix-B baseline, Table-I disk drive, web server, SA-1100 CPU)
//     plus the composite fixtures: mini-disk, NIC, the k-disk
//     MultiDiskSystem and the masked disk+CPU+NIC HeterogeneousSystem;
//   - internal/server — the resident policy-serving subsystem behind
//     cmd/dpmserved: an HTTP/JSON daemon holding compiled models resident,
//     answering optimize/sweep queries from a cache keyed by a content
//     fingerprint of (model parameters, discount, objective, constraints).
//     Exact hits return cached results with zero pivots, near hits
//     warm-start from the nearest cached basis, concurrent identical
//     queries share one solve, per-request deadlines cancel the
//     simplex mid-pivot (OptimizeCtx → lp.Solver.Solve), requests may pin
//     solver strategies and pivot budgets (factorization / pricing /
//     max_pivots), and the warm-start basis cache persists across
//     restarts (-cache-file).
//     Endpoints: POST /v1/models, GET /v1/models,
//     POST /v1/models/{id}/observe, POST /v1/optimize, POST /v1/sweep,
//     GET /v1/solves (live solve table + event journal),
//     DELETE /v1/solves/{id} (cancel one in-flight solve),
//     GET /v1/healthz, GET /v1/stats, GET /metrics, GET /v1/trace — see
//     the README's "Serving mode" and "Live solve introspection"
//     sections for curl examples and cache semantics. Every request and
//     response body is declared once, as an exported type of the package
//     (OptimizeRequest, ObserveResponse, StatsResponse, SolvesResponse,
//     …), and the in-repo clients — cmd/dpmfeed and cmd/dpmtop —
//     encode and decode with those types. The benchmark's serve-mixed
//     workload (bench/) is the whole-system measurement under load;
//   - internal/online — the streaming adaptation subsystem behind the
//     observe endpoint: an incremental exponentially-decayed form of the
//     trace extractor (O(1) per slice), a drift controller comparing the
//     estimate to the served workload model by per-row total-variation
//     distance, and drift-triggered re-solves that revise the resident LP
//     in place (core.PatchFrequencyLP) and warm-start from the previous
//     optimal basis under a bounded solve budget;
//   - internal/obs — the observability layer threaded through
//     server → core → lp → online: per-request span traces carried on
//     context.Context (cache lookup, LP build/patch, solve with pivot and
//     per-stage timing annotations; last-N retrieval via GET /v1/trace),
//     lock-cheap log-bucketed latency/pivot histograms exported with
//     p50/p90/p99 on /v1/stats and as Prometheus histogram series on
//     /metrics, gauges and a bounded event journal backing the live
//     /v1/solves table (watchable with cmd/dpmtop), and structured
//     slog-based debug logging that the env-gated LPDEBUG/LUDEBUG
//     streams route through;
//   - internal/experiments — one runner per paper table/figure.
//
// A minimal end-to-end use:
//
//	sys := repro.ExampleSystem()            // Examples 3.1-3.7 of the paper
//	model, _ := sys.Build()                 // composed controlled Markov chain
//	res, _ := repro.Optimize(model, repro.Options{
//	        Alpha:     repro.HorizonToAlpha(1e5),
//	        Objective: repro.Objective{Metric: repro.MetricPower, Sense: repro.Minimize},
//	        Bounds:    []repro.Bound{{Metric: repro.MetricPenalty, Rel: repro.LE, Value: 0.5}},
//	})
//	fmt.Println(res.Objective, res.Policy)
//
// # Composite and heterogeneous systems
//
// Networks of independent service providers (paper Section VII) are built
// in factored form with core.Composite: the parts, a service-rate combiner,
// and optional command masks. Build compiles the joint chain instead of
// enumerating it — each joint per-command transition matrix is the
// Kronecker product of the part chains, assembled directly in CSR
// (mat.KronAll), and the joint power/rate surfaces are evaluated on demand
// from the factors, so the provider keeps no dense |S|×|S| or |S|×|A|
// table and nothing scales with the unmasked command space (the compiled
// system Model still tabulates metrics densely over the masked commands
// only). The compiled *core.FactoredSP satisfies the same
// core.Provider contract as a hand-written *core.ServiceProvider and drops
// into a System anywhere one does (build, optimize, serve, simulate).
//
// Masking is how the A = Π aᵢ joint-command blowup is tamed:
// Composite.PartCommands restricts each part to a subset of its own
// commands, and Composite.Allow prunes joint combinations — e.g. the
// single-command-bus discipline ("retarget at most one component per
// slice") used by devices.HeterogeneousSystem, which collapses a
// six-component platform's 144 joint commands to 8. The legacy dense
// CompositeSP remains as the parity reference; the factored path is
// exercised against it to 1e-8 by the randomized parity suite.
//
// Compilation itself is lazy: a FactoredSP stores only the per-command
// factor lists, and expands a joint Kronecker CSR the first time Chain is
// called for that command (Model compilation, LP assembly). Evaluation
// never calls it — System.CommandOp / System.PolicyOp expose the composed
// Eq. 4 chain as a matrix-free three-stage operator (SR sweep, queue
// kernels, lazy Kronecker SP sweep), EvaluateFactored computes a policy's
// exact discounted metrics against it iteratively, and sim.NewDirect
// simulates the system with per-part successor sampling — so policies on
// platforms whose joint chains are too large to store can still be
// evaluated and simulated, at cost proportional to the factor nonzeros
// (see the README's "Factored evaluation" section).
//
// # Solver architecture
//
// All policy optimization funnels into one object: lp.NewSolver(options...)
// builds an immutable, concurrency-safe Solver, and Solve(ctx, p, warm) runs
// one two-phase revised-simplex solve under it. The options bound resources
// and attach a flight recorder; they never choose the algorithm. One fact,
// the basis size m, picks both the representation of B⁻¹ and the pricing
// rule:
//
//   - m < 256: a dense LU of the m×m basis with product-form eta updates —
//     unbeatable constant factors while the basis fits in cache — and
//     Dantzig pricing, the most negative reduced cost, cheapest per
//     iteration. The disk sweeps, the served queries and the online
//     re-solves of the benchmark (m ≈ 67) all run here. The kernel owns
//     its LU storage, solve scratch and eta vectors, so once sized by the
//     first refactorization a pivot allocates nothing.
//   - m ≥ 256: a sparse LU ordered by Markowitz counts under threshold
//     partial pivoting, updated in place by Forrest–Tomlin row etas, so
//     factorization, FTRAN/BTRAN and update are all O(nnz + fill) — what
//     lets the 10⁴-state composite platforms solve at all — and Devex
//     pricing, approximate steepest-edge reference weights maintained in
//     O(1) per column the pivot row touches: fewer, better pivots on the
//     ill-conditioned policy LPs (discounts at 1−10⁻⁶).
//
// At that scale ratio-test pivots must additionally clear a floor relative
// to the FTRAN direction's magnitude. Both paths solve the exact rhs and
// judge optimality by the absolute reduced-cost test d_j ≥ −10⁻⁹: the
// frequency LP keeps itself well scaled at every horizon, because its
// normalization row Σy = 1 (in place of the paper's balance row 0) holds
// the scale that the balance rows' rhs (1−α)·q0 loses as α → 1 (see
// core.BuildFrequencyLP). Neither path is trusted on its own: the tests
// prove its verdicts in exact arithmetic (lp.CertifyExact for optimal
// bases, elastic and ray LPs for infeasible and unbounded ones).
//
// Resource bounds: lp.WithMaxPivots stops a solve after a pivot budget with
// Status lp.BudgetExceeded (an error matching lp.ErrBudgetExceeded — a
// resource verdict, not a statement about the problem), and a wall-clock
// budget is the deadline of the context passed to Solve. The budget threads
// end to end: core.Options carries LPMaxPivots, dpmserved accepts
// max_pivots per request (fingerprinted into its cache key), and the online
// adapter meters refresh work with the LPMaxPivots of the options it is
// built with.
//
// # Solver performance
//
// The sparse path's per-pivot cost is contained by four mechanisms. The
// BTRAN of each pivot's unit vector is hyper-sparse: Gilbert–Peierls-style
// symbolic reachability from the rhs support touches only the reachable
// pattern, falling back to the dense kernel when fill passes ~10% of n.
// FTRAN is one dense sweep: its rhs, an entering column, rarely stays
// sparse, and a reachability walk for it made no basis size faster. The
// refactorization cadence scales with basis size (every 120 pivots,
// stretched to 960 at m ≥ 4096) because Markowitz elimination grows
// superlinearly with m while one more Forrest–Tomlin eta costs only its
// nonzeros; stability checks still force early refactorization when the
// chain degrades. The elimination's row merges binary-search the
// eliminated column and bulk-copy untouched runs, but each merge still
// rewrites the whole target row, so it costs the long side, not the short
// one: on solve-k5's (I−αP_π)ᵀ a merge copies about ten target-row entries
// per pivot-row entry, and nine merges in ten add no fill. Finally the kernel owns its storage, as the dense one does:
// mat.SparseLU.Refactor factors each basis of a solve into the arrays of
// the previous factorization (V's rows in one compacting arena, L and the
// Forrest–Tomlin etas in reused buffers, the Markowitz buckets and all
// solve scratch kept), bit-identical to a fresh FactorColumns, so a cold
// solve-k5 solve allocates about 9 MB instead of 41 MB. The pricing scans
// (entering-column selection, reduced-cost maintenance and recomputation)
// run sequentially in column order: a chunked worker pool for them was
// slower than the plain scans on solve-k5 and solve-k6, the only
// benchmarks wide enough to engage it, and was removed.
//
// The small path's cost is the overhead around a few hundred cheap pivots,
// so it is kept free of garbage and repeated work. The dense LU factors in
// place into kernel-owned storage and solves into caller buffers
// (mat.LU.FactorInPlace, SolveInto, SolveTInto, with the floating-point
// order of the allocating Factor/Solve/SolveT); its triangular solves are
// column sweeps, x_i −= l_ij·x_j for every entry a final x_j still
// affects, whose independent iterations pipeline and whose zero x_j skip
// a whole column. Retired eta vectors are
// recycled, and the standard form's constraint matrix is assembled by a
// counting transpose of rows that are already sorted and merged
// (lp.CompressRow) instead of a triplet sort. A basis is never
// refactorized while unchanged: the LU is rebuilt only after a pivot (or an
// unstable update), and an rhs change with no pivot since — the next
// point of a sweep — recomputes the basic values by one FTRAN through the
// existing factors. A Pareto sweep keeps each chunk's LP resident (lp.Resident,
// core.ParetoSweepCtx): the LP is assembled once per chunk, each point
// moves only the swept bound's right-hand side, and a point warm-started
// from the previous point's basis reuses that solve's standard form, row
// mirror and factorization, returning bit for bit what a fresh warm solve
// returns. A cold sweep runs the same loop without carrying a basis
// forward, so each point is exactly a fresh solve of its LP. Pivot
// trajectories are bit-identical to the allocating path.
//
// Each solve accounts for its own time: lp.Solution.Timings splits the
// wall clock into ftran/btran/price/factor/update, declared once by
// lp.Timings.Stages, and the breakdown threads through
// core.Result.LPTimings into cmd/dpmbench's per-experiment solver lines
// and the benchmark's per-layer lp stage numbers.
// dpmserved declares each served metric once on an obs.Registry, which
// renders /v1/stats and /metrics; its work counters (pivots,
// refactorizations, solve_ftran_ns, …) are fed once per solve attempt by
// the flight recorder's finish snapshot, so they count discarded attempts
// too.
//
// # Online adaptation
//
// The paper optimizes against one stationary workload model; the closing
// future-work direction (and the related fleet-controller work) closes the
// loop online. internal/online implements it end to end: a streaming
// k-memory SR estimator with exponential forgetting (decay d weights a
// slice observed t slices ago by d^t, an effective window of 1/(1−d)
// slices; d = 1 reproduces trace.ExtractSR exactly), a drift controller
// that re-solves when any sufficiently-evidenced row of the estimate is
// more than a total-variation threshold away from the served model — the
// threshold adapts per row, widening by z standard errors of the row's
// evidence (Estimator.DriftAdaptive; Config.DriftZ, default 2) so thin
// rows need proportionally larger deviations to trigger — and a re-solve
// path that never rebuilds anything: core.PatchFrequencyLP rewrites only
// the SR-dependent coefficients of the resident sparse program
// (structure, bounds and sparsity pattern are reused; a probability
// moving to or from exact zero falls back to one fresh assembly),
// core.PatchModel revises the compiled Model in place the same way — each
// patch runs the same row generator as the matching build, so the patched
// Model and program are bit-for-bit the rebuilt ones — and
// core.OptimizeProblemCtx solves it warm-started from the previous optimal
// basis under a bounded wall-clock budget — a failed or cancelled refresh
// keeps the previous policy serving. dpmserved exposes the loop as
// POST /v1/models/{id}/observe with refresh counters in /v1/stats, and
// cmd/dpmfeed streams synthetic drifting workloads at it.
//
// See README.md for the tool suite (cmd/...) and EXPERIMENTS.md for the
// paper-versus-measured record of every reproduced table and figure.
package repro

import (
	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
	"repro/internal/mat"
	"repro/internal/sweep"
)

// Core model types (paper Section III).
type (
	// ServiceProvider is the managed resource (Definition 3.1).
	ServiceProvider = core.ServiceProvider
	// ServiceRequester is the workload model (Definition 3.2).
	ServiceRequester = core.ServiceRequester
	// System composes SP, SR and the bounded queue (Definition 3.3, Eq. 4).
	System = core.System
	// State is a composed (SP, SR, queue) state triple.
	State = core.State
	// Model is a compiled System: per-command transition matrices plus
	// metric tables.
	Model = core.Model
	// Policy is a Markov stationary randomized policy (Definitions 3.5-3.7).
	Policy = core.Policy
	// Evaluation holds exact discounted per-slice averages of a policy.
	Evaluation = core.Evaluation
)

// Optimization types (paper Section IV and Appendix A).
type (
	// Options configures policy optimization.
	Options = core.Options
	// Objective selects the optimized metric and direction.
	Objective = core.Objective
	// Bound is a per-slice average constraint on a metric.
	Bound = core.Bound
	// Result is the outcome of policy optimization.
	Result = core.Result
	// ParetoPoint is one point of a tradeoff curve.
	ParetoPoint = core.ParetoPoint
	// SweepConfig tunes the concurrent sweep engine (workers, warm starts).
	SweepConfig = sweep.Config
	// SweepStats summarizes a finished sweep's solves.
	SweepStats = sweep.Stats
	// Basis is an exported optimal LP basis for warm-starting the next
	// structurally identical solve (Options.WarmBasis / Result.Basis).
	Basis = lp.Basis
	// Matrix and Vector are the dense linear-algebra types used throughout.
	Matrix = mat.Matrix
	Vector = mat.Vector
)

// Metric names available on every compiled model.
const (
	MetricPower   = core.MetricPower
	MetricPenalty = core.MetricPenalty
	MetricLoss    = core.MetricLoss
	MetricDrops   = core.MetricDrops
	MetricService = core.MetricService
)

// LP senses and relations.
const (
	Minimize = lp.Minimize
	Maximize = lp.Maximize
	LE       = lp.LE
	EQ       = lp.EQ
	GE       = lp.GE
)

// Core functions.
var (
	// Optimize solves the constrained policy-optimization LP and extracts
	// the optimal policy; OptimizeCtx is the same under a context whose
	// cancellation or deadline aborts the solve within one simplex pivot.
	Optimize    = core.Optimize
	OptimizeCtx = core.OptimizeCtx
	// ParetoSweep traces a power-performance tradeoff curve sequentially,
	// warm-starting consecutive points from each other's optimal basis.
	ParetoSweep = core.ParetoSweep
	// ParallelParetoSweep traces the same curve on a bounded worker pool
	// (context-cancellable, deterministic point order); ParetoSweepStats
	// tallies how its solves went.
	ParallelParetoSweep = sweep.Pareto
	ParetoSweepStats    = sweep.Tally
	// Evaluate computes exact discounted metrics of a policy;
	// EvaluateFactored is the Model-free mirror, running the same query
	// iteratively against matrix-free composed operators (never expanding
	// a factored provider's joint chains).
	Evaluate         = core.Evaluate
	EvaluateFactored = core.EvaluateFactored
	// BuildFrequencyLP assembles the LP2/LP3/LP4 frequency program in
	// sparse form without solving it (benchmarking, alternative solvers);
	// PatchFrequencyLP rewrites an assembled program's coefficients in
	// place for a structurally identical model (the online-adaptation fast
	// path), and OptimizeProblemCtx solves such a caller-held program.
	BuildFrequencyLP   = core.BuildFrequencyLP
	PatchFrequencyLP   = core.PatchFrequencyLP
	OptimizeProblemCtx = core.OptimizeProblemCtx
	// HorizonToAlpha converts an expected session length to a discount
	// factor; AlphaToHorizon inverts it.
	HorizonToAlpha = core.HorizonToAlpha
	AlphaToHorizon = core.AlphaToHorizon
	// WaitingTimeBound converts a mean-waiting-time bound to a queue bound
	// via Little's law.
	WaitingTimeBound = core.WaitingTimeBound
	// DeterministicPolicy, ConstantPolicy and NewPolicy build policies.
	DeterministicPolicy = core.DeterministicPolicy
	ConstantPolicy      = core.ConstantPolicy
	NewPolicy           = core.NewPolicy
	// TwoStateSR builds the ubiquitous two-state requester.
	TwoStateSR = core.TwoStateSR
	// Delta and Uniform build initial state distributions.
	Delta   = core.Delta
	Uniform = core.Uniform
)

// Prebuilt device models (paper Section VI and Appendix B).
var (
	// ExampleSystem is the running example of Sections III-IV.
	ExampleSystem = devices.ExampleSystem
	// DiskSystem is the Table-I disk drive (Section VI-A).
	DiskSystem = devices.DiskSystem
	// WebServerSystem is the two-processor server (Section VI-B).
	WebServerSystem = devices.WebServerSystem
	// CPUSystem is the SA-1100 model with wake-on-request (Section VI-C).
	CPUSystem = devices.CPUSystem
	// BaselineSystem is the Appendix-B baseline; DefaultBaseline its
	// parameters.
	BaselineSystem  = devices.BaselineSystem
	DefaultBaseline = devices.DefaultBaseline
	// MultiDiskSystem composes k mini-disks on a shared queue and
	// HeterogeneousSystem a masked disk+CPU+NIC platform, both compiled in
	// factored Kronecker form (Section VII device networks).
	MultiDiskSystem     = devices.MultiDiskSystem
	HeterogeneousSystem = devices.HeterogeneousSystem
)

// Factored composite types (Section VII device networks).
type (
	// Composite is the factored form of a network of independent service
	// providers: parts + rate combiner + command masks; Build compiles it
	// to a FactoredSP whose joint chains are CSR Kronecker products.
	Composite = core.Composite
	// FactoredSP is a compiled Composite, usable as System.SP.
	FactoredSP = core.FactoredSP
	// Provider is the service-provider contract System consumes; both
	// *ServiceProvider and *FactoredSP satisfy it.
	Provider = core.Provider
)
