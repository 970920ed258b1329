// Package core implements the primary contribution of Benini, Bogliolo,
// Paleologo and De Micheli, "Policy Optimization for Dynamic Power
// Management" (DAC 1998 / IEEE TCAD 18(6), 1999): a finite-state abstract
// model of power-managed systems based on Markov decision processes, and the
// exact, polynomial-time solution of the policy-optimization problem via
// linear programming.
//
// The model (paper Section III) composes three components:
//
//   - ServiceProvider (Definition 3.1): the power-manageable resource, a
//     controlled Markov chain with per-command transition matrices, service
//     rates b(s,a) and power consumptions c(s,a);
//   - ServiceRequester (Definition 3.2): the workload, an autonomous Markov
//     chain issuing R(r) requests per time slice;
//   - the service queue (Definition 3.3): a bounded buffer whose transition
//     probabilities are fully determined by service rate and arrivals
//     (Eq. 3), with overflow modeled as request loss.
//
// System builds the composed controlled Markov chain over
// S_p × S_r × S_q (Eq. 4). Policy represents Markov stationary randomized
// policies (Definitions 3.5–3.7). Optimize solves the constrained policy
// optimization problems PO1/PO2 by constructing the state–action frequency
// linear programs LP2/LP3/LP4 of Appendix A and extracting the optimal
// policy with Eq. 16. ParetoSweep explores the power–performance tradeoff
// curve of Section IV-A.
//
// Each compiled artifact has one compiler with two sinks. The composed
// chains come from one row generator and the metric tables from one
// tabulation over System.MetricFns; System.Build appends the rows into
// fresh CSR arrays, and PatchModel rewrites an existing Model's rows and
// tables in place. Likewise one generator validates Options and emits the
// frequency LP's objective, balance rows and bound rows; BuildFrequencyLP
// assembles them into a new lp.Problem and PatchFrequencyLP rewrites a
// resident one. A patched artifact is therefore bit-for-bit the built one,
// which is what lets the online refresh path skip recompilation.
//
// Discounting follows the paper's session model (Fig. 5): a geometric
// stopping time with discount factor α, equivalently a trap state entered
// with probability 1−α each slice. All constraint bounds and reported
// metrics are expressed in per-slice (average) units: the LP is formulated
// over scaled frequencies y(s,a) = (1−α)·x(s,a), which sum to one and keep
// the LP well conditioned even for horizons of 10⁶ slices.
package core
