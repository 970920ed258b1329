package lp

// Test handles: the solverConfig fields no Option sets, and the verdict
// certificates of certify_test.go. Callers
// always get the kernel and pricing rule the basis size picks and the
// kernel unwrapped; the tests pin the at-scale configuration to run every
// kernel on small LPs, and wrap the kernel to reach its failure paths.

// ForceAtScale runs the m ≥ AtScaleRows configuration — sparse LU with
// Forrest–Tomlin updates, Devex pricing and scale-relative pivot floors —
// on LPs of any size, so the small parity corpus and core's policy LPs
// exercise the kernel the size rule reserves for large bases.
func ForceAtScale() Option {
	return func(c *solverConfig) { c.atScale = true }
}

// WithFactorizerHook wraps the basis kernel of every solve attempt in
// wrap(kernel), so a test can make Refactor or Update fail on cue (see
// recovery_test.go) and reach the solver's recovery paths.
func WithFactorizerHook(wrap func(factorizer) factorizer) Option {
	return func(c *solverConfig) { c.wrapFactorizer = wrap }
}

// CertifyVerdict proves one solve's verdict in exact arithmetic (see
// certifyVerdict).
var CertifyVerdict = certifyVerdict
