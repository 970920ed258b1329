package lp

// Test handles for the external test package: the one solverConfig field
// no Option sets, and the verdict certificates of certify_test.go. Callers
// always get the kernel and pricing rule the basis size picks; the tests pin
// the at-scale configuration to run every kernel on small LPs.

// ForceAtScale runs the m ≥ autoSparseMin configuration — sparse LU with
// Forrest–Tomlin updates, Devex pricing, scale-relative pivot floors and the
// anti-degeneracy perturbation — on LPs of any size, so the small parity
// corpus and core's policy LPs exercise the kernel the size rule reserves
// for large bases.
func ForceAtScale() Option {
	return func(c *solverConfig) { c.atScale = true }
}

// CertifyVerdict proves one solve's verdict in exact arithmetic (see
// certifyVerdict).
var CertifyVerdict = certifyVerdict
