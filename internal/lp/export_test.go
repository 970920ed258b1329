package lp

// Test handles on the two solverConfig fields no Option sets. Callers always
// get the kernel and pricer the basis size picks and a GOMAXPROCS-sized
// pricing pool; the tests pin both to run every kernel on small LPs and to
// probe the parallel scans' determinism.

// ForceAtScale runs the m ≥ autoSparseMin configuration — sparse LU with
// Forrest–Tomlin updates, Devex pricing, scale-relative pivot floors and the
// anti-degeneracy perturbation — on LPs of any size, so the small parity
// corpus and core's policy LPs exercise the kernel the size rule reserves
// for large bases.
func ForceAtScale() Option {
	return func(c *solverConfig) { c.atScale = true }
}

// withPricingWorkers pins the pricing pool size (1 = sequential).
func withPricingWorkers(n int) Option {
	return func(c *solverConfig) { c.pricingWorkers = n }
}
