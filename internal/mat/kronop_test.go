package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randStochasticCSR returns a random n×n row-stochastic CSR with out-degree
// up to deg per row (at least 1).
func randStochasticCSR(rng *rand.Rand, n, deg int) *CSR {
	t := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		d := 1 + rng.Intn(deg)
		if d > n {
			d = n
		}
		cols := rng.Perm(n)[:d]
		w := make([]float64, d)
		sum := 0.0
		for k := range w {
			w[k] = rng.Float64() + 0.05
			sum += w[k]
		}
		for k, j := range cols {
			t.Add(i, j, w[k]/sum)
		}
	}
	return t.ToCSR()
}

func randVec(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func maxAbsDiffVec(a, b Vector) float64 {
	d := 0.0
	for i := range a {
		if x := math.Abs(a[i] - b[i]); x > d {
			d = x
		}
	}
	return d
}

// TestKronOpMatchesKronAll: the lazy operator's MulVecInto and MulVecTInto
// agree with products against the expanded joint CSR, across random factor
// counts, sizes and sparsities — including identity factors, which the
// operator skips as no-op sweeps.
func TestKronOpMatchesKronAll(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(4)
		factors := make([]*CSR, k)
		for i := range factors {
			if rng.Float64() < 0.25 {
				factors[i] = IdentityCSR(1 + rng.Intn(4))
			} else {
				factors[i] = randStochasticCSR(rng, 1+rng.Intn(4), 3)
			}
		}
		op := NewKronOp(factors...)
		joint := KronAll(factors...)
		if op.Rows() != joint.Rows() || op.Cols() != joint.Cols() {
			t.Fatalf("trial %d: op is %dx%d, joint is %dx%d", trial, op.Rows(), op.Cols(), joint.Rows(), joint.Cols())
		}
		n := op.Rows()
		x := randVec(rng, n)
		// Both directions reuse the operator's scratch and must be
		// repeatable: each runs twice into the same destination.
		dst := NewVector(n)
		for rep := 0; rep < 2; rep++ {
			op.MulVecTInto(dst, x)
			if d := maxAbsDiffVec(dst, joint.VecMul(x)); d > 1e-12 {
				t.Fatalf("trial %d: MulVecTInto differs from expanded VecMul by %g", trial, d)
			}
			op.MulVecInto(dst, x)
			if d := maxAbsDiffVec(dst, joint.MulVec(x)); d > 1e-12 {
				t.Fatalf("trial %d: MulVecInto differs from expanded MulVec by %g", trial, d)
			}
		}
	}
}

// TestKronOpStochasticApplication: applying the operator transposed to a
// distribution yields a distribution (mass is conserved), matching the
// expanded chain exactly.
func TestKronOpStochasticApplication(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	factors := []*CSR{
		randStochasticCSR(rng, 4, 2),
		randStochasticCSR(rng, 3, 3),
		randStochasticCSR(rng, 2, 2),
	}
	op := NewKronOp(factors...)
	n := op.Rows()
	dist := NewVector(n)
	for i := range dist {
		dist[i] = rng.Float64()
	}
	dist.Normalize()
	out := NewVector(n)
	op.MulVecTInto(out, dist)
	if s := out.Sum(); math.Abs(s-1) > 1e-12 {
		t.Fatalf("distribution step sums to %g, want 1", s)
	}
}

// TestKronOpRowSampleMatchesFactorWalks: RowSample must decode the joint
// state into factor digits (later factors fastest), walk each non-identity
// factor row's inverse CDF against one uniform, and re-encode — exactly what
// independent per-factor walks produce.
func TestKronOpRowSampleMatchesFactorWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(3)
		factors := make([]*CSR, k)
		for i := range factors {
			if rng.Float64() < 0.2 {
				factors[i] = IdentityCSR(1 + rng.Intn(3))
			} else {
				factors[i] = randStochasticCSR(rng, 1+rng.Intn(4), 3)
			}
		}
		op := NewKronOp(factors...)
		n := op.Rows()
		for s := 0; s < n; s++ {
			// Scripted uniform stream, replayed for the reference walk.
			us := make([]float64, k)
			for i := range us {
				us[i] = rng.Float64()
			}
			next := 0
			draw := func(seq []float64) func() float64 {
				i := 0
				return func() float64 { v := seq[i]; i++; return v }
			}
			got := op.RowSample(s, draw(us))
			// Reference: decode, walk each factor independently, encode.
			u := draw(us)
			rem := s
			digits := make([]int, k)
			for i := k - 1; i >= 0; i-- {
				digits[i] = rem % factors[i].Rows()
				rem /= factors[i].Rows()
			}
			for i := 0; i < k; i++ {
				f := factors[i]
				if f.isIdentity() {
					next = next*f.Rows() + digits[i]
					continue
				}
				cols, vals := f.RowNZ(digits[i])
				uu := u()
				jf := cols[len(cols)-1]
				for kk, p := range vals {
					uu -= p
					if uu <= 0 {
						jf = cols[kk]
						break
					}
				}
				next = next*f.Rows() + jf
			}
			if got != next {
				t.Fatalf("trial %d state %d: RowSample = %d, reference = %d", trial, s, got, next)
			}
		}
	}
}

// TestKronOpRowSampleDistribution: over many draws, the empirical successor
// frequencies of one joint state converge to the expanded chain's row.
func TestKronOpRowSampleDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	factors := []*CSR{
		randStochasticCSR(rng, 3, 2),
		randStochasticCSR(rng, 2, 2),
	}
	op := NewKronOp(factors...)
	joint := KronAll(factors...)
	n := op.Rows()
	const draws = 200000
	for s := 0; s < n; s++ {
		counts := make([]int, n)
		for d := 0; d < draws; d++ {
			counts[op.RowSample(s, rng.Float64)]++
		}
		cols, vals := joint.RowNZ(s)
		want := NewVector(n)
		for k, j := range cols {
			want[j] = vals[k]
		}
		for j := 0; j < n; j++ {
			got := float64(counts[j]) / draws
			if math.Abs(got-want[j]) > 0.01 {
				t.Fatalf("state %d -> %d: empirical %g, expanded row %g", s, j, got, want[j])
			}
		}
	}
}

func TestIdentityCSR(t *testing.T) {
	id := IdentityCSR(4)
	if !id.isIdentity() {
		t.Fatalf("IdentityCSR(4) not detected as identity")
	}
	if IdentityCSR(0).NNZ() != 0 {
		t.Fatalf("IdentityCSR(0) has nonzeros")
	}
	m := randStochasticCSR(rand.New(rand.NewSource(1)), 4, 3)
	if m.isIdentity() {
		t.Fatalf("random stochastic matrix detected as identity")
	}
}

func TestKronOpPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("no factors", func() { NewKronOp() })
	mustPanic("nil factor", func() { NewKronOp(nil) })
	rect := NewTriplet(2, 3)
	rect.Add(0, 0, 1)
	mustPanic("rectangular factor", func() { NewKronOp(rect.ToCSR()) })
	op := NewKronOp(IdentityCSR(3))
	mustPanic("bad state", func() { op.RowSample(3, func() float64 { return 0 }) })
	mustPanic("bad vector", func() { op.MulVecTInto(NewVector(3), NewVector(2)) })
}
