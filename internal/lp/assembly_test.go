package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// tripletRow is the reference normalization of a sparse row: a one-row
// triplet compressed to CSR, the route AddConstraintNZ took before it
// normalized its pairs directly.
func tripletRow(n int, cols []int, vals []float64) ([]int, []float64) {
	t := mat.NewTriplet(1, n)
	for k, j := range cols {
		t.Add(0, j, vals[k])
	}
	return t.ToCSR().RowNZ(0)
}

// tripletStdFormCSC is the reference assembly of the standard-form matrix:
// every entry of [A | slack | artificial] through a triplet, compressed to
// CSC, the route newStdForm took before its counting transpose.
func tripletStdFormCSC(p *Problem) *mat.CSC {
	type spec struct {
		cons *Constraint
		rel  Rel
		flip bool
	}
	var specs []spec
	ns, na := 0, 0
	for i := range p.Cons {
		c := &p.Cons[i]
		if len(c.Cols) == 0 {
			continue
		}
		s := spec{cons: c, rel: stdRel(c), flip: c.RHS < 0}
		switch s.rel {
		case LE:
			ns++
		case GE:
			ns++
			na++
		case EQ:
			na++
		}
		specs = append(specs, s)
	}
	nv := p.NumVars()
	trip := mat.NewTriplet(len(specs), nv+ns+na)
	slackCol, artCol := nv, nv+ns
	for i, s := range specs {
		for k, j := range s.cons.Cols {
			v := s.cons.Vals[k]
			if s.flip {
				v = -v
			}
			trip.Add(i, j, v)
		}
		switch s.rel {
		case LE:
			trip.Add(i, slackCol, 1)
			slackCol++
		case GE:
			trip.Add(i, slackCol, -1)
			slackCol++
			trip.Add(i, artCol, 1)
			artCol++
		case EQ:
			trip.Add(i, artCol, 1)
			artCol++
		}
	}
	return trip.ToCSC()
}

// randomRowPairs draws raw (column, value) pairs over n columns with
// repeated columns, values whose sum depends on the order they are added
// in, and pairs that cancel exactly.
func randomRowPairs(r *rand.Rand, n int) ([]int, []float64) {
	var cols []int
	var vals []float64
	for k := r.Intn(3 * n); k > 0; k-- {
		j := r.Intn(n)
		switch r.Intn(4) {
		case 0: // exact cancellation
			v := r.NormFloat64()
			cols = append(cols, j, j)
			vals = append(vals, v, -v)
		case 1: // a duplicate whose sum rounds differently by order
			cols = append(cols, j, j, j)
			vals = append(vals, 0.1, 0.2, 0.3)
		case 2: // an explicit zero
			cols = append(cols, j)
			vals = append(vals, 0)
		default:
			cols = append(cols, j)
			vals = append(vals, r.NormFloat64())
		}
	}
	r.Shuffle(len(cols), func(a, b int) {
		cols[a], cols[b] = cols[b], cols[a]
		vals[a], vals[b] = vals[b], vals[a]
	})
	return cols, vals
}

// TestAddConstraintNZMatchesTriplet holds AddConstraintNZ's direct
// normalization to the one-row-triplet reference, bit for bit, on rows
// with duplicates, order-sensitive sums and exact cancellations — and
// checks that the caller's slices are left untouched.
func TestAddConstraintNZMatchesTriplet(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(12)
		cols, vals := randomRowPairs(r, n)
		inCols := append([]int(nil), cols...)
		inVals := append([]float64(nil), vals...)
		wantCols, wantVals := tripletRow(n, cols, vals)

		p := NewProblem(Minimize, n)
		p.AddConstraintNZ("row", cols, vals, LE, 1)
		got := p.Cons[0]
		if len(got.Cols) != len(wantCols) {
			t.Fatalf("trial %d: %d nonzeros, reference %d", trial, len(got.Cols), len(wantCols))
		}
		for k := range wantCols {
			if got.Cols[k] != wantCols[k] || math.Float64bits(got.Vals[k]) != math.Float64bits(wantVals[k]) {
				t.Fatalf("trial %d nz %d: (%d, %x), reference (%d, %x)", trial, k,
					got.Cols[k], math.Float64bits(got.Vals[k]), wantCols[k], math.Float64bits(wantVals[k]))
			}
		}
		for k := range inCols {
			if cols[k] != inCols[k] || math.Float64bits(vals[k]) != math.Float64bits(inVals[k]) {
				t.Fatalf("trial %d: AddConstraintNZ modified its input at %d", trial, k)
			}
		}
	}
}

// TestStdFormCSCMatchesTriplet holds newStdForm's counting-transpose
// assembly to the triplet reference on random problems mixing LE, GE and
// EQ rows, negative right-hand sides and empty rows: same shape, same
// pattern, bit-identical values.
func TestStdFormCSCMatchesTriplet(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rels := []Rel{LE, GE, EQ}
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(10)
		p := NewProblem(Minimize, n)
		for i := r.Intn(10); i > 0; i-- {
			if r.Intn(5) == 0 {
				// Empty rows presolve away only when satisfiable.
				p.AddConstraintNZ("empty", nil, nil, rels[r.Intn(3)], 0)
				continue
			}
			cols, vals := randomRowPairs(r, n)
			p.AddConstraintNZ("row", cols, vals, rels[r.Intn(3)], 4*r.Float64()-2)
			if c := &p.Cons[len(p.Cons)-1]; len(c.Cols) == 0 {
				c.RHS = 0 // every pair cancelled
			}
		}
		sf, st := newStdForm(p)
		if st != Optimal {
			t.Fatalf("trial %d: presolve status %v", trial, st)
		}
		want := tripletStdFormCSC(p)
		got := sf.a
		if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.NNZ() != want.NNZ() {
			t.Fatalf("trial %d: %dx%d with %d nonzeros, reference %dx%d with %d", trial,
				got.Rows(), got.Cols(), got.NNZ(), want.Rows(), want.Cols(), want.NNZ())
		}
		for j := 0; j < want.Cols(); j++ {
			gr, gv := got.ColNZ(j)
			wr, wv := want.ColNZ(j)
			if len(gr) != len(wr) {
				t.Fatalf("trial %d column %d: %d entries, reference %d", trial, j, len(gr), len(wr))
			}
			for k := range wr {
				if gr[k] != wr[k] || math.Float64bits(gv[k]) != math.Float64bits(wv[k]) {
					t.Fatalf("trial %d column %d entry %d: (%d, %g), reference (%d, %g)",
						trial, j, k, gr[k], gv[k], wr[k], wv[k])
				}
			}
		}
	}
}

// TestResidentSetRHSMatchesStdForm: SetRHS keeps a live resident's
// standard form exactly what newStdForm would assemble from the updated
// problem — the rhs vector and the artificial mass the phase-1 cutoff
// reads, bit for bit — and drops the retained state on a sign change or an
// empty row, where the assembled form would differ. Problems mix LE, GE and
// EQ rows, negative right-hand sides and empty rows, and are feasible by
// construction (every rhs is set from the activity of a positive point).
func TestResidentSetRHSMatchesStdForm(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rels := []Rel{LE, GE, EQ}
	live := 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(8)
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = 0.5 + r.Float64()
		}
		p := NewProblem(Minimize, n)
		for j := range p.Obj {
			p.Obj[j] = 0.5 + r.Float64()
		}
		for i := 1 + r.Intn(8); i > 0; i-- {
			if r.Intn(6) == 0 {
				p.AddConstraintNZ("empty", nil, nil, rels[r.Intn(3)], 0)
				continue
			}
			cols, vals := randomRowPairs(r, n)
			p.AddConstraintNZ("row", cols, vals, rels[r.Intn(3)], 0)
			c := &p.Cons[len(p.Cons)-1]
			c.RHS = c.Dot(x0)
			switch c.Rel {
			case LE:
				c.RHS += r.Float64()
			case GE:
				c.RHS -= r.Float64()
			}
		}
		rs := NewSolver().Resident(p)
		if _, _, err := rs.Solve(context.Background(), nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for step := 0; step < 6 && rs.r != nil; step++ {
			row := r.Intn(len(p.Cons))
			old := p.Cons[row].RHS
			v := old * (0.5 + r.Float64())
			if r.Intn(4) == 0 {
				v = -v
			}
			rs.SetRHS(row, v)
			if flipped := (old < 0) != (v < 0); flipped || len(p.Cons[row].Cols) == 0 {
				if rs.r != nil {
					t.Fatalf("trial %d: resident kept its state after SetRHS(%d, %g) from %g", trial, row, v, old)
				}
				break
			}
			live++
			want, st := newStdForm(p)
			if st != Optimal {
				t.Fatalf("trial %d: presolve status %v", trial, st)
			}
			got := rs.r.sf
			for i := range want.b {
				if math.Float64bits(got.b[i]) != math.Float64bits(want.b[i]) {
					t.Fatalf("trial %d: b[%d] = %g, assembled %g", trial, i, got.b[i], want.b[i])
				}
			}
			if math.Float64bits(got.artMass) != math.Float64bits(want.artMass) {
				t.Fatalf("trial %d: artMass %g, assembled %g", trial, got.artMass, want.artMass)
			}
		}
	}
	if live < 100 {
		t.Errorf("only %d SetRHS calls kept the resident live", live)
	}
}
