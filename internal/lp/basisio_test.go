package lp

import (
	"bytes"
	"context"
	"encoding"
	"errors"
	"math"
	"testing"
)

var (
	_ encoding.BinaryMarshaler   = (*Basis)(nil)
	_ encoding.BinaryUnmarshaler = (*Basis)(nil)
)

func TestBasisRoundTrip(t *testing.T) {
	_, basis := solveWithBasisOK(t, sweepProblem(4), nil)
	data, err := basis.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}

	var decoded Basis
	if err := decoded.UnmarshalBinary(data); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if decoded.String() != basis.String() {
		t.Errorf("decoded shape %v != original %v", decoded.String(), basis.String())
	}
	redata, err := decoded.MarshalBinary()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, redata) {
		t.Errorf("encode/decode/encode not byte-stable")
	}

	// The rehydrated basis must be usable as a warm start exactly like the
	// in-memory one.
	sol, _ := solveWithBasisOK(t, sweepProblem(6), &decoded)
	if !sol.WarmStarted {
		t.Errorf("decoded basis did not warm-start the next solve")
	}
	if math.Abs(sol.Objective-24) > 1e-9 {
		t.Errorf("objective = %g, want 24", sol.Objective)
	}
}

func TestBasisDecodeRejectsMalformed(t *testing.T) {
	_, basis := solveWithBasisOK(t, sweepProblem(4), nil)
	good, err := basis.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}

	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("XXXX"), good[4:]...),
		"truncated":  good[:len(good)-1],
		"trailing":   append(append([]byte{}, good...), 0x01),
		"column oob": append(append([]byte{}, good[:len(good)-1]...), 0x7f),
		// nv=1, ns=1, na=1, m=2^30 with no column bytes: must be rejected
		// before allocating a gigabyte of columns.
		"huge m": append([]byte("LPB1"), 0x01, 0x01, 0x01, 0x80, 0x80, 0x80, 0x80, 0x04),
	}
	for name, data := range cases {
		var b Basis
		if err := b.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

func TestSolveCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, basis, err := NewSolver().Solve(ctx, sweepProblem(4), nil)
	if sol.Status != Cancelled {
		t.Fatalf("status = %v, want Cancelled", sol.Status)
	}
	if basis != nil {
		t.Errorf("cancelled solve returned a basis")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in chain", err)
	}
}

func TestSolveWarmCancelledContext(t *testing.T) {
	_, basis := solveWithBasisOK(t, sweepProblem(8), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Tightening the cap forces dual-simplex restoration, which must notice
	// the dead context instead of falling back to a cold solve.
	sol, _, err := NewSolver().Solve(ctx, sweepProblem(3), basis)
	if sol.Status != Cancelled {
		t.Fatalf("status = %v, want Cancelled", sol.Status)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in chain", err)
	}
}
