package server

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"
)

// tinySpec is a one-state SP and SR around a queue of capacity q.
func tinySpec(q int) ModelSpec {
	return ModelSpec{
		SP: &SPSpec{
			P:           [][][]float64{{{1}}},
			ServiceRate: [][]float64{{0.5}},
			Power:       [][]float64{{1}},
		},
		SR:       &SRSpec{P: [][]float64{{1}}, Requests: []int{1}},
		QueueCap: q,
	}
}

// uniformRows is an n×n row-stochastic matrix with every entry nonzero.
func uniformRows(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = 1 / float64(n)
		}
	}
	return m
}

// denseSpec is a one-command SP and an SR, both n-state and dense, around a
// queue of capacity q.
func denseSpec(n, q int) ModelSpec {
	rate, power, req := make([][]float64, n), make([][]float64, n), make([]int, n)
	for i := range n {
		rate[i], power[i], req[i] = []float64{0.5}, []float64{1}, i%2
	}
	return ModelSpec{
		SP:       &SPSpec{P: [][][]float64{uniformRows(n)}, ServiceRate: rate, Power: power},
		SR:       &SRSpec{P: uniformRows(n), Requests: req},
		QueueCap: q,
	}
}

// TestModelSpecSizeLimits: a posted model too large to compile quickly is
// rejected by toSystem — before Fingerprint or Build run — and answered
// with 400 while the server stays responsive. The two shapes are a long
// queue behind one-state chains (|S| = queue_cap+1 over maxModelStates)
// and dense 128-state SP and SR chains (≈5.4·10⁸ composed nonzeros, over
// maxModelNNZ). Models at the limits are admitted.
func TestModelSpecSizeLimits(t *testing.T) {
	oversized := map[string]ModelSpec{
		"queue_cap":  tinySpec(100000),
		"dense-128":  denseSpec(128, 0),
		"max-states": tinySpec(maxModelStates),
	}
	for name, spec := range oversized {
		// Fatal: posting an admitted oversized model below would compile it.
		if _, _, err := spec.toSystem(); err == nil || !strings.Contains(err.Error(), "over the limit") {
			t.Fatalf("%s: toSystem err = %v, want a size-limit error", name, err)
		}
	}
	// At the limits: |S| = maxModelStates exactly, and a dense 16-state
	// pair whose nonzero bound 16⁴·2·(q+1) is maxModelNNZ exactly.
	atLimit := map[string]ModelSpec{
		"states": tinySpec(maxModelStates - 1),
		"nnz":    denseSpec(16, maxModelNNZ/(2*16*16*16*16)-1),
	}
	for name, spec := range atLimit {
		if _, _, err := spec.toSystem(); err != nil {
			t.Errorf("model at the %s limit rejected: %v", name, err)
		}
	}

	_, base := newTestServer(t)
	for _, name := range []string{"queue_cap", "dense-128"} {
		var e errorResponse
		t0 := time.Now()
		st := call(t, http.MethodPost, base+"/v1/models", oversized[name], &e)
		if st != http.StatusBadRequest {
			t.Errorf("%s: register status %d, want 400", name, st)
		}
		t.Logf("%s: %d in %v (%s)", name, st, time.Since(t0), e.Error)
		if st := call(t, http.MethodGet, base+"/v1/healthz", nil, nil); st != http.StatusOK {
			t.Errorf("healthz after the %s model: status %d", name, st)
		}
	}
}

// TestModelSpecRejectsDenseSR2048: a 2048-state SR with dense rows under
// the example SP (paper Example 3.1, six transition nonzeros) is rejected
// by toSystem's nonzero bound — 6·2048²·2 ≈ 5.0·10⁷, over maxModelNNZ = 2²¹
// — so it is never fingerprinted or compiled. Nor could it be posted: even
// at two bytes per entry ("0,") its SR rows alone take 2·2048² bytes, the
// whole 8 MiB body limit. Under the example SP the nonzero bound admits
// dense SRs of up to 418 states.
func TestModelSpecRejectsDenseSR2048(t *testing.T) {
	exampleSP := func() *SPSpec {
		return &SPSpec{
			P:           [][][]float64{{{1, 0}, {0.1, 0.9}}, {{0.1, 0.9}, {0, 1}}},
			ServiceRate: [][]float64{{0.8, 0}, {0, 0}},
			Power:       [][]float64{{3, 4}, {4, 0}},
		}
	}
	denseSR := func(n int) *SRSpec {
		req := make([]int, n)
		for i := range req {
			req[i] = i % 2
		}
		return &SRSpec{P: uniformRows(n), Requests: req}
	}
	spec := ModelSpec{SP: exampleSP(), SR: denseSR(2048)}
	if _, _, err := spec.toSystem(); err == nil || !strings.Contains(err.Error(), "transition nonzeros, over the limit") {
		t.Fatalf("toSystem err = %v, want the nonzero-limit error", err)
	}
	spec = ModelSpec{SP: exampleSP(), SR: denseSR(418)}
	if _, _, err := spec.toSystem(); err != nil {
		t.Errorf("418-state dense SR rejected: %v", err)
	}
}

// FuzzModelSpec: POST /v1/models bodies are untrusted. The target decodes
// the bytes as the handler does and runs toSystem; every accepted spec
// must then Fingerprint and Build (Build may still refuse with an error)
// into well-formed chains, and a compiled posted model stays within the
// size limits toSystem checked. The contract: no panic, and an error for every rejection. The
// seed corpus is testdata/fuzz/FuzzModelSpec.
func FuzzModelSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec ModelSpec
		if decodeStrict(bytes.NewReader(data), &spec) != nil {
			return
		}
		sys, _, err := spec.toSystem()
		if err != nil {
			return
		}
		if sys == nil {
			t.Fatal("toSystem accepted the spec but returned no system")
		}
		if _, err := sys.Fingerprint(); err != nil {
			t.Fatalf("Fingerprint of an accepted spec: %v", err)
		}
		m, err := sys.Build()
		if err != nil {
			return
		}
		nnz := 0
		for a, p := range m.P {
			nnz += p.NNZ()
			for i := range m.N {
				cols, _ := p.RowNZ(i)
				for k, j := range cols {
					if j < 0 || j >= m.N || (k > 0 && j <= cols[k-1]) {
						t.Fatalf("command %d row %d: column %d out of order or range [0,%d)", a, i, j, m.N)
					}
				}
			}
		}
		if spec.Preset != "" {
			return
		}
		if m.N > maxModelStates || nnz > maxModelNNZ {
			t.Fatalf("posted model compiled to %d states and %d nonzeros, over the limits %d and %d", m.N, nnz, maxModelStates, maxModelNNZ)
		}
	})
}
