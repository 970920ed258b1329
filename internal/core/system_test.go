package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// exampleSP builds the two-state on/off service provider of paper
// Example 3.1 with the power figures of Example A.2: under s_on the off
// state wakes with probability 0.1 per slice (expected 10 slices); under
// s_off the on state falls asleep with probability 0.9; service rate 0.8
// only when on and commanded on; power 3 W on, 0 W off, 4 W while forcing a
// transition.
func exampleSP() *ServiceProvider {
	return &ServiceProvider{
		Name:     "example",
		States:   []string{"on", "off"},
		Commands: []string{"s_on", "s_off"},
		P: []*mat.Matrix{
			mat.FromRows([][]float64{{1, 0}, {0.1, 0.9}}), // s_on
			mat.FromRows([][]float64{{0.1, 0.9}, {0, 1}}), // s_off
		},
		ServiceRate: mat.FromRows([][]float64{{0.8, 0}, {0, 0}}),
		Power:       mat.FromRows([][]float64{{3, 4}, {4, 0}}),
	}
}

// exampleSR is the bursty workload of Example 3.2: P(1→1)=0.85 (mean burst
// 6.67 slices).
func exampleSR() *ServiceRequester {
	return TwoStateSR("bursty", 0.10, 0.15)
}

// exampleSystem composes them with two queue states (capacity 1), giving
// the eight-state system of Examples 3.5/A.1/A.2.
func exampleSystem() *System {
	return &System{Name: "example", SP: exampleSP(), SR: exampleSR(), QueueCap: 1}
}

func buildExample(t *testing.T) *Model {
	t.Helper()
	m, err := exampleSystem().Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func TestProviderValidate(t *testing.T) {
	sp := exampleSP()
	if err := sp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := exampleSP()
	bad.ServiceRate.Set(0, 0, 1.5)
	if err := bad.Validate(); err == nil {
		t.Errorf("service rate 1.5 accepted")
	}
	bad2 := exampleSP()
	bad2.P[0].Set(0, 0, 0.5) // row no longer sums to 1
	if err := bad2.Validate(); err == nil {
		t.Errorf("non-stochastic SP accepted")
	}
	bad3 := exampleSP()
	bad3.P = bad3.P[:1]
	if err := bad3.Validate(); err == nil {
		t.Errorf("missing command matrix accepted")
	}
}

func TestProviderIndexLookups(t *testing.T) {
	sp := exampleSP()
	if sp.CommandIndex("s_off") != 1 || sp.CommandIndex("nope") != -1 {
		t.Errorf("CommandIndex lookup failed")
	}
}

func TestProviderExpectedTransitionTime(t *testing.T) {
	sp := exampleSP()
	// off→on under s_on is geometric with p=0.1: expected 10 slices
	// (paper Example 3.1).
	got, err := sp.ExpectedTransitionTime(1, 0, 0)
	if err != nil {
		t.Fatalf("ExpectedTransitionTime: %v", err)
	}
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("E[off→on | s_on] = %g, want 10", got)
	}
	// on→off under s_off: p=0.9 → 1/0.9.
	got, err = sp.ExpectedTransitionTime(0, 1, 1)
	if err != nil {
		t.Fatalf("ExpectedTransitionTime: %v", err)
	}
	if math.Abs(got-1/0.9) > 1e-9 {
		t.Errorf("E[on→off | s_off] = %g, want %g", got, 1/0.9)
	}
	// off→on under s_off is impossible.
	if _, err := sp.ExpectedTransitionTime(1, 0, 1); err == nil {
		t.Errorf("unreachable transition did not error")
	}
}

func TestRequesterValidateAndRate(t *testing.T) {
	sr := exampleSR()
	if err := sr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Stationary busy fraction = p01/(p01+p10) = 0.1/0.25 = 0.4; one
	// request per busy slice.
	rate, err := sr.MeanArrivalRate()
	if err != nil {
		t.Fatalf("MeanArrivalRate: %v", err)
	}
	if math.Abs(rate-0.4) > 1e-12 {
		t.Errorf("MeanArrivalRate = %g, want 0.4", rate)
	}
	bad := exampleSR()
	bad.Requests = []int{0, -1}
	if err := bad.Validate(); err == nil {
		t.Errorf("negative request count accepted")
	}
}

func TestSystemIndexRoundTrip(t *testing.T) {
	sys := exampleSystem()
	n := sys.NumStates()
	if n != 8 {
		t.Fatalf("NumStates = %d, want 8 (Example 3.5)", n)
	}
	for i := 0; i < n; i++ {
		st := sys.StateOf(i)
		if got := sys.Index(st); got != i {
			t.Errorf("Index(StateOf(%d)) = %d", i, got)
		}
	}
	if name := sys.StateName(sys.Index(State{SP: 0, SR: 1, Q: 1})); name != "(on,1,1)" {
		t.Errorf("StateName = %q", name)
	}
}

func TestBuildComposedMatricesStochastic(t *testing.T) {
	m := buildExample(t)
	if len(m.P) != 2 {
		t.Fatalf("got %d command matrices", len(m.P))
	}
	for a, p := range m.P {
		if err := p.CheckStochastic(1e-9); err != nil {
			t.Errorf("command %d: %v", a, err)
		}
	}
}

// TestExample35Fragment verifies the composed transition probability of
// paper Example 3.5: from (on, 0, 0) to (on, 1, 0) under s_on the
// probability is p01 · b(on,s_on) · p_on,on(s_on); under s_off it is zero
// because the service rate vanishes and the arriving request must occupy
// the queue.
func TestExample35Fragment(t *testing.T) {
	sys := exampleSystem()
	m := buildExample(t)
	from := sys.Index(State{SP: 0, SR: 0, Q: 0})
	to := sys.Index(State{SP: 0, SR: 1, Q: 0})
	want := 0.10 * 0.8 * 1.0
	if got := m.P[0].At(from, to); math.Abs(got-want) > 1e-12 {
		t.Errorf("P[s_on](%d,%d) = %g, want %g", from, to, got, want)
	}
	if got := m.P[1].At(from, to); got != 0 {
		t.Errorf("P[s_off](%d,%d) = %g, want 0", from, to, got)
	}
	// Same arrival but the request is enqueued instead: (on,1,1) under
	// s_off has probability p01 · p_on,on(s_off) · 1.
	toQ := sys.Index(State{SP: 0, SR: 1, Q: 1})
	want = 0.10 * 0.1 * 1.0
	if got := m.P[1].At(from, toQ); math.Abs(got-want) > 1e-12 {
		t.Errorf("P[s_off](%d,%d) = %g, want %g", from, toQ, got, want)
	}
}

func TestDefaultMetrics(t *testing.T) {
	sys := exampleSystem()
	m := buildExample(t)
	power, _ := m.Metric(MetricPower)
	penalty, _ := m.Metric(MetricPenalty)
	loss, _ := m.Metric(MetricLoss)
	service, _ := m.Metric(MetricService)

	iOn00 := sys.Index(State{SP: 0, SR: 0, Q: 0})
	if power.At(iOn00, 0) != 3 || power.At(iOn00, 1) != 4 {
		t.Errorf("power row (on,0,0) = %v", power.Row(iOn00))
	}
	iFull := sys.Index(State{SP: 1, SR: 1, Q: 1})
	if penalty.At(iFull, 0) != 1 {
		t.Errorf("penalty at full queue = %g, want 1", penalty.At(iFull, 0))
	}
	if loss.At(iFull, 0) != 1 {
		t.Errorf("loss at (off,1,full) = %g, want 1", loss.At(iFull, 0))
	}
	iNoReq := sys.Index(State{SP: 1, SR: 0, Q: 1})
	if loss.At(iNoReq, 0) != 0 {
		t.Errorf("loss with no requests = %g, want 0", loss.At(iNoReq, 0))
	}
	if service.At(iOn00, 0) != 0.8 || service.At(iOn00, 1) != 0 {
		t.Errorf("service row (on,·) = %v", service.Row(iOn00))
	}
	if _, err := m.Metric("nonsense"); err == nil {
		t.Errorf("unknown metric did not error")
	}
}

func TestCustomMetricHooks(t *testing.T) {
	sys := exampleSystem()
	sys.PenaltyFn = func(st State, cmd int) float64 {
		if st.SR == 1 && st.SP == 1 {
			return 1
		}
		return 0
	}
	sys.LossFn = func(st State, cmd int) float64 { return 2.5 }
	sys.ExtraMetrics = map[string]func(State, int) float64{
		"constant": func(State, int) float64 { return 7 },
	}
	m, err := sys.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	penalty, _ := m.Metric(MetricPenalty)
	i := sys.Index(State{SP: 1, SR: 1, Q: 0})
	if penalty.At(i, 0) != 1 {
		t.Errorf("custom penalty = %g, want 1", penalty.At(i, 0))
	}
	loss, _ := m.Metric(MetricLoss)
	if loss.At(0, 0) != 2.5 {
		t.Errorf("custom loss = %g", loss.At(0, 0))
	}
	extra, err := m.Metric("constant")
	if err != nil {
		t.Fatalf("extra metric: %v", err)
	}
	if extra.At(3, 1) != 7 {
		t.Errorf("extra metric = %g, want 7", extra.At(3, 1))
	}
}

func TestSPRowOverride(t *testing.T) {
	sys := exampleSystem()
	// Wake-on-request: when the SR is busy, the SP moves toward on
	// regardless of command.
	wake := mat.Vector{1, 0}
	sys.SPRow = func(p, cmd, r int) mat.Vector {
		if r == 1 && p == 1 {
			return wake
		}
		return nil // fall back to the SP matrix
	}
	m, err := sys.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	from := sys.Index(State{SP: 1, SR: 1, Q: 0})
	// Under s_off the SP would normally stay off; with the override all SP
	// mass lands on "on".
	massOn := 0.0
	for j := 0; j < m.N; j++ {
		if sys.StateOf(j).SP == 0 {
			massOn += m.P[1].At(from, j)
		}
	}
	if math.Abs(massOn-1) > 1e-12 {
		t.Errorf("override: mass on SP=on is %g, want 1", massOn)
	}
}

func TestSPRowOverrideValidation(t *testing.T) {
	sys := exampleSystem()
	sys.SPRow = func(p, cmd, r int) mat.Vector { return mat.Vector{0.5, 0.4} }
	if _, err := sys.Build(); err == nil {
		t.Errorf("non-distribution override accepted")
	}
	sys.SPRow = func(p, cmd, r int) mat.Vector { return mat.Vector{1} }
	if _, err := sys.Build(); err == nil {
		t.Errorf("short override accepted")
	}
}

// randomSystem builds a random but valid system for property tests.
func randomSystem(r *rand.Rand) *System {
	nsp := 2 + r.Intn(3)
	ncmd := 1 + r.Intn(3)
	nsr := 1 + r.Intn(3)
	qcap := r.Intn(3)

	spStates := make([]string, nsp)
	for i := range spStates {
		spStates[i] = string(rune('a' + i))
	}
	cmds := make([]string, ncmd)
	for i := range cmds {
		cmds[i] = string(rune('A' + i))
	}
	ps := make([]*mat.Matrix, ncmd)
	for a := range ps {
		p := mat.NewMatrix(nsp, nsp)
		for i := 0; i < nsp; i++ {
			row := p.Row(i)
			sum := 0.0
			for j := range row {
				row[j] = r.Float64() + 1e-6
				sum += row[j]
			}
			row.Scale(1 / sum)
		}
		ps[a] = p
	}
	rate := mat.NewMatrix(nsp, ncmd)
	pw := mat.NewMatrix(nsp, ncmd)
	for i := 0; i < nsp; i++ {
		for a := 0; a < ncmd; a++ {
			rate.Set(i, a, r.Float64())
			pw.Set(i, a, r.Float64()*5)
		}
	}

	srStates := make([]string, nsr)
	reqs := make([]int, nsr)
	for i := range srStates {
		srStates[i] = string(rune('0' + i))
		reqs[i] = r.Intn(3)
	}
	srP := mat.NewMatrix(nsr, nsr)
	for i := 0; i < nsr; i++ {
		row := srP.Row(i)
		sum := 0.0
		for j := range row {
			row[j] = r.Float64() + 1e-6
			sum += row[j]
		}
		row.Scale(1 / sum)
	}

	return &System{
		Name:     "random",
		SP:       &ServiceProvider{Name: "sp", States: spStates, Commands: cmds, P: ps, ServiceRate: rate, Power: pw},
		SR:       &ServiceRequester{Name: "sr", States: srStates, P: srP, Requests: reqs},
		QueueCap: qcap,
	}
}

// Property: composition of random valid components is row-stochastic for
// every command, and marginalizing the composed chain over (SP, queue)
// recovers the SR chain (the SR is autonomous).
func TestCompositionProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sys := randomSystem(r)
		m, err := sys.Build()
		if err != nil {
			return false
		}
		for _, p := range m.P {
			if p.CheckStochastic(1e-9) != nil {
				return false
			}
		}
		// SR marginal: for any composed state i with SR part r0, the total
		// probability of reaching SR part r1 must equal SR.P[r0][r1].
		for a := 0; a < m.A; a++ {
			for i := 0; i < m.N; i++ {
				st := sys.StateOf(i)
				for r1 := 0; r1 < sys.SR.N(); r1++ {
					total := 0.0
					for j := 0; j < m.N; j++ {
						if sys.StateOf(j).SR == r1 {
							total += m.P[a].At(i, j)
						}
					}
					if math.Abs(total-sys.SR.P.At(st.SR, r1)) > 1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDeltaAndUniform(t *testing.T) {
	d := Delta(4, 2)
	if d[2] != 1 || d.Sum() != 1 {
		t.Errorf("Delta = %v", d)
	}
	u := Uniform(5)
	if !u.IsDistribution(1e-12) || u[0] != 0.2 {
		t.Errorf("Uniform = %v", u)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Delta out of range did not panic")
		}
	}()
	Delta(3, 3)
}
