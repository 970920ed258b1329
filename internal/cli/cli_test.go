package cli

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
	"repro/internal/mat"
)

func TestNewDeviceAll(t *testing.T) {
	for _, name := range DeviceNames() {
		d, err := NewDevice(name, 0.05, 0.2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := d.Sys.Build(); err != nil {
			t.Errorf("%s: Build: %v", name, err)
		}
		if d.Desc == "" {
			t.Errorf("%s: missing description", name)
		}
	}
	if _, err := NewDevice("toaster", 0, 0); err == nil {
		t.Errorf("unknown device accepted")
	}
}

func TestNewDeviceDefaultWorkload(t *testing.T) {
	d, err := NewDevice("disk", 0, 0)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	if d.Sys.SR.P.At(0, 1) != 0.05 {
		t.Errorf("default p01 = %g, want 0.05", d.Sys.SR.P.At(0, 1))
	}
}

func TestParseBound(t *testing.T) {
	b, err := ParseBound("penalty<=0.5")
	if err != nil {
		t.Fatalf("ParseBound: %v", err)
	}
	if b.Metric != "penalty" || b.Rel != lp.LE || b.Value != 0.5 {
		t.Errorf("bound = %+v", b)
	}
	b, err = ParseBound(" service >= 0.7 ")
	if err != nil {
		t.Fatalf("ParseBound: %v", err)
	}
	if b.Metric != "service" || b.Rel != lp.GE || b.Value != 0.7 {
		t.Errorf("bound = %+v", b)
	}
	for _, bad := range []string{"penalty=0.5", "<=0.5", "penalty<=abc"} {
		if _, err := ParseBound(bad); err == nil {
			t.Errorf("ParseBound(%q) accepted", bad)
		}
	}
}

func TestParseBounds(t *testing.T) {
	bs, err := ParseBounds("penalty<=0.5,loss<=0.1")
	if err != nil {
		t.Fatalf("ParseBounds: %v", err)
	}
	if len(bs) != 2 || bs[1].Metric != "loss" {
		t.Errorf("bounds = %+v", bs)
	}
	if bs, err := ParseBounds(""); err != nil || bs != nil {
		t.Errorf("empty bounds = %v, %v", bs, err)
	}
	if _, err := ParseBounds("penalty<=0.5,bogus"); err == nil {
		t.Errorf("bad list accepted")
	}
}

func TestParseFloats(t *testing.T) {
	fs, err := ParseFloats("0.1, 0.2,0.3")
	if err != nil || len(fs) != 3 || fs[2] != 0.3 {
		t.Errorf("ParseFloats = %v, %v", fs, err)
	}
	if _, err := ParseFloats(""); err == nil {
		t.Errorf("empty list accepted")
	}
	if _, err := ParseFloats("a,b"); err == nil {
		t.Errorf("garbage accepted")
	}
}

func TestPrintHelpers(t *testing.T) {
	d, err := NewDevice("example", 0, 0)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	m, err := d.Sys.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res, err := core.Optimize(m, core.Options{
		Alpha:          0.999,
		Objective:      core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		Bounds:         []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: 0.5}},
		SkipEvaluation: true,
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	var sb strings.Builder
	if err := PrintPolicy(&sb, d.Sys, res); err != nil {
		t.Fatalf("PrintPolicy: %v", err)
	}
	if !strings.Contains(sb.String(), "(on,0,0)") {
		t.Errorf("policy output missing state names:\n%s", sb.String())
	}
	sb.Reset()
	PrintAverages(&sb, res.Averages)
	if !strings.Contains(sb.String(), "power") {
		t.Errorf("averages output missing power:\n%s", sb.String())
	}
}

// TestFingerprintGolden pins the content fingerprint of every preset, plus a
// 256-state SR whose dense matrix spans many of the canonical writer's
// buffer flushes. Persisted cache files are keyed by these digests, so a
// change to the canonical encoding must show up here, not as silently
// orphaned cache entries.
func TestFingerprintGolden(t *testing.T) {
	want := map[string]string{
		"example":       "c8df301c0747be3021e85c453e091fb70cbf680013e3fc3eec74121548af82a9",
		"baseline":      "7a609864fac8d95a4fd4ce772e48c2577b71020b913aa53f3ff0218849ab4bfc",
		"disk":          "cd7dcd9eb54150a9bfb9330fdb362e183ac9de133bf054f0a0912f971ee74143",
		"webserver":     "06ed9a34e9c8683615d8cd8831bd1ab90eedca4f71e851eefd9b83c9792876e5",
		"cpu":           "72dc44f474ec14278040a0f2786c526e0c5bf3f893bcae6906e59576b7b8a8d3",
		"multidisk":     "bf3d569f6686021c35aa0ebaff0800301d4b2ae05f22917d88894a93d6623125",
		"heterogeneous": "10810e87c72a27961caec60ef3d1233a4ca0c0be74f3fa595ff55e1d9ad8bb6f",
	}
	if len(DeviceNames()) != len(want) {
		t.Fatalf("%d presets, %d pinned digests", len(DeviceNames()), len(want))
	}
	for _, name := range DeviceNames() {
		d, err := NewDevice(name, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fp, err := d.Sys.Fingerprint()
		if err != nil {
			t.Fatalf("%s: Fingerprint: %v", name, err)
		}
		if fp != want[name] {
			t.Errorf("%s: fingerprint %s, pinned %s", name, fp, want[name])
		}
	}

	const n = 256
	p := mat.NewMatrix(n, n)
	for i := range p.Data {
		p.Data[i] = 1 / float64(n)
	}
	sr := &core.ServiceRequester{Name: "uniform", States: make([]string, n), P: p, Requests: make([]int, n)}
	for i := range sr.States {
		sr.States[i] = fmt.Sprintf("r%d", i)
		sr.Requests[i] = i % 2
	}
	sys := devices.ExampleSystem()
	sys.SR = sr
	fp, err := sys.Fingerprint()
	if err != nil {
		t.Fatalf("uniform SR: Fingerprint: %v", err)
	}
	if want := "519f645e9a72c9704ab888db65f242588987141a8f84eb6443e8a9b7bc9a7565"; fp != want {
		t.Errorf("uniform %d-state SR: fingerprint %s, pinned %s", n, fp, want)
	}
}
