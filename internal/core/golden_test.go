package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/devices"
)

// hashModel digests a compiled model bit-for-bit: its dimensions, every
// chain's rows (pattern and value bits, in row order) and every metric table
// (in name order).
func hashModel(m *core.Model) string {
	h := sha256.New()
	put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	put(uint64(m.N))
	put(uint64(m.A))
	for _, p := range m.P {
		for i := 0; i < m.N; i++ {
			cols, vals := p.RowNZ(i)
			put(uint64(len(cols)))
			for k, j := range cols {
				put(uint64(j))
				put(math.Float64bits(vals[k]))
			}
		}
	}
	names := make([]string, 0, len(m.Metrics))
	for name := range m.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t := m.Metrics[name]
		h.Write([]byte(name))
		put(uint64(t.Rows))
		put(uint64(t.Cols))
		for _, v := range t.Data {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildGolden pins System.Build's output bit-for-bit with digests taken
// before Build and PatchModel shared one row generator. The patch tests
// compare the two sinks of that generator with each other, so this pin is
// what catches a change to the compiled chains or metric tables themselves.
// It covers every cli preset, a CPU system using every hook (SPRow,
// PenaltyFn, LossFn and an extra metric) and the five-device heterogeneous
// composite.
func TestBuildGolden(t *testing.T) {
	want := map[string]string{
		"baseline":         "e4207bea9164521b8ab037e45d17040f12b2ef27467f9a1b27185a1a5b2d4a82",
		"cpu":              "d518a53c8953ba065386bffcf5fcdf9cecb7f7c9c7fcc8c69bd7dc9c3dfaca71",
		"cpu-all-hooks":    "1db2405608c74fdc5f9c9545edc4d0651e8c3cd8bca9705e87799edb6e6e4227",
		"disk":             "461ef1d79109bdaadcd08a09c93bbe903f9dfe5b49883e484e48b62d9f840737",
		"example":          "46dd3eb53848c5db3d8f6f80ebd439991c47c8ce23bc3a24e0da33d7d914a683",
		"heterogeneous":    "515cbba5f3f27a52d973fbe48c8c419bef3a33c469e4fdd3cb31b643210fafcb",
		"heterogeneous-k5": "270575bc34f1c81987c4cf25b22e51588be113140c02ed381cd499d4963648fb",
		"multidisk":        "1221484fbdaf229659ece4abd1137bf94c6b02e87bf57fdafb7749b699635329",
		"webserver":        "da7da4653ce51928d401fd54208727fb5cd1c31b2596d19dd225323e9fc0a536",
	}
	systems := map[string]*core.System{}
	for _, name := range cli.DeviceNames() {
		dev, err := cli.NewDevice(name, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		systems[name] = dev.Sys
	}
	hooked := devices.CPUSystem(core.TwoStateSR("w", 0.2, 0.4))
	hooked.ExtraMetrics = map[string]func(core.State, int) float64{
		"sleep-busy": func(st core.State, cmd int) float64 {
			return float64(st.SP*3+st.SR) + 0.1*float64(cmd)
		},
	}
	systems["cpu-all-hooks"] = hooked
	k5, err := devices.HeterogeneousSystem(5, 0, core.TwoStateSR("w", 0.05, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	systems["heterogeneous-k5"] = k5

	if len(systems) != len(want) {
		t.Fatalf("%d systems, %d pinned digests", len(systems), len(want))
	}
	for name, sys := range systems {
		m, err := sys.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := hashModel(m); got != want[name] {
			t.Errorf("%s: Build digest %s, want %s", name, got, want[name])
		}
	}
}
