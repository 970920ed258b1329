package obs

import (
	"maps"
	"sync"
)

// Gauges is a registry of named in-flight gauges: integers that move up
// when work starts and down when it finishes (solves in flight, per
// endpoint). Unlike the histograms, which only see completed work, a gauge
// is readable mid-flight — it is the "what is happening right now" surface
// mirrored on /v1/stats and /metrics. The zero value is not usable; create
// with NewGauges. All methods are safe for concurrent use.
type Gauges struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewGauges returns an empty gauge registry.
func NewGauges() *Gauges {
	return &Gauges{m: make(map[string]int64)}
}

// Add moves the named gauge by delta, creating it at zero first. Nil-safe.
func (g *Gauges) Add(name string, delta int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.m[name] += delta
	g.mu.Unlock()
}

// Snapshot returns a copy of every gauge by name.
func (g *Gauges) Snapshot() map[string]int64 {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return maps.Clone(g.m)
}
