package obs

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync/atomic"
)

// Registry declares each served metric once — name, help, kind and, for a
// labelled family, one label with a fixed value set — and renders every
// surface from that declaration: Snapshot, the name → value map of the
// counters declared by Counter, Counters and Sum (a JSON stats surface), and
// WriteProm, the exposition of every family under the registry's name
// prefix, counters with the _total suffix, in declaration order.
//
// Declaring a name twice panics: it is a programming error, caught when the
// registry is built. Declaration is not safe for concurrent use; recording
// through the returned handles and rendering are.
type Registry struct {
	prefix   string
	families []family
	names    map[string]bool
}

type family struct {
	name string
	stat func() int64 // non-nil for the counters Snapshot carries
	prom func(p *PromWriter)
}

// NewRegistry returns an empty registry whose exposition names start with
// prefix.
func NewRegistry(prefix string) *Registry {
	return &Registry{prefix: prefix, names: make(map[string]bool)}
}

func (r *Registry) declare(name, help, kind string, stat func() int64, samples func(p *PromWriter, full string)) {
	if r.names[name] {
		panic(fmt.Sprintf("obs: metric %q declared twice", name))
	}
	r.names[name] = true
	full := r.prefix + name
	if kind == "counter" {
		full += "_total"
	}
	r.families = append(r.families, family{name: name, stat: stat, prom: func(p *PromWriter) {
		p.Family(full, kind, help)
		samples(p, full)
	}})
}

func (r *Registry) counter(name, help string, load func() int64) {
	r.declare(name, help, "counter", load, func(p *PromWriter, full string) { p.Sample(full, "", float64(load())) })
}

// Counter declares an unlabelled counter.
func (r *Registry) Counter(name, help string) *atomic.Int64 {
	c := new(atomic.Int64)
	r.counter(name, help, c.Load)
	return c
}

// Counters declares a Counter for each field of the struct v points to
// that carries a `metric:"name" help:"..."` tag, in field order, and stores
// it in the field, which must be an exported *atomic.Int64.
func (r *Registry) Counters(v any) {
	rv := reflect.ValueOf(v).Elem()
	for i := range rv.NumField() {
		f := rv.Type().Field(i)
		if name, ok := f.Tag.Lookup("metric"); ok {
			rv.Field(i).Set(reflect.ValueOf(r.Counter(name, f.Tag.Get("help"))))
		}
	}
}

// Sum declares an unlabelled counter whose value is the sum of a
// CounterVec's series at render time, so a total and its breakdown never
// count one fact twice.
func (r *Registry) Sum(name, help string, vec map[string]*atomic.Int64) {
	r.counter(name, help, func() int64 {
		var n int64
		for _, c := range vec {
			n += c.Load()
		}
		return n
	})
}

// CounterVec declares an exposition-only counter family with one label and
// returns its series by label value. The map is never written again, so
// readers need no lock.
func (r *Registry) CounterVec(name, help, label string, values []string) map[string]*atomic.Int64 {
	vec := make(map[string]*atomic.Int64, len(values))
	for _, v := range values {
		vec[v] = new(atomic.Int64)
	}
	r.declare(name, help, "counter", nil, func(p *PromWriter, full string) {
		for _, v := range values {
			p.Sample(full, Label(label, v), float64(vec[v].Load()))
		}
	})
	return vec
}

// Histograms declares an exposition-only histogram family and returns its
// series by label value, each built by newHist; an empty label declares one
// unlabelled series, keyed "". Observations and bounds are exposed
// multiplied by scale (1e-9 turns nanoseconds into seconds). The map is
// never written again.
func (r *Registry) Histograms(name, help, label string, values []string, scale float64, newHist func() *Histogram) map[string]*Histogram {
	if label == "" {
		values = []string{""}
	}
	hs := make(map[string]*Histogram, len(values))
	for _, v := range values {
		hs[v] = newHist()
	}
	r.declare(name, help, "histogram", nil, func(p *PromWriter, full string) {
		for _, v := range values {
			labels := ""
			if label != "" {
				labels = Label(label, v)
			}
			p.Histogram(full, help, labels, hs[v].Snapshot(), scale)
		}
	})
	return hs
}

// Reading declares an exposition-only "counter" or "gauge" whose value
// another component owns, read from fn at render time.
func (r *Registry) Reading(name, help, kind string, fn func() float64) {
	r.declare(name, help, kind, nil, func(p *PromWriter, full string) { p.Sample(full, "", fn()) })
}

// Gauges exposes each gauge of g, named at run time and so not checked
// against the declared names, as a gauge family of its own, in name order.
func (r *Registry) Gauges(help string, g *Gauges) {
	r.families = append(r.families, family{prom: func(p *PromWriter) {
		snap := g.Snapshot()
		for _, name := range slices.Sorted(maps.Keys(snap)) {
			p.Family(r.prefix+name, "gauge", help)
			p.Sample(r.prefix+name, "", float64(snap[name]))
		}
	}})
}

// Snapshot returns the value of every counter declared by Counter,
// Counters or Sum.
func (r *Registry) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(r.families))
	for _, f := range r.families {
		if f.stat != nil {
			out[f.name] = f.stat()
		}
	}
	return out
}

// WriteProm renders every family in declaration order.
func (r *Registry) WriteProm(p *PromWriter) {
	for _, f := range r.families {
		f.prom(p)
	}
}
