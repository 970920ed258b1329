package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4), lint-clean: every family gets exactly one # HELP and
// # TYPE line before its samples, counter families carry the _total
// suffix (the caller includes it in the name), and histograms emit the
// conventional cumulative _bucket/_sum/_count series. Write errors are
// sticky and surfaced by Err.
type PromWriter struct {
	w        io.Writer
	err      error
	families map[string]bool
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, families: make(map[string]bool)}
}

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Family emits the # HELP and # TYPE header of a metric family once; later
// calls for the same name are no-ops, so labeled series can share one
// header regardless of emission order.
func (p *PromWriter) Family(name, typ, help string) {
	if p.families[name] {
		return
	}
	p.families[name] = true
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Sample emits one sample line; labels is a pre-rendered `k="v",...` list
// (empty for unlabeled series).
func (p *PromWriter) Sample(name, labels string, v float64) {
	if labels == "" {
		p.printf("%s %s\n", name, formatValue(v))
		return
	}
	p.printf("%s{%s} %s\n", name, labels, formatValue(v))
}

// Histogram emits one histogram series under the family name: cumulative
// name_bucket{le="..."} lines, name_sum and name_count. Observations and
// bounds are multiplied by scale first (1e-9 converts recorded
// nanoseconds to the Prometheus base unit, seconds). labels, possibly
// empty, is attached to every line; Family is emitted on first use so
// several labeled series can share the family.
func (p *PromWriter) Histogram(name, help, labels string, s HistogramSnapshot, scale float64) {
	p.Family(name, "histogram", help)
	cum := int64(0)
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = formatValue(s.Bounds[i] * scale)
		}
		p.Sample(name+"_bucket", joinLabels(labels, `le="`+le+`"`), float64(cum))
	}
	p.Sample(name+"_sum", labels, s.Sum*scale)
	p.Sample(name+"_count", labels, float64(s.Count))
}

// Label renders one escaped label pair for Sample/Histogram labels
// arguments.
func Label(k, v string) string {
	var b strings.Builder
	b.WriteString(k)
	b.WriteString(`="`)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteString(`"`)
	return b.String()
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	return a + "," + b
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
