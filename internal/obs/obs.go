// Package obs is the observability layer of the repository: lightweight
// per-request span tracing carried via context.Context, lock-cheap
// log-bucketed histograms for latency and solver-work distributions, a
// structured JSON logger, a Prometheus text-exposition writer, and a
// metric registry that declares each served metric once.
//
// The package is a leaf — it imports only the standard library — so every
// layer (mat → lp → core → online → server → cmd) can use it without
// cycles. All entry points are nil-safe: code instrumented with spans or
// debug logging costs a context lookup and a nil check when no trace is
// active, which keeps the CLI and benchmark paths unobserved and
// allocation-free.
//
// The four surfaces:
//
//   - Tracing (trace.go): StartTrace opens a per-request Trace, StartSpan
//     nests timed spans under it through the context, and a Recorder ring
//     buffer retains the last N finished traces for retrieval (the serving
//     daemon's GET /v1/trace).
//   - Histograms (histogram.go): geometrically bucketed, atomic, mergeable;
//     quantile estimates are bounded by the bucket growth factor.
//   - Exposition (prom.go): lint-clean Prometheus text format — # HELP and
//     # TYPE lines, _total counter suffixes, _bucket/_sum/_count histogram
//     series.
//   - Registry (registry.go): each metric declared once — name, help, kind,
//     one optional label — and rendered from that declaration both as a
//     JSON counter snapshot and as the exposition.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
)

// DebugOn reports whether debug tracing is enabled for a subsystem: the
// environment variable strings.ToUpper(sub)+"DEBUG" is set and non-empty
// (LPDEBUG=1, LUDEBUG=1, ...). It is the single gate every env-enabled
// debug stream goes through, so all of them route their lines via Debugf
// and carry trace/request IDs instead of interleaving anonymously.
func DebugOn(sub string) bool {
	return os.Getenv(strings.ToUpper(sub)+"DEBUG") != ""
}

// defaultLogger is the process-wide structured logger used by Debugf and by
// callers that want a shared sink; it defaults to JSON lines on stderr at
// debug level so env-gated solver tracing (LPDEBUG/LUDEBUG) is visible
// without configuration.
var defaultLogger atomic.Pointer[slog.Logger]

func init() {
	defaultLogger.Store(NewLogger(os.Stderr))
}

// NewLogger returns a structured logger emitting one JSON object per line
// to w, down to debug level.
func NewLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// SetLogger replaces the process-wide logger (nil restores stderr JSON).
// It is the hook for tests and for daemons that own their log routing.
func SetLogger(l *slog.Logger) {
	if l == nil {
		l = NewLogger(os.Stderr)
	}
	defaultLogger.Store(l)
}

// Logger returns the process-wide structured logger.
func Logger() *slog.Logger { return defaultLogger.Load() }

// Debugf emits one structured debug line on the process logger, tagged with
// the subsystem and, when ctx carries an active trace, its trace and
// request IDs — this is how the solver's env-gated ad-hoc tracing
// (LPDEBUG/LUDEBUG) stays attributable to the request that triggered it
// instead of interleaving anonymously on stderr. ctx may be nil.
func Debugf(ctx context.Context, sub, format string, args ...any) {
	l := Logger()
	attrs := make([]slog.Attr, 0, 3)
	attrs = append(attrs, slog.String("sub", sub))
	if tr := TraceFrom(ctx); tr != nil {
		attrs = append(attrs, slog.String("trace", tr.ID))
		if tr.Request != "" {
			attrs = append(attrs, slog.String("request", tr.Request))
		}
	}
	l.LogAttrs(context.Background(), slog.LevelDebug, fmt.Sprintf(format, args...), attrs...)
}
