package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	ctx, tr := StartTrace(context.Background(), "POST /v1/optimize", "")
	if tr.ID == "" || len(tr.ID) != 32 {
		t.Fatalf("trace id %q, want 16-byte hex", tr.ID)
	}
	ctx1, cache := StartSpan(ctx, "cache")
	cache.Set("mode", "miss")
	cache.End()
	_ = ctx1
	ctx2, solve := StartSpan(ctx, "solve")
	_, build := StartSpan(ctx2, "build")
	time.Sleep(time.Millisecond)
	build.End()
	solve.Set("pivots", 42)
	solve.End()
	tr.Set("status", 200)
	tr.Finish()

	out := tr.Export()
	if out.Name != "POST /v1/optimize" || out.DurMS <= 0 {
		t.Fatalf("export %+v", out)
	}
	if len(out.Spans) != 2 {
		t.Fatalf("%d top-level spans, want 2 (cache, solve)", len(out.Spans))
	}
	if out.Spans[0].Name != "cache" || out.Spans[0].Attrs["mode"] != "miss" {
		t.Errorf("cache span %+v", out.Spans[0])
	}
	sv := out.Spans[1]
	if sv.Name != "solve" || sv.Attrs["pivots"] != 42 {
		t.Errorf("solve span %+v", sv)
	}
	if len(sv.Spans) != 1 || sv.Spans[0].Name != "build" {
		t.Fatalf("solve children %+v, want nested build span", sv.Spans)
	}
	if sv.Spans[0].DurMS > sv.DurMS {
		t.Errorf("child build (%.3fms) longer than parent solve (%.3fms)", sv.Spans[0].DurMS, sv.DurMS)
	}
	// Top-level span durations sum to at most the trace duration.
	sum := 0.0
	for _, s := range out.Spans {
		sum += s.DurMS
	}
	if sum > out.DurMS*1.001 {
		t.Errorf("span durations sum to %.3fms > trace %.3fms", sum, out.DurMS)
	}
}

// TestNoTraceIsNoop: span calls without an active trace must be safe and
// free of effects.
func TestNoTraceIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "solve")
	if sp != nil || ctx2 != ctx {
		t.Fatalf("StartSpan without trace: span %v", sp)
	}
	sp.Set("k", 1) // nil receivers must not panic
	sp.End()
	if TraceFrom(nil) != nil || TraceFrom(ctx) != nil {
		t.Errorf("TraceFrom invented a trace")
	}
	var tr *Trace
	tr.Finish()
	tr.Set("k", 1)
	if tr.Dropped() != 0 {
		t.Errorf("nil trace reports dropped spans")
	}
}

func TestReattach(t *testing.T) {
	src, tr := StartTrace(context.Background(), "req", "abc")
	src, parent := StartSpan(src, "solve")
	dst := Reattach(context.Background(), src)
	if TraceFrom(dst) != tr {
		t.Fatalf("Reattach lost the trace")
	}
	_, child := StartSpan(dst, "build")
	child.End()
	parent.End()
	tr.Finish()
	out := tr.Export()
	if len(out.Spans) != 1 || len(out.Spans[0].Spans) != 1 || out.Spans[0].Spans[0].Name != "build" {
		t.Errorf("reattached span did not nest under the source's current span: %+v", out.Spans)
	}
}

// TestTraceSpanCap: a runaway fan-out stops allocating spans at the cap
// and reports the overflow.
func TestTraceSpanCap(t *testing.T) {
	ctx, tr := StartTrace(context.Background(), "sweep", "")
	for i := 0; i < maxSpansPerTrace+100; i++ {
		_, sp := StartSpan(ctx, "point")
		sp.End()
	}
	tr.Finish()
	out := tr.Export()
	if len(out.Spans) != maxSpansPerTrace {
		t.Errorf("%d spans retained, want cap %d", len(out.Spans), maxSpansPerTrace)
	}
	if out.Dropped != 100 {
		t.Errorf("dropped = %d, want 100", out.Dropped)
	}
}

// TestTraceConcurrentSpans: parallel span creation (the sweep worker pool
// shape) is race-free and loses nothing below the cap.
func TestTraceConcurrentSpans(t *testing.T) {
	ctx, tr := StartTrace(context.Background(), "sweep", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				c, sp := StartSpan(ctx, "point")
				_, inner := StartSpan(c, "solve")
				inner.Set("pivots", i)
				inner.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	tr.Finish()
	// 8×25 point spans plus their nested solves = 400 spans, under the cap.
	if got := len(tr.Export().Spans); got != 200 {
		t.Errorf("%d top-level spans, want 200", got)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		_, tr := StartTrace(context.Background(), "req", string(rune('a'+i)))
		tr.Finish()
		r.Record(tr)
	}
	last := r.Last(0)
	if len(last) != 3 {
		t.Fatalf("%d retained, want 3", len(last))
	}
	if last[0].ID != "e" || last[2].ID != "c" {
		t.Errorf("order %s,%s,%s want newest first e,d,c", last[0].ID, last[1].ID, last[2].ID)
	}
	if got := r.Last(1); len(got) != 1 || got[0].ID != "e" {
		t.Errorf("Last(1) = %+v", got)
	}
	if _, ok := r.Find("d"); !ok {
		t.Errorf("Find(d) missed a retained trace")
	}
	if _, ok := r.Find("a"); ok {
		t.Errorf("Find(a) returned an evicted trace")
	}
}

// TestDebugfCarriesTraceID: the routed solver debug output must carry the
// request's trace ID.
func TestDebugfCarriesTraceID(t *testing.T) {
	var buf bytes.Buffer
	SetLogger(NewLogger(&buf))
	defer SetLogger(nil)

	ctx, tr := StartTrace(context.Background(), "req", "")
	tr.Request = "req-77"
	Debugf(ctx, "lp", "refactor %d nnz %d", 3, 120)
	Debugf(nil, "lu", "no trace context")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d log lines, want 2: %q", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("log line is not JSON: %v (%s)", err, lines[0])
	}
	if first["sub"] != "lp" || first["trace"] != tr.ID || first["request"] != "req-77" {
		t.Errorf("line %v missing sub/trace/request attribution", first)
	}
	if first["msg"] != "refactor 3 nnz 120" {
		t.Errorf("msg %v", first["msg"])
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("second line not JSON: %v", err)
	}
	if _, ok := second["trace"]; ok {
		t.Errorf("traceless Debugf invented a trace id: %v", second)
	}
}
