package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
)

// layers lists the per-layer table's rows in stack order. "unattributed" is
// the root span's own time: bench code between calls into a layer.
var layers = []string{"http", "server", "online", "sweep", "core", "lp", "mat", "unattributed"}

// span is one timed call into a layer, recorded by bench code around a
// public function. Inner holds time spent below the span's own layer inside
// it that no live span could cover, by layer: the solver's stage timings
// (mat kernels, lp pricing) and durations measured by replaying the call.
type span struct {
	Name   string                   `json:"name"`
	Layer  string                   `json:"layer"`
	Parent int                      `json:"parent"` // index into the op's spans, -1 for the root
	Start  time.Duration            `json:"start_ns"`
	End    time.Duration            `json:"end_ns"`
	Inner  map[string]time.Duration `json:"inner_ns,omitempty"`
}

// opTrace records the spans of one op. A nil *opTrace records nothing, so
// untraced and traced ops share code. Spans may be recorded from several
// goroutines (sweep workers); times are offsets from the op's start.
type opTrace struct {
	ID    int    `json:"op"`
	Spans []span `json:"spans"`
	mu    sync.Mutex
	t0    time.Time
}

// newOp starts an op: span 0 is its root.
func newOp(id int) *opTrace {
	o := &opTrace{ID: id, t0: time.Now()}
	o.Spans = []span{{Name: "op", Layer: "unattributed", Parent: -1}}
	return o
}

func (o *opTrace) begin(parent int, name, layer string) int {
	if o == nil {
		return -1
	}
	now := time.Since(o.t0)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.Spans = append(o.Spans, span{Name: name, Layer: layer, Parent: parent, Start: now})
	return len(o.Spans) - 1
}

func (o *opTrace) end(i int) {
	if o == nil {
		return
	}
	now := time.Since(o.t0)
	o.mu.Lock()
	o.Spans[i].End = now
	o.mu.Unlock()
}

// finish ends the root span.
func (o *opTrace) finish() { o.end(0) }

func (o *opTrace) addInner(i int, layer string, d time.Duration) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.Spans[i].Inner == nil {
		o.Spans[i].Inner = map[string]time.Duration{}
	}
	o.Spans[i].Inner[layer] += d
}

// attribute splits the op's wall time among layers. At each instant the
// time goes in equal shares to the innermost spans open then (several when
// goroutines run in parallel). A span's share is then split between the
// layers its Inner names and its own layer, scaling Inner by the share of
// the span's exclusive time it received. The parts sum to the root's wall
// time; a layer's part is negative only when a replayed duration exceeded
// the live time it is carved from. Parts are in nanoseconds.
func (o *opTrace) attribute() map[string]float64 {
	type event struct {
		at   time.Duration
		span int
		open bool
	}
	sp := o.Spans
	events := make([]event, 0, 2*len(sp))
	for i, s := range sp {
		events = append(events, event{s.Start, i, true}, event{s.End, i, false})
	}
	slices.SortStableFunc(events, func(a, b event) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		if a.open != b.open { // close before open at equal times
			if a.open {
				return 1
			}
			return -1
		}
		return 0
	})
	self := make([]float64, len(sp))
	open := make([]bool, len(sp))
	openChildren := make([]int, len(sp))
	for k, e := range events {
		if e.open {
			open[e.span] = true
			if p := sp[e.span].Parent; p >= 0 {
				openChildren[p]++
			}
		} else {
			open[e.span] = false
			if p := sp[e.span].Parent; p >= 0 {
				openChildren[p]--
			}
		}
		if k+1 == len(events) {
			break
		}
		dt := float64(events[k+1].at - e.at)
		if dt <= 0 {
			continue
		}
		var innermost []int
		for i := range sp {
			if open[i] && openChildren[i] == 0 {
				innermost = append(innermost, i)
			}
		}
		for _, i := range innermost {
			self[i] += dt / float64(len(innermost))
		}
	}

	exclusive := make([]time.Duration, len(sp))
	for i, s := range sp {
		exclusive[i] += s.End - s.Start
		if s.Parent >= 0 {
			exclusive[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]float64, len(layers))
	for i, s := range sp {
		own := self[i]
		if len(s.Inner) > 0 && exclusive[i] > 0 {
			scale := self[i] / float64(exclusive[i])
			for layer, d := range s.Inner {
				part := float64(d) * scale
				out[layer] += part
				own -= part
			}
		}
		out[s.Layer] += own
	}
	return out
}

// keepSpans bounds how many traced ops' spans go into the span file.
const keepSpans = 200

// layerStats accumulates the traced ops of one run.
type layerStats struct {
	ops        int
	sum        map[string]float64 // attributed nanoseconds per layer over all traced ops
	traced     []time.Duration    // wall time of each traced op
	untraced   []time.Duration    // untraced wall time of the same op
	lpOther    time.Duration      // solver time outside its timed stages, summed
	mismatches int                // replays whose pivot count differed from the op's
	kept       []*opTrace
}

func newLayerStats() *layerStats {
	return &layerStats{sum: map[string]float64{}}
}

// add records a finished traced op next to the untraced wall time of the
// same op.
func (ls *layerStats) add(o *opTrace, untraced time.Duration) {
	ls.ops++
	ls.traced = append(ls.traced, o.Spans[0].End)
	ls.untraced = append(ls.untraced, untraced)
	for layer, d := range o.attribute() {
		ls.sum[layer] += d
	}
	if len(ls.kept) < keepSpans {
		ls.kept = append(ls.kept, o)
	}
}

// lpInner attributes one solve inside span i: the mat kernels (FTRAN, BTRAN,
// factor, update) and lp pricing from the solve's own stage timings, plus
// lp's untimed glue (ratio tests, bookkeeping) measured by a replay of the
// same solve: replay wall time minus the replay's stage times.
func (ls *layerStats) lpInner(o *opTrace, i int, t lp.Timings, replayWall time.Duration, replay lp.Timings) {
	glue := replayWall - replay.Total()
	o.addInner(i, "mat", t.Ftran+t.Btran+t.Factor+t.Update)
	o.addInner(i, "lp", t.Price+glue)
	ls.lpOther += glue
}

// replayLP re-runs one solve exactly as core.OptimizeProblemCtx runs it
// (default solver, same problem and warm basis) and times it. The first run
// only warms caches, as the op's own solve found them warm; the second is
// timed.
func replayLP(prob *lp.Problem, warm *lp.Basis) (time.Duration, *lp.Solution, error) {
	if _, _, err := lp.NewSolver().Solve(context.Background(), prob, warm); err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	sol, _, err := lp.NewSolver().Solve(context.Background(), prob, warm)
	return time.Since(t0), sol, err
}

// replaySolve is replayLP for a solve whose pivot count is known; a replay
// that pivots differently counts as a mismatch.
func (ls *layerStats) replaySolve(prob *lp.Problem, warm *lp.Basis, wantPivots int) (time.Duration, *lp.Solution, error) {
	wall, sol, err := replayLP(prob, warm)
	if err != nil {
		return 0, nil, fmt.Errorf("replaying solve: %w", err)
	}
	if sol.Iterations != wantPivots {
		ls.mismatches++
	}
	return wall, sol, nil
}

// replayExtract times core.OptimizeProblemCtx on the inputs of a solve just
// replayed in lpWall; the difference is core's own share of the call
// (policy extraction, metric averages).
func replayExtract(m *core.Model, opts core.Options, prob *lp.Problem, lpWall time.Duration) (time.Duration, error) {
	t0 := time.Now()
	if _, err := core.OptimizeProblemCtx(context.Background(), m, opts, prob); err != nil {
		return 0, fmt.Errorf("replaying optimize: %w", err)
	}
	return time.Since(t0) - lpWall, nil
}

// metrics adds the attribution and tracing metrics.
func (ls *layerStats) metrics(into map[string]metric) {
	total := sumOf(ls.traced)
	for _, layer := range layers {
		frac := 0.0
		if total > 0 {
			frac = ls.sum[layer] / float64(total)
		}
		into["attr."+layer+"_frac"] = metric{frac, "frac"}
	}
	n := float64(max(1, ls.ops))
	into["trace.op_ms"] = metric{ms(total) / n, "ms"}
	into["trace.overhead_frac"] = metric{float64(median(ls.traced))/float64(median(ls.untraced)) - 1, "ratio"}
	into["trace.replay_mismatches"] = metric{float64(ls.mismatches), "count"}
}

// write saves the kept spans and the per-layer table, and prints the table.
func (ls *layerStats) write(dir, workload string, seed int64) error {
	n := float64(max(1, ls.ops))
	opMS := ms(sumOf(ls.traced)) / n
	table := map[string]float64{}
	fmt.Printf("# per-layer self time per traced op (%d ops)\n", ls.ops)
	var sum float64
	for _, layer := range layers {
		table[layer] = ls.sum[layer] / 1e6 / n
		sum += table[layer]
		fmt.Printf("#   %-13s %10.4f ms\n", layer, table[layer])
	}
	fmt.Printf("#   %-13s %10.4f ms (traced op wall %.4f ms)\n", "sum", sum, opMS)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(map[string]any{
		"workload":   workload,
		"seed":       seed,
		"traced_ops": ls.ops,
		"op_ms":      opMS,
		"layers_ms":  table,
		"ops":        ls.kept,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("# spans written to %s\n", path)
	return nil
}

func sumOf(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
