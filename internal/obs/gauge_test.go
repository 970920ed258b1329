package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestGauges(t *testing.T) {
	g := NewGauges()
	g.Add("solves_inflight", 0)
	g.Add("solves_inflight", 1)
	g.Add("solves_inflight_optimize", 1)
	g.Add("solves_inflight", -1)
	if v := g.Snapshot()["never_touched"]; v != 0 {
		t.Errorf("never_touched = %d, want 0", v)
	}
	if snap := g.Snapshot(); len(snap) != 2 || snap["solves_inflight"] != 0 || snap["solves_inflight_optimize"] != 1 {
		t.Errorf("snapshot %v, want solves_inflight=0 solves_inflight_optimize=1", snap)
	}

	// Nil registry: every method is a no-op.
	var nilG *Gauges
	nilG.Add("x", 1)
	if nilG.Snapshot() != nil {
		t.Error("nil Gauges.Snapshot not empty")
	}

	// Concurrent movement balances out (run with -race for the real check).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Add("conc", 1)
				g.Add("conc", -1)
			}
		}()
	}
	wg.Wait()
	if v := g.Snapshot()["conc"]; v != 0 {
		t.Errorf("conc = %d after balanced adds, want 0", v)
	}
}

func TestJournal(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 6; i++ {
		j.Record(Event{Kind: "solve_progress", Attrs: map[string]any{"i": i}})
	}
	last := j.Last(10)
	if len(last) != 4 {
		t.Fatalf("ring of 4 holds %d events", len(last))
	}
	// Newest first, oldest two overwritten.
	if last[0].Attrs["i"] != 5 || last[3].Attrs["i"] != 2 {
		t.Errorf("order wrong: first i=%v last i=%v, want 5 and 2", last[0].Attrs["i"], last[3].Attrs["i"])
	}
	for _, ev := range last {
		if ev.Time.IsZero() {
			t.Error("Record left Time unset")
		}
	}
	if got := j.Last(2); len(got) != 2 || got[0].Attrs["i"] != 5 {
		t.Errorf("Last(2) = %v", got)
	}

	// Explicit timestamps survive.
	stamp := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
	j.Record(Event{Kind: "solve_finished", Time: stamp})
	if got := j.Last(1)[0]; !got.Time.Equal(stamp) {
		t.Errorf("explicit time overwritten: %v", got.Time)
	}

	var nilJ *Journal
	nilJ.Record(Event{Kind: "x"})
	if got := nilJ.Last(3); len(got) != 0 {
		t.Errorf("nil journal returned %v", got)
	}
}

func TestRecorderDroppedSpans(t *testing.T) {
	rec := NewRecorder(4)
	ctx, tr := StartTrace(context.Background(), "sweep", "")
	for i := 0; i < maxSpansPerTrace+25; i++ {
		_, sp := StartSpan(ctx, "point")
		sp.End()
	}
	if d := tr.Dropped(); d != 25 {
		t.Fatalf("trace dropped %d spans, want 25", d)
	}
	tr.Finish()
	rec.Record(tr)
	if d := rec.DroppedSpans(); d != 25 {
		t.Errorf("recorder dropped_spans = %d, want 25", d)
	}
	// The serialized trace carries the count too.
	tj, ok := rec.Find(tr.ID)
	if !ok || tj.Dropped != 25 {
		t.Errorf("Find: ok=%v dropped=%d, want 25", ok, tj.Dropped)
	}

	// Under-cap traces contribute nothing.
	_, tr2 := StartTrace(context.Background(), "optimize", "")
	tr2.Finish()
	rec.Record(tr2)
	if d := rec.DroppedSpans(); d != 25 {
		t.Errorf("dropped_spans moved to %d after clean trace", d)
	}
}
