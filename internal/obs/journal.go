package obs

import (
	"sync"
	"time"
)

// Event is one structured solve-lifecycle record: a kind (started,
// refactored, stall, finished), the owning trace ID, and
// free-form attributes (pivots, objective, growth factor...). Events are
// slog-style — flat key/value, cheap to record — but retained in-process so
// the journal answers "what did that solve just do" without log scraping.
type Event struct {
	Time  time.Time      `json:"time"`
	Kind  string         `json:"kind"`
	Trace string         `json:"trace,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Journal is a bounded ring of solve events, newest overwriting oldest —
// the solve-event mirror of the trace Recorder. The zero value is not
// usable; create with NewJournal. Safe for concurrent use; a nil Journal
// ignores records and returns nothing.
type Journal struct {
	mu   sync.Mutex
	buf  []Event
	next int
	size int
}

// NewJournal returns a journal retaining the last n events (n <= 0
// defaults to 256).
func NewJournal(n int) *Journal {
	if n <= 0 {
		n = 256
	}
	return &Journal{buf: make([]Event, n)}
}

// Record appends an event, stamping Time if unset. Nil-safe.
func (j *Journal) Record(e Event) {
	if j == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	j.mu.Lock()
	j.buf[j.next] = e
	j.next = (j.next + 1) % len(j.buf)
	if j.size < len(j.buf) {
		j.size++
	}
	j.mu.Unlock()
}

// Last returns up to n retained events, newest first (n <= 0 means all).
func (j *Journal) Last(n int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, j.size)
	for i := 0; i < j.size; i++ {
		idx := (j.next - 1 - i + 2*len(j.buf)) % len(j.buf)
		out = append(out, j.buf[idx])
	}
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}
