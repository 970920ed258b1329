package cli

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/lp"
)

// ProgressMonitor returns an lp.Monitor that prints flight-recorder
// snapshots to w, one line per snapshot, rate-limited to one line per
// interval of wall clock (interval <= 0 defaults to 500ms). The limit
// applies across events and across concurrent solves sharing the monitor
// (sweep workers, repeated experiment solves), so a batch of sub-second
// solves stays quiet while a long solve reports steadily. Intended for the
// -progress flag of the CLIs; the stream is diagnostic, so it normally goes
// to stderr.
func ProgressMonitor(w io.Writer, interval time.Duration) lp.Monitor {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	var mu sync.Mutex
	var last time.Time
	return lp.MonitorFunc(func(sn lp.Snapshot) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if now.Sub(last) < interval {
			return
		}
		last = now
		fmt.Fprintf(w, "solve %-8s %-6s pivots=%d refactor=%d obj=%.6g pinf=%.2e dinf=%.2e eta=%d nnz=%d elapsed=%s\n",
			sn.Event, sn.Phase, sn.Pivots, sn.Refactorizations, sn.Objective,
			sn.PrimalInf, sn.DualInf, sn.EtaLen, sn.FactorNNZ,
			sn.Elapsed.Round(time.Millisecond))
	})
}
