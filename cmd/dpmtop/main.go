// Command dpmtop is a polling terminal watcher over a running dpmserved
// daemon: it renders the live solve flight-recorder table (GET /v1/solves)
// together with the aggregate serving counters (GET /v1/stats), refreshing
// in place like top. Each in-flight solve shows its phase, pivot count,
// current objective, infeasibility norms and per-stage time split as the
// simplex runs; finished solves leave the table, and the most recent
// solve-journal events scroll underneath.
//
// Usage:
//
//	dpmtop [-url http://127.0.0.1:8080] [-interval 1s] [-n 0] [-plain]
//
// -n bounds the number of refreshes (0: until interrupted); -n 1 -plain is
// a one-shot snapshot suitable for scripts and smoke tests. -plain disables
// the ANSI clear-screen between refreshes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "base URL of the dpmserved daemon")
	interval := flag.Duration("interval", time.Second, "refresh interval")
	n := flag.Int("n", 0, "number of refreshes (0: until interrupted)")
	plain := flag.Bool("plain", false, "append refreshes instead of clearing the screen")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, *url, *interval, *n, *plain); err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "dpmtop: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, w io.Writer, url string, interval time.Duration, n int, plain bool) error {
	client := &http.Client{Timeout: 10 * time.Second}
	var prev *server.StatsResponse
	var prevAt time.Time
	for i := 0; n == 0 || i < n; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(interval):
			}
		}
		var solves server.SolvesResponse
		if err := getJSON(ctx, client, url+"/v1/solves", &solves); err != nil {
			return err
		}
		var stats server.StatsResponse
		if err := getJSON(ctx, client, url+"/v1/stats", &stats); err != nil {
			return err
		}
		if !plain {
			fmt.Fprint(w, "\033[H\033[2J")
		}
		render(w, url, &solves, &stats, prev, prevAt)
		prev, prevAt = &stats, time.Now()
	}
	return nil
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func render(w io.Writer, url string, solves *server.SolvesResponse, stats, prev *server.StatsResponse, prevAt time.Time) {
	pivotRate := ""
	if prev != nil {
		dt := time.Since(prevAt).Seconds()
		if dt > 0 {
			dp := stats.Counters["pivots"] - prev.Counters["pivots"]
			pivotRate = fmt.Sprintf("  %.0f pivots/s", float64(dp)/dt)
		}
	}
	fmt.Fprintf(w, "dpmtop %s  up %s  models %d  cache %d  inflight %d  dropped_spans %d%s\n",
		url, (time.Duration(stats.UptimeS * float64(time.Second))).Round(time.Second),
		stats.Models, stats.CacheSize, stats.Gauges["solves_inflight"], stats.DroppedSpans, pivotRate)
	fmt.Fprintf(w, "served: optimize %d  sweep %d  observe %d  hits %d  warm %d  cold %d  shared %d  cancelled %d\n",
		stats.Counters["optimize_queries"], stats.Counters["sweep_queries"], stats.Counters["observe_requests"],
		stats.Counters["exact_hits"], stats.Counters["warm_solves"], stats.Counters["cold_solves"],
		stats.Counters["shared_solves"], stats.Counters["cancelled_solves"])
	fmt.Fprintln(w)

	if len(solves.Solves) == 0 {
		fmt.Fprintln(w, "no solves in flight")
	} else {
		fmt.Fprintf(w, "%4s  %-8s  %-16s  %-7s  %-8s  %8s  %6s  %14s  %9s  %7s  %9s\n",
			"ID", "ENDPOINT", "MODEL", "PHASE", "EVENT", "PIVOTS", "REFACT", "OBJECTIVE", "PINF", "ETA", "ELAPSED")
		for _, s := range solves.Solves {
			model := s.Model
			if len(model) > 16 {
				model = model[:16]
			}
			fmt.Fprintf(w, "%4d  %-8s  %-16s  %-7s  %-8s  %8d  %6d  %14.6g  %9.2e  %7d  %8.1fs\n",
				s.ID, s.Endpoint, model, s.Phase, s.Event, s.Pivots, s.Refactorizations,
				s.Objective, s.PrimalInf, s.EtaLen, s.ElapsedMS/1000)
			if len(s.Stages) > 0 {
				keys := make([]string, 0, len(s.Stages))
				for k := range s.Stages {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				parts := make([]string, 0, len(keys))
				for _, k := range keys {
					parts = append(parts, fmt.Sprintf("%s %.0fms", k, s.Stages[k]))
				}
				fmt.Fprintf(w, "      stages: %s\n", strings.Join(parts, "  "))
			}
		}
	}

	if len(solves.Events) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "recent solve events:")
		max := len(solves.Events)
		if max > 8 {
			max = 8
		}
		for _, ev := range solves.Events[:max] {
			model, _ := ev.Attrs["model"].(string)
			pivots, _ := ev.Attrs["pivots"].(float64)
			fmt.Fprintf(w, "  %s  %-16s  %-16s  pivots %.0f  trace %s\n",
				ev.Time.Format("15:04:05.000"), ev.Kind, model, pivots, ev.Trace)
		}
	}
}
