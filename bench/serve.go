package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/online"
	"repro/internal/server"
)

// serve-mixed drives dpmserved over HTTP with the seeded 5:2:2:1
// hit/warm/cold/observe mix on the "disk" preset, from this process over at
// most two connections. One daemon serves three phases: a warm-up, a closed
// loop (its request rate is ops_per_s; the daemon's CPU time and allocation
// over it give cpu_ms_per_op and alloc_kb_per_op), and an open loop at a
// fixed arrival rate (its latencies are op_p50_ms and op_p90_ms). It
// exercises the server layer (fingerprint, cache, singleflight, JSON) and
// HTTP; the solves are small disk LPs.
const (
	serveWarmup        = 400
	serveClosedPerSec  = 800  // closed-phase requests per second of -seconds
	serveOpenShare     = 0.4  // share of -seconds in the open phase
	serveOpenRate      = 300  // open-phase arrivals per second
	serveCheckShare    = 0.01 // share of optimize replies re-solved in process
	serveTracedPerSec  = 300  // requests replayed in process per second of -seconds
	serveTraceEvery    = 4    // the traced run traces every 4th request
	serveDaemonStarts  = 7
	serveHealthTimeout = 30 * time.Second
)

// target is the server under load: a dpmserved process, or an in-process
// server for tests.
type target struct {
	url   string
	stats func() (map[string]int64, error)
	usage func() (usage, error)
	stop  func() error
}

func runServeMixed(cfg config) (*report, error) {
	if cfg.trace {
		return traceServe(cfg)
	}
	ctx := context.Background()
	nClosed := opCount(cfg.seconds, serveClosedPerSec, 2)
	nOpen := opCount(cfg.seconds*serveOpenShare, serveOpenRate, 2)
	reqs, err := serveRequests(cfg.seed, serveWarmup+nClosed+nOpen)
	if err != nil {
		return nil, err
	}
	var tg *target
	setup, err := timeSetup(serveDaemonStarts, func() error {
		if tg != nil {
			if err := tg.stop(); err != nil {
				return fmt.Errorf("stopping daemon: %w", err)
			}
		}
		var err error
		tg, err = startTarget(cfg.daemon)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if tg != nil {
			tg.stop()
		}
	}()
	rep := &report{setup: setup}
	client := newClient()
	defer client.CloseIdleConnections()

	warm, _ := closedLoop(ctx, client, tg.url, reqs[:serveWarmup], time.Now().Add(measureCap(cfg.seconds)))
	before, err := tg.stats()
	if err != nil {
		return nil, err
	}
	u0, err := tg.usage()
	if err != nil {
		return nil, err
	}
	closed, wall := closedLoop(ctx, client, tg.url, reqs[serveWarmup:serveWarmup+nClosed],
		time.Now().Add(measureCap(cfg.seconds*(1-serveOpenShare))))
	u1, err := tg.usage()
	if err != nil {
		return nil, err
	}
	open := openLoop(ctx, client, tg.url, reqs[serveWarmup+nClosed:], serveOpenRate,
		time.Now().Add(measureCap(cfg.seconds*serveOpenShare)))
	after, err := tg.stats()
	if err != nil {
		return nil, err
	}
	err = tg.stop()
	tg = nil
	if err != nil {
		return nil, fmt.Errorf("stopping daemon: %w", err)
	}

	all := append(append(warm, closed...), open...)
	if rep.attempted, rep.failed, err = checkReplies(cfg.seed, reqs, all); err != nil {
		return nil, err
	}
	sentClosed := 0
	for _, s := range closed {
		if s.sent {
			sentClosed++
		}
	}
	rep.opsPerSec = float64(sentClosed) / wall.Seconds()
	for _, s := range open {
		if s.sent {
			rep.lat = append(rep.lat, s.lat)
		}
	}
	// The daemon's usage per request is measured over the closed phase: a
	// busy daemon, where CPU time is not diluted by idle wake-ups.
	rep.cost, rep.costOps = u1.sub(u0), sentClosed
	printServeDetail(closed, open, reqs[serveWarmup+nClosed:], before, after)
	return rep, nil
}

// startTarget starts dpmserved on a free loopback port and waits for its
// health check; with no binary it serves in process.
func startTarget(bin string) (*target, error) {
	if bin == "" {
		srv, err := server.New(server.Config{})
		if err != nil {
			return nil, err
		}
		hs := httptest.NewServer(srv.Handler())
		return &target{url: hs.URL,
			stats: func() (map[string]int64, error) { return srv.Stats(), nil },
			usage: func() (usage, error) { return usageSelf(), nil },
			stop:  func() error { hs.Close(); return nil }}, nil
	}
	// The pprof listener (-debug-addr) is how the daemon's heap allocation
	// total is read.
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	drained := make(chan struct{})
	stop := func() error {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		select {
		case <-drained:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-drained
		}
		return cmd.Wait()
	}
	sc := bufio.NewScanner(stdout)
	addr, pprof := "", ""
	for addr == "" && sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "dpmserved: pprof on "); ok {
			pprof = rest
		}
		if rest, ok := strings.CutPrefix(sc.Text(), "dpmserved: listening on "); ok {
			addr = rest
		}
	}
	go func() {
		io.Copy(io.Discard, stdout) // until the daemon exits
		close(drained)
	}()
	if addr == "" || pprof == "" {
		cmd.Process.Kill()
		<-drained
		cmd.Wait()
		return nil, fmt.Errorf("dpmserved printed no listening or pprof address")
	}
	pid := strconv.Itoa(cmd.Process.Pid)
	tg := &target{url: addr, stop: stop,
		stats: func() (map[string]int64, error) { return daemonStats(addr) },
		usage: func() (usage, error) { return daemonUsage(pid, pprof) }}
	deadline := time.Now().Add(serveHealthTimeout)
	for {
		resp, err := http.Get(addr + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return tg, nil
			}
		}
		if time.Now().After(deadline) {
			stop()
			return nil, fmt.Errorf("dpmserved not healthy after %v", serveHealthTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func daemonStats(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return body.Counters, nil
}

// daemonUsage reads the daemon's CPU time from /proc and its heap
// allocation total from the runtime.MemStats its pprof heap page prints.
func daemonUsage(pid, pprof string) (usage, error) {
	cpu, err := cpuOf(pid)
	if err != nil {
		return usage{}, err
	}
	resp, err := http.Get(pprof + "heap?debug=1")
	if err != nil {
		return usage{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			alloc, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return usage{}, fmt.Errorf("parsing TotalAlloc %q: %w", v, err)
			}
			return usage{cpu, alloc}, nil
		}
	}
	if err := sc.Err(); err != nil {
		return usage{}, err
	}
	return usage{}, fmt.Errorf("no TotalAlloc in %sheap?debug=1", pprof)
}

// checkReplies counts failed requests: transport errors, non-2xx replies,
// optimize replies that are not optimal, observe replies whose refresh
// failed, and — for a seeded sample of about 1% of optimize replies — an
// objective that differs by more than 1e-8 from core.Optimize on the same
// model and options in this process.
func checkReplies(seed int64, reqs []request, got []sample) (attempted, failed int, err error) {
	d, err := cli.NewDevice("disk", 0, 0)
	if err != nil {
		return 0, 0, err
	}
	m, err := d.Sys.Build()
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ref := map[string]float64{} // local objective by request body
	for i, s := range got {
		if !s.sent {
			continue
		}
		attempted++
		r := &reqs[i]
		err := s.err
		switch {
		case err != nil:
		case r.kind == kindObserve:
			if s.reply.RefreshError != "" {
				err = fmt.Errorf("refresh failed: %s", s.reply.RefreshError)
			}
		case s.reply.Status != "optimal" || !s.reply.Feasible:
			err = fmt.Errorf("status %q", s.reply.Status)
		case rng.Float64() < serveCheckShare:
			want, ok := ref[string(r.body)]
			if !ok {
				res, e := core.Optimize(m, r.opts)
				if e != nil {
					return 0, 0, fmt.Errorf("local solve: %w", e)
				}
				want = res.Objective
				ref[string(r.body)] = want
			}
			if !relClose(s.reply.Objective, want, 1e-8) {
				err = fmt.Errorf("objective %g, local solve %g", s.reply.Objective, want)
			}
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "request %d (%s): %v\n", i, r.kind, err)
		}
	}
	return attempted, failed, nil
}

// printServeDetail prints what the end-to-end metrics leave out: the closed
// phase's latencies, the open loop's queueing and generator lateness, and
// the server's cache counters over both phases.
func printServeDetail(closed, open []sample, openReqs []request, before, after map[string]int64) {
	pick := func(ss []sample, f func(sample) time.Duration) func(float64) time.Duration {
		var ds []time.Duration
		for _, s := range ss {
			if s.sent {
				ds = append(ds, f(s))
			}
		}
		return quantiles(ds)
	}
	cl := pick(closed, func(s sample) time.Duration { return s.lat })
	q := pick(open, func(s sample) time.Duration { return s.queue })
	late := pick(open, func(s sample) time.Duration { return s.late })
	fmt.Printf("# closed phase: %d requests, p50 %.4f ms, p90 %.4f ms\n", len(closed), ms(cl(0.5)), ms(cl(0.9)))
	fmt.Printf("# open phase: %d requests at %d/s; client.queue_ms p50 %.4f p99 %.4f; gen.late_ms p50 %.4f p99 %.4f\n",
		len(open), serveOpenRate, ms(q(0.5)), ms(q(0.99)), ms(late(0.5)), ms(late(0.99)))
	for _, kind := range []string{kindHit, kindWarm, kindCold, kindObserve} {
		var ss []sample
		for i, s := range open {
			if openReqs[i].kind == kind {
				ss = append(ss, s)
			}
		}
		lat := pick(ss, func(s sample) time.Duration { return s.lat })
		fmt.Printf("# open phase %-7s %5d requests, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms\n", kind, len(ss), ms(lat(0.5)), ms(lat(0.9)), ms(lat(0.99)))
	}
	delta := func(k string) int64 { return after[k] - before[k] }
	fmt.Printf("# server: %d optimize (%d hit, %d warm, %d cold, %d shared), %d observe, %d evictions, %d pivots\n",
		delta("optimize_queries"), delta("exact_hits"), delta("warm_solves"), delta("cold_solves"),
		delta("shared_solves"), delta("observe_requests"), delta("evictions"), delta("pivots"))
}

// traceServe is serve-mixed's traced run. Two in-process servers, a and b,
// receive the same prefix of the request stream one request at a time over
// loopback HTTP, so they evolve identically: a is timed bare, b with spans
// around the client call (http) and, through a wrapping handler, around its
// ServeHTTP (server). Inside a traced request, mat and lp pricing time come
// from b's solver-stage counters; core's share of a solve (LP assembly and
// extraction) and lp glue come from replaying the solve cold in process; an
// observe is replayed on a mirror adapter configured as the server's (online,
// core, lp, mat).
func traceServe(cfg config) (*report, error) {
	ctx := context.Background()
	reqs, err := serveRequests(cfg.seed, opCount(cfg.seconds, serveTracedPerSec, serveTraceEvery))
	if err != nil {
		return nil, err
	}
	d, err := cli.NewDevice("disk", 0, 0)
	if err != nil {
		return nil, err
	}
	m, err := d.Sys.Build()
	if err != nil {
		return nil, err
	}
	sa, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	sb, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	// Spans of a traced request: 0 the op, 1 the client call, 2 the handler
	// (requests are sent one at a time).
	const serverSpan = 2
	var cur atomic.Pointer[opTrace]
	ha := httptest.NewServer(sa.Handler())
	defer ha.Close()
	handler := sb.Handler()
	hb := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o := cur.Load()
		s := o.begin(1, "server.Handler.ServeHTTP", "server")
		handler.ServeHTTP(w, r)
		o.end(s) // before the reply is flushed, so inside the client span
	}))
	defer hb.Close()
	client := newClient()
	defer client.CloseIdleConnections()

	// The server's online adapter for "disk": options and tuning as an
	// observe request without either leaves them.
	mr, err := newMirror(func(sr *core.ServiceRequester) *core.System {
		sys := *d.Sys
		sys.SR = sr
		return &sys
	}, optimizeOptions(1e5, 0), online.Config{SolveBudget: 30 * time.Second})
	if err != nil {
		return nil, err
	}

	ls := newLayerStats()
	rep := &report{}
	got := make([]sample, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		var ra reply
		var err error
		var untraced time.Duration
		bare := func() {
			t0 := time.Now()
			ra, err = send(ctx, client, ha.URL, r)
			untraced = time.Since(t0)
		}
		// On every other sampled request b goes first, so neither server
		// always finds the caches warm.
		bFirst := (i/serveTraceEvery)%2 == 1
		if !bFirst {
			bare()
		}
		before := sb.Stats()
		var o *opTrace
		if i%serveTraceEvery == 0 {
			o = newOp(i)
		}
		cur.Store(o)
		h := o.begin(0, "http.Client.Do", "http")
		rb, errb := send(ctx, client, hb.URL, r)
		o.end(h)
		cur.Store(nil)
		if o != nil {
			o.finish()
		}
		after := sb.Stats()
		if bFirst {
			bare()
		}
		got[i] = sample{sent: true, reply: ra, err: err}
		if (err == nil) != (errb == nil) || ra.Cache != rb.Cache || ra.Pivots != rb.Pivots {
			ls.mismatches++
		}
		if r.kind == kindObserve {
			// Every batch goes to the mirror so it stays in step with b.
			var mo *opTrace
			if o != nil {
				mo = newOp(i)
			}
			out, replay, err := mr.observe(ctx, r.counts, mo, 0)
			if err != nil {
				return nil, fmt.Errorf("mirror observe %d: %w", i, err)
			}
			if replay != nil {
				if err := replay(ls); err != nil {
					return nil, err
				}
			}
			if out.Pivots != rb.Pivots {
				ls.mismatches++
			}
			if o != nil {
				for layer, d := range mo.attribute() {
					if layer != "unattributed" {
						o.addInner(serverSpan, layer, time.Duration(d))
					}
				}
			}
		} else if o != nil && rb.Cache != "hit" && errb == nil {
			if err := traceSolve(ls, o, serverSpan, m, r, rb, before, after); err != nil {
				return nil, fmt.Errorf("replaying request %d: %w", i, err)
			}
		}
		if o != nil {
			ls.add(o, untraced)
		}
	}
	if rep.attempted, rep.failed, err = checkReplies(cfg.seed, reqs, got); err != nil {
		return nil, err
	}
	rep.layers = map[string]metric{}
	ls.metrics(rep.layers)
	st := sa.Stats()
	tally := lpTally{
		solves:    int(st["warm_solves"] + st["cold_solves"] + st["online_refreshes"]),
		pivots:    int(st["pivots"]),
		refactors: int(st["refactorizations"]),
		warm:      int(st["warm_solves"] + st["online_warm"]),
	}
	tally.t.Ftran = time.Duration(st["solve_ftran_ns"])
	tally.t.Btran = time.Duration(st["solve_btran_ns"])
	tally.t.Price = time.Duration(st["solve_price_ns"])
	tally.t.Factor = time.Duration(st["solve_factor_ns"])
	tally.t.Update = time.Duration(st["solve_update_ns"])
	tally.metrics(rep.layers, len(reqs), ls.lpOther, ls.ops)
	q := float64(max(1, st["optimize_queries"]))
	rep.layers["server.hit_frac"] = metric{float64(st["exact_hits"]) / q, "frac"}
	rep.layers["server.warm_frac"] = metric{float64(st["warm_solves"]) / q, "frac"}
	rep.layers["server.cold_frac"] = metric{float64(st["cold_solves"]) / q, "frac"}
	rep.layers["server.shared_solves"] = metric{float64(st["shared_solves"]), "count"}
	rep.layers["server.evictions"] = metric{float64(st["evictions"]), "count"}
	mr.counters(rep.layers)
	drift := *d.Sys
	drift.SR = core.TwoStateSR("disk-workload", 0.08, 0.12)
	if err := probeLayers(d.Sys, &drift, optimizeOptions(1e5, 1.5), rep.layers); err != nil {
		return nil, err
	}
	return rep, ls.write(cfg.traceDir, "serve-mixed", cfg.seed)
}

// traceSolve splits a traced optimize request's server span: mat and lp
// pricing from the server's stage counters (before/after the request), LP
// assembly, extraction and lp glue from a cold replay of the same query in
// process, with the glue scaled by the request's pivots.
func traceSolve(ls *layerStats, o *opTrace, s int, m *core.Model, r *request, rb reply, before, after map[string]int64) error {
	stage := func(k string) time.Duration { return time.Duration(after[k] - before[k]) }
	t0 := time.Now()
	prob, err := core.BuildFrequencyLP(m, r.opts)
	if err != nil {
		return err
	}
	build := time.Since(t0)
	lpWall, sol, err := replayLP(prob, nil)
	if err != nil {
		return err
	}
	if rb.Cache == "cold" && sol.Iterations != rb.Pivots {
		ls.mismatches++
	}
	extract, err := replayExtract(m, r.opts, prob, lpWall)
	if err != nil {
		return err
	}
	glue := time.Duration(float64(lpWall-sol.Timings.Total()) * float64(rb.Pivots+1) / float64(sol.Iterations+1))
	ls.lpOther += glue
	o.addInner(s, "core", build+extract)
	o.addInner(s, "mat", stage("solve_ftran_ns")+stage("solve_btran_ns")+stage("solve_factor_ns")+stage("solve_update_ns"))
	o.addInner(s, "lp", stage("solve_price_ns")+glue)
	return nil
}
