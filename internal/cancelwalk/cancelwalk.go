// Package cancelwalk reaches every cancellation point of a call in turn,
// deterministically. A Context cancels itself on the n-th poll of its Err
// method; Walk runs the call under n = 1, 2, … until a run completes
// without reaching its n-th poll. Each poll site of the call is thus hit
// with a live cancellation exactly once, with no timers and no races, and
// the last run is the uncancelled call.
//
// It is test support: production code never constructs a Context.
package cancelwalk

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrWalk is the cause a Context cancels with.
var ErrWalk = errors.New("cancelwalk: cancelled at the planned poll")

// Context is a context.Context that is cancelled, with cause ErrWalk, by the
// n-th call of its Err method. Done closes at that same moment, and
// context.Cause reports ErrWalk from then on. It is safe for concurrent
// use.
type Context struct {
	context.Context
	cancel context.CancelCauseFunc
	n      int64
	polls  atomic.Int64
}

// New returns a Context that cancels on its n-th poll (n ≥ 1).
func New(n int) *Context {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &Context{Context: ctx, cancel: cancel, n: int64(n)}
}

// Err counts the poll, cancels the context if it is the n-th, and reports
// the context's error.
func (c *Context) Err() error {
	if c.polls.Add(1) == c.n {
		c.cancel(ErrWalk)
	}
	return c.Context.Err()
}

// Fired reports whether the n-th poll has happened, that is, whether the
// call under this Context saw its cancellation.
func (c *Context) Fired() bool { return c.polls.Load() >= c.n }

// Walk calls run with New(1), New(2), … and stops after the first run whose
// Context never fired: the call's polls are exhausted and it ran to
// completion. It returns that run's n, one more than the call's number of
// polls. run makes the test's assertions; Fired tells it which kind of run
// it is checking.
func Walk(run func(ctx *Context)) int {
	for n := 1; ; n++ {
		ctx := New(n)
		run(ctx)
		ctx.cancel(nil)
		if !ctx.Fired() {
			return n
		}
	}
}
