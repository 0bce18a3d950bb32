// Package flight is the repository's one singleflight, shared by the
// gpusecmem.Context run memo and the daemon. A Group runs a function
// once per key at a time and shares its outcome with every concurrent
// caller of that key; it keeps no completed outcomes.
//
// Cancellation follows the caller, not the key: a waiter whose own
// context dies leaves with ctx.Err(), and a leader whose function
// fails with context.Canceled or context.DeadlineExceeded, or panics,
// is unregistered before its waiters wake, so each live waiter
// re-leads under its own context (a panic is then re-raised in the
// leader). Every other outcome, errors included, is shared.
//
// Concurrency and aliasing contract: a Group is safe for concurrent
// use by any number of goroutines; its zero value is ready to use and
// it must not be copied after first use. Every caller of one flight
// receives the same V, which they must treat as immutable.
package flight

import (
	"context"
	"errors"
	"sync"
)

// call is one flight; its fields are written only before done closes.
type call[V any] struct {
	done  chan struct{}
	v     V
	err   error
	retry bool // the leader was cancelled or panicked: waiters re-lead
}

// Group coalesces concurrent calls per key.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

// Do runs fn once per key per flight: the first caller leads and runs
// fn; concurrent callers of the same key wait and share its outcome
// (shared=true).
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, shared bool, err error) {
	g.mu.Lock()
	for {
		c, ok := g.m[key]
		if !ok {
			break
		}
		g.mu.Unlock()
		select {
		case <-c.done:
			if !c.retry {
				return c.v, true, c.err
			}
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
		g.mu.Lock()
	}
	if g.m == nil {
		g.m = make(map[string]*call[V])
	}
	c := &call[V]{done: make(chan struct{}), retry: true}
	g.m[key] = c
	g.mu.Unlock()
	// Deferred so that a panicking fn, which leaves retry set, still
	// releases its key; un-register before waking waiters so a
	// retrying waiter can lead a fresh flight at once.
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.v, c.err = fn()
	c.retry = errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)
	return c.v, false, c.err
}
