package flight

import (
	"context"
	"testing"
	"time"
)

// TestPanickingLeaderDoesNotWedgeKey pins the panic contract: a leader
// whose fn panics re-raises the panic, and its key is released, so the
// next caller leads a fresh flight instead of waiting out its deadline
// on one that never completes (net/http recovers handler panics, so a
// wedged key would outlive the request that wedged it).
func TestPanickingLeaderDoesNotWedgeKey(t *testing.T) {
	var g Group[int]
	entered := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		g.Do(context.Background(), "k", func() (int, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered

	// A waiter parked on the panicking flight re-leads under its own
	// context.
	type result struct {
		v      int
		shared bool
		err    error
	}
	waiter := make(chan result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		v, shared, err := g.Do(ctx, "k", func() (int, error) { return 7, nil })
		waiter <- result{v, shared, err}
	}()
	close(release)

	if p := <-recovered; p != "boom" {
		t.Fatalf("leader recovered %v, want the re-raised panic", p)
	}
	if w := <-waiter; w.err != nil || w.v != 7 {
		t.Fatalf("waiter after a panicking leader = %+v, want v=7 with no error", w)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	v, shared, err := g.Do(ctx, "k", func() (int, error) { return 9, nil })
	if err != nil || v != 9 || shared {
		t.Fatalf("next caller = (%d, shared=%v, %v), want to lead a fresh flight", v, shared, err)
	}
}
