package daemon

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpusecmem"
	"gpusecmem/internal/flight"
)

// do runs fn through the daemon's instantiation of the flight group,
// unpacking the shared outcome.
func do(g *flight.Group[outcome], ctx context.Context, key string, fn func() (*gpusecmem.Result, string, error)) (*gpusecmem.Result, string, bool, error) {
	o, shared, err := g.Do(ctx, key, func() (outcome, error) {
		res, source, err := fn()
		return outcome{&answer{res: res}, source}, err
	})
	if o.ans == nil {
		return nil, o.source, shared, err
	}
	return o.ans.res, o.source, shared, err
}

// TestFlightGroupShares pins the coalescing contract: concurrent
// callers with one key run fn once; everyone gets the leader's result
// and the waiters report shared=true.
func TestFlightGroupShares(t *testing.T) {
	g := new(flight.Group[outcome])
	want := &gpusecmem.Result{}
	block := make(chan struct{})
	var calls atomic.Int32

	fn := func() (*gpusecmem.Result, string, error) {
		calls.Add(1)
		<-block
		return want, "simulated", nil
	}

	const n = 8
	var wg sync.WaitGroup
	var sharedCount atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, source, shared, err := do(g, context.Background(), "k", fn)
			if err != nil || res != want || source != "simulated" {
				t.Errorf("do: res=%p source=%q err=%v", res, source, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Let the leader start and the waiters pile up, then release.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(block)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Fatalf("shared for %d callers, want %d", got, n-1)
	}
}

// TestFlightGroupIndependentKeys pins that distinct keys never share a
// flight.
func TestFlightGroupIndependentKeys(t *testing.T) {
	g := new(flight.Group[outcome])
	var calls atomic.Int32
	var wg sync.WaitGroup
	for _, key := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			do(g, context.Background(), key, func() (*gpusecmem.Result, string, error) {
				calls.Add(1)
				return &gpusecmem.Result{}, "simulated", nil
			})
		}(key)
	}
	wg.Wait()
	if got := calls.Load(); got != 3 {
		t.Fatalf("fn ran %d times, want 3", got)
	}
}

// TestFlightGroupRetryAfterCancelledLeader pins the PR 5 memo contract
// at server scope: a waiter does not inherit the leader's
// cancellation — it re-leads its own attempt under its own context.
func TestFlightGroupRetryAfterCancelledLeader(t *testing.T) {
	g := new(flight.Group[outcome])
	want := &gpusecmem.Result{}
	leaderIn := make(chan struct{})

	go do(g, context.Background(), "k", func() (*gpusecmem.Result, string, error) {
		close(leaderIn)
		// Hold the flight long enough for the waiter to be queued on it,
		// then die as a cancelled run would.
		time.Sleep(30 * time.Millisecond)
		return nil, "", context.Canceled
	})

	<-leaderIn
	res, source, shared, err := do(g, context.Background(), "k", func() (*gpusecmem.Result, string, error) {
		return want, "simulated", nil
	})
	if err != nil {
		t.Fatalf("waiter inherited the leader's cancellation: %v", err)
	}
	if res != want || source != "simulated" {
		t.Fatalf("retry result: res=%p source=%q", res, source)
	}
	if shared {
		t.Fatal("retrying waiter should have led its own flight (shared=false)")
	}
}

// TestFlightGroupWaiterContext pins that a waiter whose own context
// dies leaves with its context's error instead of blocking on the
// leader.
func TestFlightGroupWaiterContext(t *testing.T) {
	g := new(flight.Group[outcome])
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})

	go do(g, context.Background(), "k", func() (*gpusecmem.Result, string, error) {
		close(started)
		<-block
		return &gpusecmem.Result{}, "simulated", nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := do(g, ctx, "k", func() (*gpusecmem.Result, string, error) {
		t.Error("cancelled waiter ran fn")
		return nil, "", nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
