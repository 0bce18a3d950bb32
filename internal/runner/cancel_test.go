package runner

// Sweep-level cancellation: a cancelled Run drains its pool within a
// bound, reports Aborted with a flushable partial stats file, leaks
// no goroutines, leaves the memo consistent for a re-run, and clears
// the live-progress state either way.

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpusecmem"
)

func fig8(t *testing.T) []gpusecmem.Experiment {
	t.Helper()
	e, ok := gpusecmem.ExperimentByID("fig8")
	if !ok {
		t.Fatal("fig8 missing from catalogue")
	}
	return []gpusecmem.Experiment{e}
}

// TestRunCancelMidSweep cancels a sweep whose runs would take hours
// and asserts the pool drains promptly with a partial, Aborted
// report whose stats JSON carries "aborted": true.
func TestRunCancelMidSweep(t *testing.T) {
	before := runtime.NumGoroutine()

	gctx := gpusecmem.NewContext(gpusecmem.Options{
		Cycles:     1 << 40, // no run can finish; only cancellation ends them
		Benchmarks: []string{"nw"},
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	rep := Run(ctx, gctx, fig8(t), Options{Jobs: 2})
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("cancelled sweep took %s to drain", took)
	}
	if !rep.Aborted {
		t.Fatal("report not marked Aborted")
	}
	if len(rep.Results) != 0 {
		t.Fatal("aborted sweep rendered experiments")
	}
	if rep.FailedRuns != 0 {
		t.Fatalf("cancelled runs counted as failures: %d", rep.FailedRuns)
	}

	// The partial report still flushes, marked aborted — the contract
	// cmd/experiments' SIGINT path relies on.
	var buf bytes.Buffer
	if err := rep.WriteStats(&buf, "test sweep"); err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Aborted bool `json:"aborted"`
	}
	if err := json.Unmarshal(buf.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Aborted {
		t.Fatalf("stats JSON missing aborted flag: %s", buf.Bytes())
	}
	if !strings.Contains(buf.String(), `"aborted": true`) {
		t.Fatalf("stats JSON not marked aborted: %s", buf.Bytes())
	}

	// No goroutine leaks: workers, ticker, and debug helpers are gone
	// once Run returns (allow the runtime a moment to reap).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestRunAfterCancelCompletes re-runs a sweep on the same Context
// after a cancelled attempt: the memo must be clean, so the second
// sweep simulates and renders normally.
func TestRunAfterCancelCompletes(t *testing.T) {
	gctx := gpusecmem.NewContext(gpusecmem.Options{Cycles: 1500, Benchmarks: []string{"nw"}})

	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: dispatch never starts
	rep := Run(cancelled, gctx, fig8(t), Options{Jobs: 2})
	if !rep.Aborted || len(rep.Results) != 0 {
		t.Fatalf("pre-cancelled sweep: aborted=%v results=%d", rep.Aborted, len(rep.Results))
	}

	rep2 := Run(context.Background(), gctx, fig8(t), Options{Jobs: 2})
	if rep2.Aborted {
		t.Fatal("clean re-run reported Aborted")
	}
	if len(rep2.Results) != 1 || rep2.Results[0].Err != nil {
		t.Fatalf("re-run failed: %+v", rep2.Results)
	}
	if len(rep2.Results[0].Tables) == 0 {
		t.Fatal("re-run rendered no tables")
	}
}
