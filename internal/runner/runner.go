// Package runner executes experiment sweeps concurrently. It
// pre-plans the deduplicated set of (config, benchmark) simulations
// the selected experiments need, drives them through a worker pool
// feeding the Context's singleflight memo cache, then renders every
// experiment in catalogue order from the memoized results — so output
// is byte-identical to a serial run at any worker count.
//
// Each simulator instance is self-contained (no shared mutable state;
// see DESIGN.md "Parallelism & determinism"), which makes the sweep
// embarrassingly parallel across runs. A failed run is reported with
// its configuration and fails only the experiments that need it; the
// rest of the sweep completes.
package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gpusecmem"
	"gpusecmem/internal/report"
)

// Options controls a sweep.
type Options struct {
	// Jobs is the worker-pool size; <=0 picks a default from the core
	// budget: runtime.GOMAXPROCS(0) divided by Shards (floored at 1),
	// so shards×jobs goroutines roughly match the available cores.
	Jobs int
	// Shards is the per-run shard-goroutine count the sweep's
	// simulations execute with (the Context applies it to each Config;
	// see gpusecmem.Options.Shards). Here it only informs the default
	// Jobs split — run results and output bytes are identical at any
	// value.
	Shards int
	// Progress enables a periodic one-line status ticker.
	Progress bool
	// ProgressOut receives ticker lines (default os.Stderr).
	ProgressOut io.Writer
	// ProgressInterval is the ticker period (default 1s).
	ProgressInterval time.Duration
	// DebugAddr, when non-empty, serves the sweep debug HTTP endpoint
	// (/metrics, pprof) on that address for the duration of the sweep.
	// See NewDebugHandler.
	DebugAddr string
}

// ExperimentResult is one rendered experiment, or its failure.
type ExperimentResult struct {
	Experiment gpusecmem.Experiment
	Tables     []*report.Table
	// Err is non-nil when a simulation the experiment depends on
	// failed; it is the *gpusecmem.RunError of the failing run, or a
	// bare context error when the sweep was cancelled mid-render.
	Err     error
	Elapsed time.Duration
}

// RunRecord is the machine-readable per-run entry of -stats-out.
type RunRecord struct {
	// Key is a short digest of the canonical (config, benchmark) memo
	// key, for cross-referencing runs between sweeps.
	Key       string `json:"key"`
	Benchmark string `json:"benchmark"`
	// Config is the canonical JSON of the fully resolved Config.
	Config       json.RawMessage `json:"config"`
	WallSeconds  float64         `json:"wall_seconds"`
	Cycles       uint64          `json:"cycles"`
	CyclesPerSec float64         `json:"cycles_per_sec"`
	Error        string          `json:"error,omitempty"`
}

// Report summarizes one sweep.
type Report struct {
	Results      []ExperimentResult
	Runs         []RunRecord
	Jobs         int
	PlannedRuns  int
	ExecutedRuns int
	FailedRuns   int
	CacheHits    uint64
	CacheMisses  uint64
	// DiskHits counts runs served from the Context's persistent
	// ResultCache instead of simulating.
	DiskHits uint64
	// Resumed counts simulations that started from a checkpoint
	// Restore accepted.
	Resumed uint64
	Wall    time.Duration
	// Aborted reports that the sweep's context was cancelled before the
	// plan finished: Runs holds only the runs completed by then and no
	// experiments were rendered.
	Aborted bool
}

// FailedExperiments counts results with a non-nil Err.
func (r *Report) FailedExperiments() int {
	n := 0
	for _, res := range r.Results {
		if res.Err != nil {
			n++
		}
	}
	return n
}

// TotalCycles sums the simulated cycles across all executed runs.
func (r *Report) TotalCycles() uint64 {
	var n uint64
	for _, run := range r.Runs {
		n += run.Cycles
	}
	return n
}

// AggregateCyclesPerSec is the sweep's fleet throughput: total
// simulated cycles divided by sweep wall time. With parallel jobs this
// exceeds any single run's cycles/sec; it is the number to watch when
// judging simulator performance changes across sweeps.
func (r *Report) AggregateCyclesPerSec() float64 {
	if s := r.Wall.Seconds(); s > 0 {
		return float64(r.TotalCycles()) / s
	}
	return 0
}

// statsJSON is the wire form of WriteStats.
type statsJSON struct {
	Command           string      `json:"command,omitempty"`
	Aborted           bool        `json:"aborted"`
	Jobs              int         `json:"jobs"`
	PlannedRuns       int         `json:"planned_runs"`
	ExecutedRuns      int         `json:"executed_runs"`
	FailedRuns        int         `json:"failed_runs"`
	CacheHits         uint64      `json:"cache_hits"`
	CacheMisses       uint64      `json:"cache_misses"`
	DiskHits          uint64      `json:"disk_hits,omitempty"`
	WallSeconds       float64     `json:"wall_seconds"`
	TotalCycles       uint64      `json:"total_cycles"`
	AggCyclesPerSec   float64     `json:"aggregate_cycles_per_sec"`
	FailedExperiments int         `json:"failed_experiments"`
	Runs              []RunRecord `json:"runs"`
}

// WriteStats emits the machine-readable sweep summary (the -stats-out
// payload). command records the invocation for provenance. A partial
// report from a cancelled sweep carries "aborted": true with the runs
// completed before the cancellation.
func (r *Report) WriteStats(w io.Writer, command string) error {
	runs := r.Runs
	if runs == nil {
		runs = []RunRecord{} // "runs": [] — not null — when nothing completed
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(statsJSON{
		Command:           command,
		Aborted:           r.Aborted,
		Jobs:              r.Jobs,
		PlannedRuns:       r.PlannedRuns,
		ExecutedRuns:      r.ExecutedRuns,
		FailedRuns:        r.FailedRuns,
		CacheHits:         r.CacheHits,
		CacheMisses:       r.CacheMisses,
		DiskHits:          r.DiskHits,
		WallSeconds:       r.Wall.Seconds(),
		TotalCycles:       r.TotalCycles(),
		AggCyclesPerSec:   r.AggregateCyclesPerSec(),
		FailedExperiments: r.FailedExperiments(),
		Runs:              runs,
	})
}

// KeyDigest shortens a canonical run key to a stable 12-hex-digit id.
func KeyDigest(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:6])
}

// Run plans, executes, and renders the experiments. Rendering happens
// after the pool drains, in the order given, entirely from memoized
// results — output bytes do not depend on Jobs.
//
// ctx cancels the sweep cooperatively: dispatch stops, in-flight
// simulations abort at their next cancellation check, the pool drains,
// and the returned Report is marked Aborted with the runs completed so
// far (experiments are not rendered). The Report is always non-nil, so
// a partial stats file can still be flushed.
func Run(ctx context.Context, gctx *gpusecmem.Context, exps []gpusecmem.Experiment, opts Options) *Report {
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
		if opts.Shards > 1 {
			// Each run already occupies Shards goroutines; divide the
			// cores between intra-run and across-run parallelism.
			jobs /= opts.Shards
		}
		if jobs < 1 {
			jobs = 1
		}
	}
	start := time.Now()
	gctx.SetBaseContext(ctx)

	plan := gctx.PlanRuns(exps)
	rep := &Report{Jobs: jobs, PlannedRuns: len(plan)}

	initSweepInstruments()
	sweepMet.sweeps.Inc()
	sweepMet.planned.Set(float64(len(plan)))

	if opts.DebugAddr != "" {
		out := opts.ProgressOut
		if out == nil {
			out = os.Stderr
		}
		stopDebug := startDebugServer(opts.DebugAddr, out)
		defer stopDebug()
	}
	var done, failed atomic.Int64
	stopProgress := startProgress(opts, len(plan), &done, &failed, start)

	specs := make(chan gpusecmem.RunSpec)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range specs {
				outcome := "ok"
				if _, err := gctx.RunE(ctx, s.Cfg, s.Benchmark); err != nil {
					// A cancelled run is the sweep aborting, not a
					// failed configuration.
					if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
						outcome = "cancelled"
					} else {
						outcome = "failed"
						failed.Add(1)
					}
				}
				sweepMet.runs.With(outcome).Inc()
				done.Add(1)
			}
		}()
	}
dispatch:
	for _, s := range plan {
		select {
		case specs <- s:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(specs)
	wg.Wait()
	stopProgress()

	if ctx.Err() != nil {
		rep.Aborted = true
	} else {
		// Render serially, in catalogue order, from the warm cache.
		// Runs the planner missed (an experiment that bailed on
		// placeholder data) simulate here through the same singleflight
		// path.
		for _, e := range exps {
			rep.Results = append(rep.Results, renderOne(gctx, e))
		}
	}

	stats := gctx.CacheStats()
	rep.CacheHits, rep.CacheMisses, rep.DiskHits, rep.Resumed = stats.Hits, stats.Misses, stats.DiskHits, stats.Resumed
	rep.Wall = time.Since(start)

	byKey := make(map[string]gpusecmem.RunStat)
	for _, s := range gctx.RunStats() {
		byKey[s.Key] = s
		rep.ExecutedRuns++
		if s.Err != nil {
			rep.FailedRuns++
		}
	}
	for _, spec := range plan {
		s, ok := byKey[spec.Key]
		if !ok {
			continue
		}
		cfgJSON, err := json.Marshal(spec.Cfg)
		if err != nil {
			cfgJSON = []byte("null")
		}
		rep.Runs = append(rep.Runs, runRecord(s, cfgJSON))
		delete(byKey, spec.Key)
	}
	// Runs discovered only at render time still get a record, after
	// the planned ones.
	for _, s := range gctx.RunStats() {
		if _, pending := byKey[s.Key]; pending {
			rep.Runs = append(rep.Runs, runRecord(s, json.RawMessage("null")))
		}
	}
	return rep
}

// runRecord is the -stats-out entry of one executed run; cfgJSON is
// its config, or null for a run the plan did not list.
func runRecord(s gpusecmem.RunStat, cfgJSON json.RawMessage) RunRecord {
	rec := RunRecord{
		Key:          KeyDigest(s.Key),
		Benchmark:    s.Benchmark,
		Config:       cfgJSON,
		WallSeconds:  s.Wall.Seconds(),
		Cycles:       s.Cycles,
		CyclesPerSec: s.CyclesPerSec(),
	}
	if s.Err != nil {
		rec.Error = s.Err.Error()
	}
	return rec
}

// renderOne runs one experiment body against the memoized context,
// converting any recovered panic into the result's Err so the sweep
// continues. A *RunError (a failed simulation) passes through with
// its config; a context cancellation (the base context died while
// rendering) passes through undecorated; any other panic — a bug in
// the experiment body — is wrapped, with its stack, instead of
// re-panicking and killing the remaining experiments.
func renderOne(gctx *gpusecmem.Context, e gpusecmem.Experiment) (out ExperimentResult) {
	out.Experiment = e
	t0 := time.Now()
	defer func() {
		out.Elapsed = time.Since(t0)
		if r := recover(); r != nil {
			if re, ok := r.(*gpusecmem.RunError); ok {
				out.Err = re
				return
			}
			if err, ok := r.(error); ok &&
				(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				out.Err = err
				return
			}
			out.Err = &gpusecmem.RunError{
				Benchmark: "(experiment " + e.ID + ")",
				Err:       fmt.Errorf("experiment panic: %v", r),
				Stack:     string(debug.Stack()),
			}
		}
	}()
	out.Tables = e.Run(gctx)
	return out
}

// startProgress launches the ticker goroutine and returns its stop
// function (which prints a final line). A no-op when disabled.
func startProgress(opts Options, total int, done, failed *atomic.Int64, start time.Time) func() {
	if !opts.Progress {
		return func() {}
	}
	w := opts.ProgressOut
	if w == nil {
		w = os.Stderr
	}
	interval := opts.ProgressInterval
	if interval <= 0 {
		interval = time.Second
	}
	line := func() {
		d, f := done.Load(), failed.Load()
		fmt.Fprintf(w, "progress: %d/%d runs done (%d failed), %s elapsed\n",
			d, total, f, time.Since(start).Round(time.Second))
	}
	quit := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				line()
			case <-quit:
				line() // final line, printed from this goroutine so the writer has one writer
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-finished
		})
	}
}
