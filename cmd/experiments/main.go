// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp fig3                        # one experiment
//	experiments -exp all                         # everything, in paper order
//	experiments -list                            # show the catalogue
//	experiments -exp fig7 -cycles 60000 -benchmarks fdtd2d,lbm -format csv
//	experiments -exp all -out results/           # one file per experiment
//	experiments -exp all -jobs 8 -progress       # parallel sweep with ticker
//	experiments -exp all -stats-out runs.json    # machine-readable run stats
//	experiments -exp all -cache-dir ~/.cache/gpusecmem   # persistent results
//
// Runs execute on a worker pool (default GOMAXPROCS workers, divided
// by -shards when intra-run sharding is on) and are memoized with
// singleflight semantics, so shared configurations simulate exactly
// once. With -cache-dir, results also persist on disk
// keyed by their canonical configuration digest, so repeated sweeps
// across process restarts skip simulation entirely. Output is rendered
// in catalogue order from the memoized results and is byte-identical
// at any -jobs value; timing and progress chatter goes to stderr, data
// to stdout or -out.
//
// SIGINT (Ctrl-C) cancels the sweep cooperatively: in-flight runs stop
// at their next cancellation check, the pool drains, and -stats-out is
// still flushed — marked "aborted": true with the runs completed so
// far. All file artifacts are written atomically (temp + rename), so
// an interrupted regeneration never leaves truncated tables.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"gpusecmem"
	"gpusecmem/internal/atomicfile"
	"gpusecmem/internal/checkpoint"
	"gpusecmem/internal/report"
	"gpusecmem/internal/resultcache"
	"gpusecmem/internal/runner"
)

// stampFor reconstructs the canonical regeneration command for one
// experiment's output. Only flags that affect content appear —
// -jobs/-progress/-stats-out/-out/-cache-dir are deliberately excluded
// so output stays byte-identical across worker counts, caches, and
// target directories.
func stampFor(expID string, cycles uint64, benchmarks, format string) string {
	parts := []string{"go run ./cmd/experiments", "-exp " + expID}
	parts = append(parts, fmt.Sprintf("-cycles %d", cycles))
	if benchmarks != "" {
		parts = append(parts, "-benchmarks "+benchmarks)
	}
	if format != "text" {
		parts = append(parts, "-format "+format)
	}
	return strings.Join(parts, " ")
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		cycles     = flag.Uint64("cycles", gpusecmem.DefaultCycles, "simulated cycles per run")
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all of Table IV)")
		format     = flag.String("format", "text", "output format: text|csv|md")
		outDir     = flag.String("out", "", "write one file per experiment into this directory instead of stdout")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		jobs       = flag.Int("jobs", 0, "parallel simulation workers (0 = GOMAXPROCS/shards)")
		shards     = flag.Int("shards", 0, "shard goroutines per simulation advancing its memory partitions (0/1 = inline; results bit-identical)")
		progress   = flag.Bool("progress", false, "print a periodic progress line to stderr")
		statsOut   = flag.String("stats-out", "", "write machine-readable per-run stats (JSON) to this file")
		audit      = flag.Bool("audit", false, "run every simulation with invariant auditors enabled (changes memo keys; slower)")
		debugAddr  = flag.String("debug-addr", "", "serve the sweep debug HTTP endpoint (/metrics with live sweep progress, pprof) on this address, e.g. localhost:6060")
		cacheDir   = flag.String("cache-dir", "", "persist simulation results in this directory, keyed by canonical config digest")
		ckptDir    = flag.String("checkpoint-dir", "", "persist mid-run machine checkpoints in this directory; interrupted sweeps resume instead of restarting")
		ckptEvery  = flag.Uint64("checkpoint-every", 5000, "checkpoint interval in cycles (with -checkpoint-dir)")
	)
	flag.Parse()

	if *list {
		for _, e := range gpusecmem.Experiments() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return
	}
	if !report.ValidFormat(*format) {
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}

	// Bad sweep options fail closed before any simulation, as
	// /api/experiment answers them with a 400.
	if *cycles == 0 {
		fmt.Fprintln(os.Stderr, "-cycles must be positive")
		os.Exit(2)
	}
	opts := gpusecmem.Options{Cycles: *cycles, Audit: *audit, Shards: *shards}
	if *benchmarks != "" {
		opts.Benchmarks = strings.Split(*benchmarks, ",")
		for _, b := range opts.Benchmarks {
			if err := gpusecmem.CheckBenchmark(b); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
	}
	gctx := gpusecmem.NewContext(opts)
	if *cacheDir != "" {
		disk, err := resultcache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		gctx.SetResultCache(disk)
	}
	var ckpt *checkpoint.Store
	if *ckptDir != "" {
		var err error
		ckpt, err = checkpoint.Open(*ckptDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		gctx.SetCheckpointStore(ckpt, *ckptEvery)
	}

	var selected []gpusecmem.Experiment
	if *exp == "all" {
		selected = gpusecmem.Experiments()
	} else {
		e, ok := gpusecmem.ExperimentByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		selected = []gpusecmem.Experiment{e}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// Ctrl-C cancels the sweep cooperatively: runner.Run drains the
	// pool and returns a partial, Aborted report; -stats-out is still
	// flushed below. A second signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep := runner.Run(ctx, gctx, selected, runner.Options{
		Jobs:      *jobs,
		Shards:    *shards,
		Progress:  *progress,
		DebugAddr: *debugAddr,
	})
	if rep.Aborted {
		fmt.Fprintf(os.Stderr, "interrupted: %d/%d runs completed before cancellation\n",
			rep.ExecutedRuns, rep.PlannedRuns)
	}

	failures := 0
	for _, res := range rep.Results {
		e := res.Experiment
		if res.Err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, res.Err)
			if re, ok := res.Err.(*gpusecmem.RunError); ok {
				fmt.Fprintf(os.Stderr, "  config: %s\n", re.ConfigJSON())
			}
			continue
		}

		render := func(w io.Writer) error {
			fmt.Fprintf(w, "# %s\n", e.Title)
			fmt.Fprintf(w, "# paper: %s\n", e.PaperFinding)
			fmt.Fprintf(w, "# generated: %s\n", stampFor(e.ID, *cycles, *benchmarks, *format))
			for _, t := range res.Tables {
				if err := t.Write(w, *format); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
			return nil
		}
		if *outDir == "" {
			if err := render(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "write: %v\n", err)
				os.Exit(1)
			}
			continue
		}
		path := filepath.Join(*outDir, e.ID+"."+report.Ext(*format))
		if err := atomicfile.WriteFile(path, render); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%-22s -> %s (%s)\n",
			e.ID, path, res.Elapsed.Round(time.Millisecond))
	}

	diskNote := ""
	if *cacheDir != "" {
		diskNote = fmt.Sprintf(" (%d from disk)", rep.DiskHits)
	}
	if ckpt != nil {
		cs := ckpt.Stats()
		diskNote += fmt.Sprintf(", checkpoints %d resumed / %d saved / %d errors",
			rep.Resumed, cs.Puts, cs.Errors)
	}
	fmt.Fprintf(os.Stderr,
		"sweep: %d experiments (%d failed), %d runs planned / %d executed (%d failed), cache %d hits / %d misses%s, jobs %d, wall %s, %.0f cycles/sec aggregate\n",
		len(rep.Results), failures, rep.PlannedRuns, rep.ExecutedRuns, rep.FailedRuns,
		rep.CacheHits, rep.CacheMisses, diskNote, rep.Jobs, rep.Wall.Round(time.Millisecond),
		rep.AggregateCyclesPerSec())

	if *statsOut != "" {
		cmd := "experiments " + strings.Join(os.Args[1:], " ")
		err := atomicfile.WriteFile(*statsOut, func(w io.Writer) error {
			return rep.WriteStats(w, cmd)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "stats -> %s\n", *statsOut)
	}

	switch {
	case rep.Aborted:
		os.Exit(130)
	case failures > 0:
		os.Exit(1)
	}
}
