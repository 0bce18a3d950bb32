// Command secmemsim runs one benchmark on one secure-memory
// configuration and prints the full statistics — the low-level tool
// behind the experiment harness. Its run flags (-scheme, -bench, -cycles,
// the secure-memory knobs and -audit) are gpusecmem's knob table, the
// one secmemd's /api/run decodes.
//
// Usage:
//
//	secmemsim -bench fdtd2d -scheme ctr_mac_bmt -cycles 60000
//	secmemsim -bench lbm -scheme direct_mac -aes-latency 80
//	secmemsim -bench lbm -faults seed=1,rate=1e-4,sites=all -audit
//	secmemsim -bench fdtd2d -probe                          # latency attribution
//	secmemsim -bench fdtd2d -timeline out.ndjson -probe-interval 500
//	secmemsim -bench fdtd2d -trace-out trace.json           # Perfetto trace
//	secmemsim -list
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"gpusecmem"
	"gpusecmem/internal/atomicfile"
	"gpusecmem/internal/checkpoint"
)

func main() {
	args := gpusecmem.RunArgs{}
	args.BindFlags(flag.CommandLine)
	var (
		faultSpec  = flag.String("faults", "", "fault-injection plan, e.g. seed=1,rate=1e-4,sites=data,meta,drop (empty = none)")
		watchdog   = flag.Uint64("watchdog", 0, "override watchdog stall threshold in cycles (0 = config default)")
		shards     = flag.Int("shards", 0, "shard goroutines advancing the memory partitions (0/1 = inline on one goroutine; results are bit-identical)")
		asJSON     = flag.Bool("json", false, "emit the result as JSON")
		list       = flag.Bool("list", false, "list benchmarks and schemes, then exit")
		probeSpans = flag.Bool("probe", false, "collect request-lifecycle spans and print the latency attribution")
		timeline   = flag.String("timeline", "", "write a windowed timeline to this file (.csv extension selects CSV, anything else NDJSON)")
		probeEvery = flag.Uint64("probe-interval", 500, "timeline sampling interval in cycles")
		traceOut   = flag.String("trace-out", "", "write span records as Chrome trace-event JSON (Perfetto) to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the simulation to this file")
		ckptDir    = flag.String("checkpoint-dir", "", "persist machine checkpoints in this directory; a rerun resumes from the newest valid one instead of restarting")
		ckptEvery  = flag.Uint64("checkpoint-every", 5000, "checkpoint interval in cycles (with -checkpoint-dir)")
	)
	flag.Parse()

	if *list {
		fmt.Println("benchmarks:")
		for _, b := range gpusecmem.Benchmarks() {
			fmt.Println("  " + b)
		}
		fmt.Println("schemes:")
		for _, s := range gpusecmem.SchemeNames() {
			fmt.Println("  " + s)
		}
		return
	}

	run, err := args.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := run.Config
	cfg.Shards = *shards
	if *watchdog > 0 {
		cfg.WatchdogCycles = *watchdog
	}
	plan, err := gpusecmem.ParseFaultPlan(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Faults = plan

	if *probeSpans || *timeline != "" || *traceOut != "" {
		pc := &gpusecmem.ProbeConfig{
			Spans: *probeSpans || *traceOut != "",
			Trace: *traceOut != "",
		}
		if *timeline != "" {
			pc.TimelineInterval = *probeEvery
		}
		cfg.Probe = pc
	}

	if *cpuProfile != "" {
		// The profile streams into a temp file and only renames into
		// place on a clean finish — a mid-run kill leaves no truncated
		// profile behind.
		f, err := atomicfile.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Abort()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Commit(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	// With -checkpoint-dir, both runs snapshot periodically and resume
	// from the newest valid checkpoint of their lineage; SIGINT/SIGTERM
	// stop cooperatively and checkpoint before exiting, so the next
	// invocation continues where this one left off. Results are
	// bit-identical to uninterrupted runs either way.
	var ckpt gpusecmem.CheckpointStore
	if *ckptDir != "" {
		store, err := checkpoint.Open(*ckptDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ckpt = store
	}
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	simulate := func(cfg gpusecmem.Config, bench string) (*gpusecmem.Result, error) {
		res, from, err := gpusecmem.SimulateCheckpointed(ctx, cfg, bench, ckpt, *ckptEvery)
		if from > 0 {
			fmt.Fprintf(os.Stderr, "resumed from checkpoint at cycle %d\n", from)
		}
		return res, err
	}

	res, err := simulate(cfg, run.Benchmark)
	if err != nil {
		fail(err)
	}
	if *memProfile != "" {
		runtime.GC() // settle the heap so the profile shows retained state
		err := atomicfile.WriteFile(*memProfile, pprof.WriteHeapProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := writeProbeFiles(res, *timeline, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// The baseline comparison run stays fault-free and unaudited: it is
	// only there to normalize IPC, and only the text report prints it.
	// A fault-free baseline run is that run already.
	bres := res
	if run.Scheme != "baseline" || plan != nil {
		base := gpusecmem.BaselineConfig()
		base.MaxCycles = cfg.MaxCycles
		base.Shards = *shards
		if bres, err = simulate(base, run.Benchmark); err != nil {
			fail(err)
		}
	}
	fmt.Printf("benchmark        %s\n", run.Benchmark)
	fmt.Printf("scheme           %s\n", run.Scheme)
	fmt.Printf("cycles           %d\n", res.Cycles)
	fmt.Printf("IPC              %.2f (baseline %.2f, normalized %.3f)\n",
		res.IPC(), bres.IPC(), res.NormalizedIPC(bres))
	fmt.Printf("bandwidth        %.2f%% of peak\n", 100*res.BandwidthUtilization())
	fmt.Printf("L1 miss rate     %.2f%%\n", 100*res.L1.MissRate())
	fmt.Printf("L2 miss rate     %.2f%%\n", 100*res.L2.MissRate())
	fmt.Printf("DRAM requests    data=%d ctr=%d mac=%d bmt=%d wb=%d\n",
		res.RequestsByKind[0], res.RequestsByKind[1], res.RequestsByKind[2],
		res.RequestsByKind[3], res.RequestsByKind[4])
	fmt.Printf("DRAM bytes       data=%d ctr=%d mac=%d bmt=%d wb=%d\n",
		res.BytesByKind[0], res.BytesByKind[1], res.BytesByKind[2],
		res.BytesByKind[3], res.BytesByKind[4])
	for m := 0; m < 3; m++ {
		ms := res.Meta[m]
		if ms.Accesses == 0 {
			continue
		}
		fmt.Printf("meta[%d]          accesses=%d miss=%.2f%% secondary=%.2f%%\n",
			m, ms.Accesses, 100*ms.MissRate(), 100*ms.SecondaryRatio())
	}
	if plan != nil {
		f := res.Faults
		fmt.Printf("faults injected  %v (plan %s)\n", f.Injected, plan)
		fmt.Printf("faults detected  %d of %d corruptions (%.1f%% coverage), %d silent\n",
			f.Detected, f.Corruptions(), 100*f.DetectionRate(), f.Silent)
		fmt.Printf("replies dropped  %d, duplicated %d\n", f.DroppedReplies, f.DuplicatedReplies)
	}
	if res.Probe != nil && res.Probe.Spans != nil {
		sp := res.Probe.Spans
		fmt.Printf("spans traced     %d (%d unbalanced)\n", sp.Spans, sp.Unbalanced)
		for _, kb := range sp.Kinds {
			fmt.Printf("  %-5s n=%-9d mean=%-8.1f p50=%-6d p95=%-6d p99=%-6d max=%d\n",
				kb.Kind, kb.Spans, kb.MeanLatency, kb.P50, kb.P95, kb.P99, kb.MaxLatency)
			for _, st := range kb.Stages {
				if st.Cycles == 0 {
					continue
				}
				fmt.Printf("        %-7s %12d cycles (%5.1f%%)\n", st.Stage, st.Cycles, 100*st.Share)
			}
		}
	}
}

// writeProbeFiles exports a probed run's timeline and trace artifacts
// (atomically: a failed export leaves no partial file).
func writeProbeFiles(res *gpusecmem.Result, timeline, traceOut string) error {
	pr := res.Probe
	if timeline != "" {
		err := atomicfile.WriteFile(timeline, func(w io.Writer) error {
			if strings.HasSuffix(timeline, ".csv") {
				return gpusecmem.WriteTimelineCSV(w, pr.Timeline)
			}
			return gpusecmem.WriteTimelineNDJSON(w, pr.Timeline)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "timeline -> %s (%d windows)\n", timeline, len(pr.Timeline))
	}
	if traceOut != "" {
		err := atomicfile.WriteFile(traceOut, func(w io.Writer) error {
			return gpusecmem.WriteChromeTrace(w, pr)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace -> %s (%d spans)\n", traceOut, pr.TraceSpans())
	}
	return nil
}

// fail reports a simulation error; a watchdog stall also gets its
// machine-state dump so a wedged configuration is diagnosable. A
// cooperative interrupt exits 130 like a conventional Ctrl-C.
func fail(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "interrupted; with -checkpoint-dir the run checkpointed and a rerun resumes")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, err)
	var stall *gpusecmem.StallError
	if errors.As(err, &stall) && stall.Dump != "" {
		fmt.Fprintln(os.Stderr, stall.Dump)
	}
	os.Exit(1)
}
