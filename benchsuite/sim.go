package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"gpusecmem"
	"gpusecmem/internal/runner"
)

// sweepJobs and longShards size the simulator workloads for a 2-core
// host: two sweep workers, two shard goroutines per long simulation.
const (
	sweepJobs  = 2
	longShards = 2
)

// point is one (scheme, benchmark) simulation configuration.
type point struct{ scheme, bench string }

func (p point) String() string { return p.scheme + "/" + p.bench }

func (p point) config(cycles uint64) (gpusecmem.Config, error) {
	cfg, err := gpusecmem.ConfigForScheme(p.scheme)
	cfg.MaxCycles = cycles
	return cfg, err
}

// another reports whether one more round, as long as the mean round so
// far, still ends inside the window. Windows hold whole rounds so every
// run measures the same mix of work.
func another(start time.Time, window time.Duration, rounds int) bool {
	el := time.Since(start)
	return el+el/time.Duration(rounds) <= window
}

// --- paper-sweep ---

var paperSweep = &workload{
	name:      "paper-sweep",
	setupReps: 5,
	// Set-up is planning the sweep: replaying every experiment against a
	// recording context to find its deduplicated runs.
	setup: func(b *bench, tr *tracer) (env, error) {
		e := &sweepEnv{b: b, tr: tr, opts: gpusecmem.Options{
			Cycles:     b.size.sweepCycles,
			Benchmarks: b.size.sweepBenchmarks,
		}}
		if plan := gpusecmem.NewContext(e.opts).PlanRuns(gpusecmem.Experiments()); len(plan) == 0 {
			return nil, fmt.Errorf("paper-sweep: the sweep plans no runs")
		}
		return e, nil
	},
}

type sweepEnv struct {
	b    *bench
	tr   *tracer
	opts gpusecmem.Options
}

// measure runs whole sweeps, each from a fresh memo with the
// experiments in a seeded order. An operation is one simulated run;
// every rendered experiment is also checked against its pinned digest.
func (e *sweepEnv) measure(ctx context.Context, t *tally, cal *calibrator) error {
	p := newPacer(cal, 1, time.Second)
	rng := e.b.rand(1)
	exps := gpusecmem.Experiments()
	var busy, wall, render float64
	var hits, misses uint64
	start := time.Now()
	for rounds := 1; ; rounds++ {
		p.pause()
		rng.Shuffle(len(exps), func(i, j int) { exps[i], exps[j] = exps[j], exps[i] })
		gctx := gpusecmem.NewContext(e.opts)
		if e.tr != nil {
			gctx.SetResultCache(runHook{tr: e.tr, work: &t.work})
		}
		rep := runner.Run(ctx, gctx, exps, runner.Options{Jobs: sweepJobs})
		if rep.Aborted {
			return fmt.Errorf("paper-sweep: %w", ctx.Err())
		}
		for _, r := range rep.Runs {
			t.op(r.WallSeconds*1e3, r.Error == "", "run "+r.Key+": "+r.Error)
			busy += r.WallSeconds
		}
		for _, res := range rep.Results {
			id := res.Experiment.ID
			got, err := renderDigest(res, e.opts)
			t.check(err == nil && got == e.b.pins.Sweep[id],
				fmt.Sprintf("%s: rendered digest %.12s, pinned %.12s (%v)", id, got, e.b.pins.Sweep[id], err))
			render += res.Elapsed.Seconds()
		}
		wall += rep.Wall.Seconds()
		hits += rep.CacheHits
		misses += rep.CacheMisses
		if !another(start, e.b.window, rounds) {
			t.seconds = (time.Since(start) - p.wall).Seconds()
			t.setExtra("runner.busy_share", ratio(busy, sweepJobs*wall))
			t.setExtra("memo.hit_ratio", ratio(float64(hits), float64(hits+misses)))
			t.setExtra("report.render_s", render/float64(rounds))
			return nil
		}
	}
}

// renderDigest renders one experiment byte for byte as `cmd/experiments
// -format md -out` writes its file and returns the sha256.
func renderDigest(res runner.ExperimentResult, opts gpusecmem.Options) (string, error) {
	if res.Err != nil {
		return "", res.Err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# %s\n# paper: %s\n", res.Experiment.Title, res.Experiment.PaperFinding)
	stamp := fmt.Sprintf("go run ./cmd/experiments -exp %s -cycles %d", res.Experiment.ID, opts.Cycles)
	if len(opts.Benchmarks) > 0 {
		stamp += " -benchmarks " + strings.Join(opts.Benchmarks, ",")
	}
	fmt.Fprintf(&buf, "# generated: %s -format md\n", stamp)
	for _, tb := range res.Tables {
		if err := tb.Write(&buf, "md"); err != nil {
			return "", err
		}
		buf.WriteByte('\n')
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

func (e *sweepEnv) verify(*tally) error { return nil }
func (e *sweepEnv) close()              {}

// --- long-run ---

var longRun = &workload{
	name:      "long-run",
	setupReps: 3,
	// Set-up is a warm-up: every point runs a twelfth of its horizon on
	// the sharded engine, which grows the heap to the simulator's working
	// size and starts the shard pool once before timing.
	setup: func(b *bench, tr *tracer) (env, error) {
		for _, p := range b.size.longPoints {
			cfg, err := p.config(b.size.longCycles / 12)
			if err != nil {
				return nil, err
			}
			cfg.Shards = longShards
			if _, err := gpusecmem.Simulate(cfg, p.bench); err != nil {
				return nil, fmt.Errorf("long-run warm-up: %s: %w", p, err)
			}
		}
		return &longEnv{b: b, tr: tr, sharded: map[point][]float64{}}, nil
	},
}

type longEnv struct {
	b  *bench
	tr *tracer

	// sharded holds each point's sharded-engine latencies (s), and
	// shardCPU/shardWall the process CPU and wall time they took, for
	// the shard metrics.
	sharded             map[point][]float64
	shardCPU, shardWall time.Duration
}

// simulate runs one point and checks its Result against the digest
// pinned from the sequential engine, so every sharded run also proves
// engine identity.
func (e *longEnv) simulate(ctx context.Context, t *tally, p point, shards int) (time.Duration, error) {
	cfg, err := p.config(e.b.size.longCycles)
	if err != nil {
		return 0, err
	}
	cfg.Shards = shards
	t0 := time.Now()
	res, err := gpusecmem.SimulateContext(ctx, cfg, p.bench)
	wall := time.Since(t0)
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	ok, what := err == nil, fmt.Sprintf("%s @%d shards: %v", p, shards, err)
	if ok {
		got, derr := digest(res)
		want := e.b.pins.Points[p.String()]
		ok = derr == nil && got == want
		what = fmt.Sprintf("%s @%d shards: digest %.12s, pinned %.12s", p, shards, got, want)
	}
	t.op(float64(wall.Nanoseconds())/1e6, ok, what)
	if ok && e.tr != nil {
		e.tr.record("sim", "simulate "+p.String(), e.tr.seq.Add(1), t0)
		t.work.add(res)
	}
	return wall, nil
}

// measure runs whole passes over the points, one simulation at a time
// on the sharded engine, each pass in a seeded order.
func (e *longEnv) measure(ctx context.Context, t *tally, cal *calibrator) error {
	p := newPacer(cal, 1, time.Second)
	rng := e.b.rand(2)
	pts := append([]point(nil), e.b.size.longPoints...)
	start := time.Now()
	for rounds := 1; ; rounds++ {
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		for _, pt := range pts {
			p.pause()
			cpu0 := cpuTime()
			wall, err := e.simulate(ctx, t, pt, longShards)
			if err != nil {
				return err
			}
			e.sharded[pt] = append(e.sharded[pt], wall.Seconds())
			e.shardCPU += cpuTime() - cpu0
			e.shardWall += wall
		}
		if !another(start, e.b.window, rounds) {
			t.seconds = (time.Since(start) - p.wall).Seconds()
			return nil
		}
	}
}

// verify, in a traced run, runs each point once on the sequential
// engine — after the profile, and checked against the same pins — and
// compares its time with the window's sharded runs.
func (e *longEnv) verify(t *tally) error {
	if e.tr == nil {
		return nil
	}
	var seqTotal, shardTotal float64
	speedupMin := 0.0
	for _, p := range e.b.size.longPoints {
		var scratch tally
		wall, err := e.simulate(context.Background(), &scratch, p, 0)
		if err != nil {
			return err
		}
		t.check(scratch.failed == 0, strings.Join(scratch.failures, "; "))
		sharded := mean(e.sharded[p])
		s := ratio(wall.Seconds(), sharded)
		if speedupMin == 0 || s < speedupMin {
			speedupMin = s
		}
		t.setDetail("shard_speedup "+p.String(), s)
		seqTotal += wall.Seconds()
		shardTotal += sharded
	}
	t.setExtra("shard.speedup", ratio(seqTotal, shardTotal))
	t.setExtra("shard.speedup_min", speedupMin)
	t.setExtra("shard.cpu_util", ratio(e.shardCPU.Seconds(), e.shardWall.Seconds()*longShards))
	return nil
}

func (e *longEnv) close() {}
