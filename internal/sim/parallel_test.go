package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"gpusecmem/internal/faults"
	"gpusecmem/internal/probe"
	"gpusecmem/internal/trace"
)

// runSharded runs cfg/bench with the given shard count.
func runSharded(t *testing.T, cfg Config, bench string, shards int) (*Result, error) {
	t.Helper()
	cfg.Shards = shards
	g, err := New(cfg, trace.MustNew(bench))
	if err != nil {
		t.Fatal(err)
	}
	return g.Run()
}

// TestParallelIdentity: the windowed engine must produce byte-identical
// results for every shard count, including counts that do not divide
// the partition count and the one-partition-per-shard extreme.
func TestParallelIdentity(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		bench string
	}{
		{"securemem/fdtd2d", SecureMem(), "fdtd2d"},
		{"securemem/heartwall", SecureMem(), "heartwall"},
		{"baseline/nw", Baseline(), "nw"},
		{"direct_mac_mt/lbm", DirectMem(60, true, true), "lbm"},
	}
	shardCounts := []int{2, 4, 5, 8, 32}
	for _, tc := range cases {
		tc.cfg.MaxCycles = testCycles
		seq, err := runSharded(t, tc.cfg, tc.bench, 0)
		if err != nil {
			t.Fatal(err)
		}
		seqJSON, _ := json.Marshal(seq)
		for _, s := range shardCounts {
			par, err := runSharded(t, tc.cfg, tc.bench, s)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, s, err)
			}
			parJSON, _ := json.Marshal(par)
			if string(parJSON) != string(seqJSON) {
				t.Errorf("%s shards=%d: result differs from the one-shard run\nseq: %s\npar: %s",
					tc.name, s, seqJSON, parJSON)
			}
		}
	}
}

// instrumentFingerprint renders everything an instrumented run reports:
// the Result JSON (probe summary and timeline samples included), the
// fault counters (not part of the JSON form), the Chrome trace bytes,
// or the StallError's cycle and fields.
func instrumentFingerprint(t *testing.T, res *Result, err error) string {
	t.Helper()
	var stall *StallError
	if errors.As(err, &stall) {
		return fmt.Sprintf("stall %+v", *stall)
	}
	if err != nil {
		t.Fatal(err)
	}
	j, jerr := json.Marshal(res)
	if jerr != nil {
		t.Fatal(jerr)
	}
	out := fmt.Sprintf("%s\nfaults %+v", j, res.Faults)
	if res.Probe != nil {
		var tr bytes.Buffer
		if err := probe.WriteChromeTrace(&tr, res.Probe); err != nil {
			t.Fatal(err)
		}
		out += "\ntrace " + tr.String()
	}
	return out
}

// TestInstrumentShardIdentity: probes, fault injection and auditing
// ride the window barrier — spans and fault draws are staged by the
// partitions and replayed in canonical merge order, timeline samples
// land on barriers — so an instrumented run reports the same bytes at
// every shard count: Result, fault counters, a truncated Chrome trace,
// timeline samples, and a wedged run's StallError. Without the barrier
// sorts the staged order depends on the shard layout and this fails.
func TestInstrumentShardIdentity(t *testing.T) {
	wedge := Baseline()
	wedge.MaxCycles = 20000
	wedge.WatchdogCycles = 1500
	wedge.Faults = &faults.Plan{Seed: 1, Rate: 1, Sites: faults.SiteIcntDrop.Mask()}
	wedge.Probe = &probe.Config{TimelineInterval: 500}
	cases := []struct {
		name  string
		short bool
		mut   func(*Config)
	}{
		{"spans+trace", true, func(c *Config) {
			c.Probe = &probe.Config{Spans: true, Trace: true, TraceCap: 500}
		}},
		{"timeline", false, func(c *Config) { c.Probe = &probe.Config{TimelineInterval: 250} }},
		{"flips", true, func(c *Config) {
			c.Faults = &faults.Plan{Seed: 7, Rate: 0.01, Sites: faults.FlipSites}
		}},
		{"all-sites", false, func(c *Config) {
			c.Faults = &faults.Plan{Seed: 11, Rate: 0.02, Sites: faults.AllSites}
			c.WatchdogCycles = 0 // drops legitimately wedge some warps
		}},
		{"wedging-drop", true, func(c *Config) { *c = wedge }},
		{"audit", false, func(c *Config) { c.Audit = true }},
	}
	benches := []string{"fdtd2d", "nw"}
	if testing.Short() {
		benches = benches[:1]
	}
	for _, tc := range cases {
		if testing.Short() && !tc.short {
			continue
		}
		for _, bench := range benches {
			cfg := SecureMem()
			cfg.MaxCycles = 3000
			tc.mut(&cfg)
			var want string
			for _, s := range []int{1, 4, 8} {
				res, err := runSharded(t, cfg, bench, s)
				got := instrumentFingerprint(t, res, err)
				if s == 1 {
					want = got
				} else if got != want {
					t.Errorf("%s/%s: shards=%d report differs from shards=1", tc.name, bench, s)
				}
			}
		}
	}
}

// TestParallelWatchdogBoundary: a run that stalls must fire the
// watchdog at the identical cycle with the identical diagnostic state
// at every shard count. The aggressive threshold turns the first
// all-warps-blocked DRAM stretch into a "stall", exercising the
// barrier's exact landing on the fire cycle.
func TestParallelWatchdogBoundary(t *testing.T) {
	cfg := SecureMem()
	cfg.MaxCycles = 200000
	// Empirically below the longest quiet stretch of this workload, so
	// the watchdog fires mid-run at both shard counts.
	cfg.WatchdogCycles = watchdogProbeThreshold(t, cfg, "fdtd2d")

	_, seqErr := runSharded(t, cfg, "fdtd2d", 0)
	_, parErr := runSharded(t, cfg, "fdtd2d", 8)
	var seqStall, parStall *StallError
	if !errors.As(seqErr, &seqStall) {
		t.Fatalf("one-shard run: want StallError, got %v", seqErr)
	}
	if !errors.As(parErr, &parStall) {
		t.Fatalf("8-shard run: want StallError, got %v", parErr)
	}
	if seqStall.Cycle != parStall.Cycle || seqStall.LastProgressCycle != parStall.LastProgressCycle {
		t.Errorf("watchdog timing differs: one shard fired at %d (progress %d), 8 shards at %d (progress %d)",
			seqStall.Cycle, seqStall.LastProgressCycle, parStall.Cycle, parStall.LastProgressCycle)
	}
	if seqStall.Dump != parStall.Dump {
		t.Errorf("stall dumps differ:\nseq:\n%s\npar:\n%s", seqStall.Dump, parStall.Dump)
	}
}

// watchdogProbeThreshold finds a threshold that stalls cfg/bench: the
// longest progress gap of an unrestricted run, halved. Skips the test
// if the workload never goes quiet long enough to fake a stall.
func watchdogProbeThreshold(t *testing.T, cfg Config, bench string) uint64 {
	t.Helper()
	probeCfg := cfg
	probeCfg.WatchdogCycles = 0
	probeCfg.Shards = 0
	g, err := New(probeCfg, trace.MustNew(bench))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	gap := g.maxProgressGap
	if gap < 8 {
		t.Skipf("workload never idles (max progress gap %d); cannot provoke a stall", gap)
	}
	return gap / 2
}

// TestParallelBarrierMergeRace is the -race stress: many concurrent
// sharded runs hammer fork/join, staging, and the canonical merge
// while asserting determinism against a reference digest.
func TestParallelBarrierMergeRace(t *testing.T) {
	cfg := SecureMem()
	cfg.MaxCycles = 2500
	ref, err := runSharded(t, cfg, "fdtd2d", 0)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref)
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 12; i++ {
		shards := []int{2, 3, 8}[i%3]
		wg.Add(1)
		go func(shards, i int) {
			defer wg.Done()
			c := cfg
			c.Shards = shards
			g, err := New(c, trace.MustNew("fdtd2d"))
			if err != nil {
				errs <- err
				return
			}
			res, err := g.Run()
			if err != nil {
				errs <- err
				return
			}
			j, _ := json.Marshal(res)
			if string(j) != string(refJSON) {
				errs <- fmt.Errorf("run %d (shards=%d): nondeterministic result", i, shards)
			}
		}(shards, i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestValidateShards: invalid shard counts must be rejected with
// actionable errors before simulation, not panic at runtime.
func TestValidateShards(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"zero (inline)", func(c *Config) { c.Shards = 0 }, true},
		{"one (inline)", func(c *Config) { c.Shards = 1 }, true},
		{"equal to partitions", func(c *Config) { c.Shards = c.NumPartitions }, true},
		{"non-dividing", func(c *Config) { c.Shards = 5 }, true},
		{"negative", func(c *Config) { c.Shards = -1 }, false},
		{"more shards than partitions", func(c *Config) { c.Shards = c.NumPartitions + 1 }, false},
	}
	for _, tc := range cases {
		cfg := Baseline()
		tc.mut(&cfg)
		err := cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: Validate accepted an invalid shard setup", tc.name)
		}
	}
}
