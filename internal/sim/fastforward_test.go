package sim

import (
	"encoding/json"
	"errors"
	"testing"

	"gpusecmem/internal/faults"
	"gpusecmem/internal/probe"
	"gpusecmem/internal/trace"
)

// runCounting runs cfg on bench, optionally in lockstep (one-cycle
// windows, no idle jumping), and returns the result (or error) plus
// how many barrier windows were executed.
func runCounting(t *testing.T, cfg Config, bench string, lockstep bool) (*Result, error, uint64) {
	t.Helper()
	g, err := New(cfg, trace.MustNew(bench))
	if err != nil {
		t.Fatal(err)
	}
	g.lockstep = lockstep
	res, rerr := g.Run()
	return res, rerr, g.windows
}

// TestFastForwardIdentity: the windowed, idle-skipping loop must
// produce bit-identical results to lockstep — skipped cycles are
// provably no-ops, so every statistic down to the last stall has to
// match a barrier at every cycle exactly.
func TestFastForwardIdentity(t *testing.T) {
	cases := []struct {
		cfg   Config
		bench string
	}{
		{SecureMem(), "fdtd2d"},
		{SecureMem(), "heartwall"},
		{Baseline(), "nw"},
	}
	for _, tc := range cases {
		tc.cfg.MaxCycles = testCycles
		fast, err1, _ := runCounting(t, tc.cfg, tc.bench, false)
		if err1 != nil {
			t.Fatal(err1)
		}
		slow, err2, slowSteps := runCounting(t, tc.cfg, tc.bench, true)
		if err2 != nil {
			t.Fatal(err2)
		}
		if slowSteps != testCycles {
			t.Fatalf("%s: lockstep ran %d windows for %d cycles", tc.bench, slowSteps, testCycles)
		}
		fj, _ := json.Marshal(fast)
		sj, _ := json.Marshal(slow)
		if string(fj) != string(sj) {
			t.Errorf("%s/%s: idle-skipping result differs from lockstep result\nfast: %s\nslow: %s",
				tc.cfg.Secure.Encryption, tc.bench, fj, sj)
		}
	}
}

// TestIdleSkipWedgedMachine wedges every SM by dropping all
// interconnect messages: every load stays outstanding forever, so after
// the in-flight work drains the machine has nothing to do until the
// watchdog fires. The activity-driven loop must (a) skip nearly all of
// those dead cycles, and (b) still land the watchdog on the exact cycle
// lockstep fires it, with the same diagnostic state.
func TestIdleSkipWedgedMachine(t *testing.T) {
	cfg := Baseline()
	cfg.MaxCycles = 100000
	cfg.WatchdogCycles = 20000
	cfg.Faults = &faults.Plan{Seed: 1, Rate: 1, Sites: faults.SiteIcntDrop.Mask()}

	_, fastErr, fastSteps := runCounting(t, cfg, "fdtd2d", false)
	_, slowErr, slowSteps := runCounting(t, cfg, "fdtd2d", true)

	var fastStall, slowStall *StallError
	if !errors.As(fastErr, &fastStall) {
		t.Fatalf("fast run: want StallError, got %v", fastErr)
	}
	if !errors.As(slowErr, &slowStall) {
		t.Fatalf("slow run: want StallError, got %v", slowErr)
	}
	if fastStall.Cycle != slowStall.Cycle || fastStall.LastProgressCycle != slowStall.LastProgressCycle {
		t.Errorf("watchdog timing differs: fast fired at %d (progress %d), slow at %d (progress %d)",
			fastStall.Cycle, fastStall.LastProgressCycle, slowStall.Cycle, slowStall.LastProgressCycle)
	}
	if fastStall.OutstandingLoads != slowStall.OutstandingLoads ||
		fastStall.BlockedWarps != slowStall.BlockedWarps {
		t.Errorf("stall state differs: fast %d loads/%d warps, slow %d loads/%d warps",
			fastStall.OutstandingLoads, fastStall.BlockedWarps,
			slowStall.OutstandingLoads, slowStall.BlockedWarps)
	}
	// The wedged stretch is ~WatchdogCycles long; lockstep runs a
	// window for every cycle of it, the idle-skipping loop almost none.
	if slowSteps != slowStall.Cycle {
		t.Fatalf("lockstep ran %d windows, watchdog fired at %d", slowSteps, slowStall.Cycle)
	}
	if fastSteps*10 > slowSteps {
		t.Errorf("idle skipping skipped too little: %d windows vs %d wedged cycles", fastSteps, slowSteps)
	}
}

// TestFastForwardRespectsProbeTimeline: idle skipping may not jump a
// timeline sampling boundary; window counts and contents must match
// lockstep.
func TestFastForwardRespectsProbeTimeline(t *testing.T) {
	cfg := SecureMem()
	cfg.MaxCycles = testCycles
	cfg.Probe = &probe.Config{TimelineInterval: 500}
	fast, err1, _ := runCounting(t, cfg, "heartwall", false)
	if err1 != nil {
		t.Fatal(err1)
	}
	slow, err2, _ := runCounting(t, cfg, "heartwall", true)
	if err2 != nil {
		t.Fatal(err2)
	}
	fj, _ := json.Marshal(fast.Probe)
	sj, _ := json.Marshal(slow.Probe)
	if string(fj) != string(sj) {
		t.Errorf("probe timelines differ between fast and slow loops")
	}
}
