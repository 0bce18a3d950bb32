package sim

import (
	"errors"
	"reflect"
	"testing"

	"gpusecmem/internal/faults"
	"gpusecmem/internal/trace"
)

// TestWatchdogFiresOnWedge: dropping every interconnect reply wedges
// the machine (warps block on loads that never return); the watchdog
// must abort with a *StallError carrying a diagnostic dump instead of
// spinning to MaxCycles.
func TestWatchdogFiresOnWedge(t *testing.T) {
	cfg := Baseline()
	cfg.MaxCycles = 200_000
	cfg.WatchdogCycles = 2_000
	cfg.Faults = &faults.Plan{Seed: 1, Rate: 1, Sites: faults.SiteIcntDrop.Mask()}
	cfg.Audit = true // invariants must hold even on a wedged machine

	_, err := Run(cfg, "fdtd2d")
	if err == nil {
		t.Fatal("wedged run completed without error")
	}
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *StallError, got %T: %v", err, err)
	}
	if stall.OutstandingLoads == 0 {
		t.Error("stall reported with no outstanding loads")
	}
	if stall.Dump == "" {
		t.Error("stall error carries no diagnostic dump")
	}
	if stall.Cycle >= cfg.MaxCycles {
		t.Errorf("watchdog fired at %d, after MaxCycles", stall.Cycle)
	}
	if stall.Cycle-stall.LastProgressCycle < cfg.WatchdogCycles {
		t.Errorf("fired after %d silent cycles, threshold %d",
			stall.Cycle-stall.LastProgressCycle, cfg.WatchdogCycles)
	}
}

// TestWatchdogQuietOnHealthyRun: a healthy run under the default
// (Baseline) watchdog threshold must complete normally.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	cfg := SecureMem()
	if cfg.WatchdogCycles == 0 {
		t.Fatal("default configs should enable the watchdog")
	}
	runFor(t, cfg, "fdtd2d") // fatals on any error
}

// TestAuditorsPassOnCatalogue: the invariant auditors must stay quiet
// across the whole benchmark catalogue on the baseline, the full
// secure design, and that design with allocate-on-miss metadata
// caches. -short checks a representative subset.
func TestAuditorsPassOnCatalogue(t *testing.T) {
	benches := trace.Names()
	if testing.Short() {
		benches = []string{"fdtd2d", "b+tree", "lbm"}
	}
	allocOnMiss := SecureMem()
	allocOnMiss.Secure.AllocOnFill = false
	for _, cfg := range []Config{Baseline(), SecureMem(), allocOnMiss} {
		cfg.Audit = true
		for _, b := range benches {
			runFor(t, cfg, b)
		}
	}
}

// TestAllocOnMissWritebacksReachDRAM: under allocate-on-miss a
// metadata miss claims its victim way at access time, so a read-path
// lookup can evict a dirty line too. The meta-writeback audit must
// find every such eviction as a KindWB DRAM write.
func TestAllocOnMissWritebacksReachDRAM(t *testing.T) {
	cfg := SecureMem()
	cfg.Secure.AllocOnFill = false
	cfg.Audit = true
	cfg.MaxCycles = 6000
	if _, err := Run(cfg, "lbm"); err != nil {
		t.Fatal(err)
	}
}

// TestFaultPlanRateZeroIdentical: a rate-0 plan (and a nil one) must
// be byte-identical to an uninstrumented run — the zero-cost-off
// property the injection layer promises.
func TestFaultPlanRateZeroIdentical(t *testing.T) {
	plain := runFor(t, SecureMem(), "fdtd2d")

	cfg := SecureMem()
	cfg.Faults = &faults.Plan{Seed: 99, Rate: 0, Sites: faults.AllSites}
	armed := runFor(t, cfg, "fdtd2d")

	if !reflect.DeepEqual(plain, armed) {
		t.Fatalf("rate-0 plan perturbed the run:\nplain %+v\narmed %+v", plain, armed)
	}
}

// TestFaultDetectionByProtection: under full protection every injected
// data/metadata corruption is classified detected; with no protection
// the same plan runs entirely silent.
func TestFaultDetectionByProtection(t *testing.T) {
	plan := &faults.Plan{Seed: 7, Rate: 0.01, Sites: faults.FlipSites}

	full := SecureMem()
	full.Faults = plan
	r := runFor(t, full, "fdtd2d")
	if r.Faults.Corruptions() == 0 {
		t.Fatal("plan injected nothing; raise the rate")
	}
	if r.Faults.Silent != 0 {
		t.Errorf("full protection let %d corruptions pass silently", r.Faults.Silent)
	}
	if r.Faults.Detected == 0 {
		t.Error("full protection detected nothing")
	}

	bare := Baseline()
	bare.Faults = plan
	r = runFor(t, bare, "fdtd2d")
	if r.Faults.Corruptions() == 0 {
		t.Fatal("plan injected nothing on baseline")
	}
	if r.Faults.Detected != 0 {
		t.Errorf("unprotected baseline claims %d detections", r.Faults.Detected)
	}
	if r.Faults.Silent == 0 {
		t.Error("unprotected baseline reports no silent corruptions")
	}
}

// TestDuplicateRepliesTolerated: duplicated interconnect replies must
// be absorbed (idempotent load completion) without tripping the
// auditors or corrupting accounting.
func TestDuplicateRepliesTolerated(t *testing.T) {
	cfg := SecureMem()
	cfg.Audit = true
	cfg.Faults = &faults.Plan{Seed: 3, Rate: 0.05, Sites: faults.SiteIcntDup.Mask()}
	r := runFor(t, cfg, "fdtd2d")
	if r.Faults.DuplicatedReplies == 0 {
		t.Fatal("dup site injected nothing; raise the rate")
	}
}

// TestDroppedRepliesCounted: a low drop rate should register in the
// stats while the watchdog (long threshold) stays quiet for the short
// unit-test horizon.
func TestDroppedRepliesCounted(t *testing.T) {
	cfg := Baseline()
	cfg.WatchdogCycles = 0 // drops legitimately wedge some warps
	cfg.Faults = &faults.Plan{Seed: 5, Rate: 0.02, Sites: faults.SiteIcntDrop.Mask()}
	r := runFor(t, cfg, "fdtd2d")
	if r.Faults.DroppedReplies == 0 {
		t.Fatal("drop site injected nothing; raise the rate")
	}
}
