package sim

import (
	"fmt"
	"sort"
	"strings"
)

// StallError reports a forward-progress stall: no instruction issued
// and no load completed for Config.WatchdogCycles cycles while loads
// were outstanding. It carries a diagnostic dump of the machine state
// (queue depths, MSHR occupancy, per-SM blocked warps) so a wedged
// configuration is debuggable from the sweep report alone.
type StallError struct {
	Benchmark string
	// Cycle is when the watchdog fired; LastProgressCycle is the last
	// cycle anything retired or issued.
	Cycle             uint64
	LastProgressCycle uint64
	OutstandingLoads  int
	BlockedWarps      int
	// Dump is the multi-line machine-state snapshot.
	Dump string
}

func (e *StallError) Error() string {
	return fmt.Sprintf("sim: %s stalled: no forward progress since cycle %d (watchdog fired at cycle %d; %d loads outstanding, %d warps blocked)",
		e.Benchmark, e.LastProgressCycle, e.Cycle, e.OutstandingLoads, e.BlockedWarps)
}

// checkWatchdog aborts the run when the machine has made no forward
// progress for WatchdogCycles cycles with loads still in flight. An
// idle machine (nothing outstanding) is not a stall. The SM task keeps
// lastProgressAt exact to the cycle (see smWindow).
func (g *GPU) checkWatchdog() error {
	if g.cfg.WatchdogCycles == 0 {
		return nil
	}
	if g.loads.len() == 0 || g.now-g.lastProgressAt < g.cfg.WatchdogCycles {
		return nil
	}
	blocked := 0
	for _, sm := range g.sms {
		blocked += sm.BlockedWarps()
	}
	return &StallError{
		Benchmark:         g.gen.Name(),
		Cycle:             g.now,
		LastProgressCycle: g.lastProgressAt,
		OutstandingLoads:  g.loads.len(),
		BlockedWarps:      blocked,
		Dump:              g.dumpState(),
	}
}

// dumpState renders a bounded snapshot of the machine for stall
// diagnostics: interconnect queues, per-SM blocked warps, and the
// partitions that still hold work.
func (g *GPU) dumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d, %d loads outstanding\n", g.now, g.loads.len())
	fmt.Fprintf(&b, "icnt toL2: %d queued (pushed %d, delivered %d, dropped %d, duplicated %d)\n",
		g.toL2.Len(), g.toL2.Stats.Pushed, g.toL2.Stats.Delivered, g.toL2.Stats.Dropped, g.toL2.Stats.Duplicated)
	fmt.Fprintf(&b, "icnt toSM: %d queued (pushed %d, delivered %d, dropped %d, duplicated %d)\n",
		g.toSM.Len(), g.toSM.Stats.Pushed, g.toSM.Stats.Delivered, g.toSM.Stats.Dropped, g.toSM.Stats.Duplicated)

	type smLine struct {
		id, blocked, outstanding, pendingL1 int
	}
	var stuck []smLine
	for i, sm := range g.sms {
		if bw := sm.BlockedWarps(); bw > 0 {
			stuck = append(stuck, smLine{i, bw, sm.OutstandingLoads(), g.l1s[i].PendingFills()})
		}
	}
	fmt.Fprintf(&b, "SMs with blocked warps: %d/%d\n", len(stuck), len(g.sms))
	sort.Slice(stuck, func(i, j int) bool { return stuck[i].outstanding > stuck[j].outstanding })
	for i, s := range stuck {
		if i == 8 {
			fmt.Fprintf(&b, "  ... %d more\n", len(stuck)-i)
			break
		}
		fmt.Fprintf(&b, "  SM %d: %d blocked warps, %d outstanding sectors, %d pending L1 fills\n",
			s.id, s.blocked, s.outstanding, s.pendingL1)
	}

	busy := 0
	for _, p := range g.parts {
		if p.dram.InFlight() == 0 && p.reads.len() == 0 && p.dests.len() == 0 && p.replies.Len() == 0 {
			continue
		}
		busy++
		if busy <= 8 {
			l2Pending := 0
			for _, bank := range p.banks {
				l2Pending += bank.PendingFills()
			}
			fmt.Fprintf(&b, "partition %d: dram queue %d, in flight %d, reads %d, fills awaited %d, replies scheduled %d, L2 MSHR fills %d\n",
				p.id, p.dram.QueueLen(), p.dram.InFlight(), p.reads.len(), p.dests.len(), p.replies.Len(), l2Pending)
		}
	}
	fmt.Fprintf(&b, "partitions with work: %d/%d\n", busy, len(g.parts))
	return b.String()
}
