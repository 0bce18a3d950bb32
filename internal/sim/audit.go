package sim

import "fmt"

// auditDeepPeriod is how often (in cycles) the O(state) leak audits
// run; the O(SMs) conservation and queue-bound audits run every cycle.
const auditDeepPeriod = 256

// AuditError reports a violated simulator invariant: the machine's
// bookkeeping went out of balance, which would otherwise surface (if
// at all) as silently wrong results.
type AuditError struct {
	Benchmark string
	Cycle     uint64
	Check     string
	Detail    string
}

func (e *AuditError) Error() string {
	return fmt.Sprintf("sim: %s audit failed at cycle %d: %s: %s", e.Benchmark, e.Cycle, e.Check, e.Detail)
}

func (g *GPU) auditErr(check, format string, args ...interface{}) error {
	return &AuditError{
		Benchmark: g.gen.Name(),
		Cycle:     g.now,
		Check:     check,
		Detail:    fmt.Sprintf(format, args...),
	}
}

// audit runs the opt-in invariant checks after a completed cycle.
//
// Cheap (every cycle):
//   - conservation: every issued load sector is tracked exactly once —
//     the GPU's outstanding-load table matches the sum of what the SMs'
//     blocked warps are waiting for;
//   - queue bounds: every queued SM reply corresponds to an
//     outstanding load; every pending DRAM fill destination has a live
//     DRAM transaction.
//
// Deep (every auditDeepPeriod cycles and at the end of the run):
//   - MSHR/line accounting in every L1, L2 bank, and metadata cache
//     (free-list conservation, no phantom entries, no stale tokens);
//   - metadata writebacks: every dirty line a partition's metadata
//     caches evicted became a KindWB DRAM write, issued or still
//     queued.
//
// Auditing only reads state; it cannot perturb timing.
func (g *GPU) audit(deep bool) error {
	smOutstanding := 0
	for _, sm := range g.sms {
		smOutstanding += sm.OutstandingLoads()
	}
	if smOutstanding != g.loads.len() {
		return g.auditErr("conservation", "SMs await %d sector completions but %d loads are tracked", smOutstanding, g.loads.len())
	}
	if q := g.toSM.Len(); q > g.loads.len() {
		return g.auditErr("queue-bound", "toSM holds %d replies for %d outstanding loads", q, g.loads.len())
	}
	for _, p := range g.parts {
		if p.dests.len() > p.dram.InFlight() {
			return g.auditErr("queue-bound", "partition %d awaits %d DRAM fills but only %d transactions are live",
				p.id, p.dests.len(), p.dram.InFlight())
		}
	}
	if !deep {
		return nil
	}
	for i, l1 := range g.l1s {
		if err := l1.AuditLeaks(); err != nil {
			return g.auditErr("mshr-accounting", "SM %d: %v", i, err)
		}
	}
	for _, p := range g.parts {
		for bi, bank := range p.banks {
			if err := bank.AuditLeaks(); err != nil {
				return g.auditErr("mshr-accounting", "partition %d bank %d: %v", p.id, bi, err)
			}
		}
		var evicted uint64
		for _, mc := range p.metaCaches() {
			if err := mc.AuditLeaks(); err != nil {
				return g.auditErr("mshr-accounting", "partition %d: %v", p.id, err)
			}
			evicted += mc.Stats.Writebacks
		}
		wb := uint64(p.dram.QueuedOfKind(int(KindWB)))
		if byKind := p.dram.Stats.RequestsByKind; int(KindWB) < len(byKind) {
			wb += byKind[KindWB]
		}
		if evicted != wb {
			return g.auditErr("meta-writeback", "partition %d: metadata caches evicted %d dirty lines but enqueued %d DRAM writebacks",
				p.id, evicted, wb)
		}
	}
	return nil
}
