package sim

import (
	"context"
	"fmt"

	"gpusecmem/internal/cache"
	"gpusecmem/internal/faults"
	"gpusecmem/internal/geometry"
	"gpusecmem/internal/icnt"
	"gpusecmem/internal/probe"
	"gpusecmem/internal/smcore"
	"gpusecmem/internal/trace"
)

// l2Msg travels SM -> partition.
type l2Msg struct {
	globalAddr uint64
	token      uint64
	write      bool
}

// smReply travels partition -> SM; token identifies the L1-level
// request (and thus the SM and warp).
type smReply struct {
	globalAddr uint64
	token      uint64
}

// loadReq records an outstanding L1-level sector request.
type loadReq struct {
	sm         int
	warp       int
	fillBypass bool
}

// GPU is one simulated machine instance running one workload.
type GPU struct {
	cfg Config
	gen smcore.Generator

	sms   []*smcore.SM
	l1s   []*cache.Cache
	parts []*partition

	toL2 *icnt.DelayQueue[l2Msg]
	toSM *icnt.DelayQueue[smReply]

	now      uint64
	tokenSeq uint64
	loads    map[uint64]loadReq

	// Activity tracking for the event-driven cycle loop. smWake[i] and
	// partNext[i] are conservative lower bounds on the next cycle SM i
	// (resp. partition i) could do anything; a component is skipped
	// while its bound lies in the future, and the whole loop
	// fast-forwards to the earliest bound when every component is idle.
	// smLastTick[i] is the last cycle SM i actually ticked, for lazy
	// full-stall settlement (see smcore.AccountIdle).
	smWake     []uint64
	smLastTick []uint64
	partNext   []uint64
	// stepped counts executed steps (<= now once fast-forwarding
	// skips); disableFF forces the legacy every-cycle loop — both are
	// test hooks for the idle-skip machinery.
	stepped   uint64
	disableFF bool
	// oneTok backs single-token reply delivery without allocating.
	oneTok [1]uint64

	// smStage, when non-nil, redirects issueMem's L1-hit replies into
	// the parallel engine's SM-task staging buffer; parallelWindows
	// counts executed barrier windows (a test hook asserting which
	// engine actually ran).
	smStage         *replyStage
	parallelWindows uint64

	// inj executes cfg.Faults; nil on the (zero-cost) no-fault path.
	inj *faults.Injector
	// probe carries the observability instruments; nil on the
	// (zero-cost) unprobed path.
	probe *probe.State
	// Checkpointing (DESIGN.md §14): every ckptEvery cycles the run
	// loop snapshots the machine at an end-of-cycle boundary and hands
	// the state to ckptSink; ckptLast suppresses duplicate snapshots
	// when the loop lands on the same cycle twice. Inert (nil sink)
	// unless SetCheckpoint armed it.
	ckptEvery uint64
	ckptSink  func(cycle uint64, st *MachineState)
	ckptLast  uint64

	// completedLoads counts retirements; with issued instructions it
	// forms the watchdog's forward-progress metric.
	completedLoads uint64
	lastProgress   uint64
	lastProgressAt uint64
	// maxProgressGap is the longest observed stretch between progress
	// events (diagnostics and tests; maintained by the sequential
	// engine's watchdog check).
	maxProgressGap uint64
}

// New builds a GPU for cfg running the given workload generator.
func New(cfg Config, gen smcore.Generator) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GPU{
		cfg:   cfg,
		gen:   gen,
		toL2:  icnt.NewDelayQueue[l2Msg](cfg.IcntLatency),
		toSM:  icnt.NewDelayQueue[smReply](cfg.IcntLatency),
		loads: make(map[uint64]loadReq),
	}
	gen = g.wrapGenerator(gen)
	g.gen = gen
	active := gen.ActiveSMs()
	if active <= 0 || active > cfg.NumSMs {
		active = cfg.NumSMs
	}
	for i := 0; i < active; i++ {
		g.sms = append(g.sms, smcore.New(i, gen, cfg.IssueWidth))
		g.l1s = append(g.l1s, cache.New(cache.Config{
			Name:        "L1",
			SizeBytes:   cfg.L1Bytes,
			LineSize:    geometry.LineSize,
			Assoc:       cfg.L1Assoc,
			Sectored:    true,
			NumMSHRs:    64,
			MergeCap:    16,
			AllocOnFill: true,
		}))
	}
	for p := 0; p < cfg.NumPartitions; p++ {
		g.parts = append(g.parts, newPartition(p, g))
	}
	g.smWake = make([]uint64, len(g.sms))
	g.smLastTick = make([]uint64, len(g.sms))
	g.partNext = make([]uint64, len(g.parts))
	g.inj = faults.NewInjector(cfg.Faults)
	g.probe = probe.NewState(cfg.Probe, kindLabels())
	if in := g.inj; in != nil &&
		(cfg.Faults.Sites.Has(faults.SiteIcntDrop) || cfg.Faults.Sites.Has(faults.SiteIcntDup)) {
		// Attack the response path: a dropped reply loses a completion
		// (the victim warp wedges until the watchdog notices); a
		// duplicated reply replays one (tolerated — the second delivery
		// finds its load already retired).
		g.toSM.SetTap(func(r smReply) int {
			if in.Fire(faults.SiteIcntDrop, r.globalAddr) {
				return 0
			}
			if in.Fire(faults.SiteIcntDup, r.globalAddr) {
				return 2
			}
			return 1
		})
	}
	return g, nil
}

// wrapGenerator applies the WarpOverride and clamps addresses to the
// protected region.
func (g *GPU) wrapGenerator(gen smcore.Generator) smcore.Generator {
	return &boundedGen{inner: gen, limit: g.cfg.ProtectedBytes, warpOverride: g.cfg.WarpOverride}
}

type boundedGen struct {
	inner        smcore.Generator
	limit        uint64
	warpOverride int
}

func (b *boundedGen) Name() string { return b.inner.Name() }
func (b *boundedGen) WarpsPerSM() int {
	if b.warpOverride > 0 {
		return b.warpOverride
	}
	return b.inner.WarpsPerSM()
}
func (b *boundedGen) ActiveSMs() int { return b.inner.ActiveSMs() }
func (b *boundedGen) Next(sm, warp, iter int) smcore.WarpOp {
	op := b.inner.Next(sm, warp, iter)
	for i, a := range op.Sectors {
		op.Sectors[i] = a % b.limit / trace.SectorSize * trace.SectorSize
	}
	return op
}

func (g *GPU) newToken() uint64 {
	g.tokenSeq++
	return g.tokenSeq
}

// partitionOf returns the partition index and partition-local address
// of a global address (256 B interleave across partitions).
func (g *GPU) partitionOf(globalAddr uint64) (int, uint64) {
	np := uint64(g.cfg.NumPartitions)
	chunk := globalAddr / 256
	part := int(chunk % np)
	local := (chunk/np)*256 + globalAddr%256
	return part, local
}

// scheduleReply sends completed sector data back toward the SMs.
func (g *GPU) scheduleReply(at uint64, globalAddr uint64, tokens []uint64) {
	extra := uint64(0)
	if at > g.now {
		extra = at - g.now
	}
	for _, tok := range tokens {
		g.toSM.PushAfter(g.now, extra, smReply{globalAddr: globalAddr, token: tok})
	}
}

// issueMem is the SM memory callback: it performs L1 lookups and
// forwards misses and stores toward the partitions.
func (g *GPU) issueMem(mi smcore.MemIssue) int {
	if mi.Write {
		for _, addr := range mi.Sectors {
			g.toL2.Push(g.now, l2Msg{globalAddr: addr, write: true})
		}
		return 0
	}
	l1 := g.l1s[mi.SM]
	outstanding := 0
	for _, addr := range mi.Sectors {
		tok := g.newToken()
		acc := l1.Access(addr, false, tok)
		switch {
		case acc.Outcome == cache.Hit:
			outstanding++
			g.loads[tok] = loadReq{sm: mi.SM, warp: mi.Warp}
			// Hit latency reply through the local pipeline (no icnt).
			if st := g.smStage; st != nil {
				g.oneTok[0] = tok
				st.stageReply(g.now, g.now+g.cfg.L1Latency, addr, g.oneTok[:])
			} else {
				g.toSM.PushAfter(g.now, g.cfg.L1Latency, smReply{globalAddr: addr, token: tok})
			}
		case acc.NeedFetch:
			outstanding++
			g.loads[tok] = loadReq{sm: mi.SM, warp: mi.Warp, fillBypass: acc.Bypass}
			g.toL2.Push(g.now, l2Msg{globalAddr: addr, token: tok})
		default: // merged into an L1 MSHR
			outstanding++
			g.loads[tok] = loadReq{sm: mi.SM, warp: mi.Warp}
		}
	}
	return outstanding
}

// deliverReply processes one sector arriving back at an SM: fill the
// L1 and wake every warp waiting on it.
func (g *GPU) deliverReply(r smReply) {
	lr, ok := g.loads[r.token]
	if !ok {
		return
	}
	l1 := g.l1s[lr.sm]
	if l1.Present(r.globalAddr) {
		// L1 hit reply or a redundant bypass fill.
		g.completeLoad(r.token)
		return
	}
	fill := g.l1s[lr.sm].Fill(r.globalAddr, lr.fillBypass, false)
	// L1 is write-through: evictions are clean, no writeback path.
	// fill.Tokens is cache-owned scratch; completeLoad consumes it
	// before anything can touch the L1 again.
	tokens := fill.Tokens
	if lr.fillBypass {
		tokens = append(tokens, r.token)
	}
	if len(tokens) == 0 {
		g.oneTok[0] = r.token
		tokens = g.oneTok[:]
	}
	for _, tok := range tokens {
		g.completeLoad(tok)
	}
}

func (g *GPU) completeLoad(token uint64) {
	lr, ok := g.loads[token]
	if !ok {
		return
	}
	delete(g.loads, token)
	g.completedLoads++
	g.sms[lr.sm].Complete(lr.warp, g.now)
	// The woken warp is ready at now+1.
	if g.smWake[lr.sm] > g.now+1 {
		g.smWake[lr.sm] = g.now + 1
	}
}

// step advances the machine one cycle, touching only components whose
// activity bound says they could do something. Skipping is
// state-identical to the legacy all-components step: a DelayQueue with
// nothing ready pops nothing, an idle partition's tick moves nothing,
// and an SM with no ready warp only accrues full-stall cycles (settled
// lazily via AccountIdle).
func (g *GPU) step() {
	g.now++
	g.stepped++
	// Interconnect deliveries into the partitions. A delivery re-arms
	// its partition for this cycle.
	if g.toL2.NextReady() <= g.now {
		for _, m := range g.toL2.PopReady(g.now) {
			part, local := g.partitionOf(m.globalAddr)
			g.partNext[part] = g.now
			if m.write {
				g.parts[part].handleL2Write(local, g.now)
			} else {
				g.parts[part].handleL2Read(m.globalAddr, local, m.token, g.now)
			}
		}
	}
	// Partitions: replies and DRAM.
	for i, p := range g.parts {
		if g.partNext[i] > g.now {
			continue
		}
		p.tick(g.now)
		g.partNext[i] = p.nextEvent(g.now)
	}
	// Replies into the SMs.
	if g.toSM.NextReady() <= g.now {
		for _, r := range g.toSM.PopReady(g.now) {
			g.deliverReply(r)
		}
	}
	// Issue.
	for i, sm := range g.sms {
		if g.smWake[i] > g.now {
			continue
		}
		if idle := g.now - g.smLastTick[i] - 1; idle > 0 {
			sm.AccountIdle(idle)
		}
		sm.Tick(g.now, g.issueMem)
		g.smLastTick[i] = g.now
		g.smWake[i] = sm.NextReady(g.now + 1)
	}
	if g.probe != nil {
		g.sampleProbe()
	}
}

// settleIdleStalls books the full-stall cycles of SMs that were
// skipped since their last tick, bringing Stalls up to date through
// g.now. Called before any reader of SM counters outside the loop.
func (g *GPU) settleIdleStalls() {
	for i, sm := range g.sms {
		if idle := g.now - g.smLastTick[i]; idle > 0 {
			sm.AccountIdle(idle)
			g.smLastTick[i] = g.now
		}
	}
}

// nextInteresting returns the earliest cycle after g.now at which any
// component could act: interconnect deliveries, partition events, and
// SM wake-ups, capped by the cycles external observers must land on —
// the watchdog's firing cycle and the probe timeline's sampling
// boundaries.
func (g *GPU) nextInteresting() uint64 {
	next := g.toL2.NextReady()
	if t := g.toSM.NextReady(); t < next {
		next = t
	}
	for _, t := range g.partNext {
		if t < next {
			next = t
		}
	}
	for _, t := range g.smWake {
		if t < next {
			next = t
		}
	}
	if g.cfg.WatchdogCycles > 0 {
		// Land exactly on the cycle checkWatchdog would fire, so a
		// wedged run stalls at the same cycle with the same dump as the
		// legacy loop.
		if fire := g.lastProgressAt + g.cfg.WatchdogCycles; fire < next {
			next = fire
		}
	}
	if g.probe != nil && g.probe.Timeline != nil {
		// Timeline windows close on every interval multiple.
		if iv := g.probe.Timeline.Interval(); iv > 0 {
			if b := (g.now/iv + 1) * iv; b < next {
				next = b
			}
		}
	}
	if g.ckptSink != nil {
		// Land exactly on checkpoint cycles, like the watchdog and
		// probe-timeline caps; the landing step is a no-op for an idle
		// machine, so resumability costs no timing fidelity.
		if b := (g.now/g.ckptEvery + 1) * g.ckptEvery; b < next {
			next = b
		}
	}
	if next <= g.now {
		next = g.now + 1
	}
	return next
}

// SetCheckpoint arms periodic checkpointing: every `every` cycles (and
// at run completion or cancellation) the run loop snapshots the
// machine and calls sink(cycle, state). The call is a no-op — the run
// stays checkpoint-free — when every is 0, sink is nil, or the
// configuration fails Checkpointable. Arm it before Run; the sink runs
// on the simulation goroutine.
func (g *GPU) SetCheckpoint(every uint64, sink func(cycle uint64, st *MachineState)) {
	if every == 0 || sink == nil || Checkpointable(g.cfg) != nil {
		return
	}
	g.ckptEvery = every
	g.ckptSink = sink
}

// maybeCheckpoint snapshots the machine for the armed sink. With
// force it fires at any cycle (run completion, cancellation); without
// it only on ckptEvery multiples. Cycle 0 (nothing simulated) and the
// cycle of the previous snapshot are never re-snapshotted.
func (g *GPU) maybeCheckpoint(force bool) {
	if g.ckptSink == nil || g.now == 0 || g.now == g.ckptLast {
		return
	}
	if !force && g.now%g.ckptEvery != 0 {
		return
	}
	st, err := g.Snapshot()
	if err != nil {
		return
	}
	g.ckptLast = g.now
	g.ckptSink(g.now, st)
}

// fastForward advances g.now to just before the next interesting
// cycle, so the following step lands on it. Cycles in between would
// have been no-op steps.
func (g *GPU) fastForward() {
	next := g.nextInteresting()
	if next > g.cfg.MaxCycles {
		// Nothing left before the horizon: idle out the remaining
		// cycles.
		g.now = g.cfg.MaxCycles
		return
	}
	if next > g.now+1 {
		g.now = next - 1
	}
}

// Run simulates cfg.MaxCycles cycles and gathers the result. It
// returns a *StallError when the watchdog detects a forward-progress
// stall and an *AuditError when an enabled invariant auditor finds the
// machine's books out of balance; both carry diagnostic state.
func (g *GPU) Run() (*Result, error) { return g.RunContext(context.Background()) }

// cancelCheckMask gates the cooperative cancellation poll: the loop
// consults ctx only once every cancelCheckMask+1 executed steps, so
// the hot path of an uncancellable run (ctx.Done() == nil) stays a
// single nil comparison and a cancellable one adds a masked counter
// test. At simulator speeds (millions of steps per second) this still
// bounds the reaction latency to well under a millisecond.
const cancelCheckMask = 0x3ff

// RunContext is Run with cooperative cancellation: when ctx is
// cancelled the simulation stops at the next check boundary and
// returns (nil, ctx.Err()) — never a partial Result. Cancellation is
// polled between steps (on the same boundary the watchdog and
// fast-forward logic run), so a run that is never cancelled produces
// bit-identical results to Run.
func (g *GPU) RunContext(ctx context.Context) (*Result, error) {
	if g.parallelEligible() {
		return g.runParallel(ctx)
	}
	// Per-cycle auditing wants every cycle stepped; per-component
	// skipping inside step stays on (it is state-identical, so the
	// auditors see the same books).
	ff := !g.disableFF && !g.cfg.Audit
	done := ctx.Done()
	if done != nil {
		// An already-dead context never simulates, however short the
		// run — the loop's masked poll may not fire on one this small.
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
	}
	for g.now < g.cfg.MaxCycles {
		g.step()
		if g.cfg.Audit {
			if err := g.audit(g.now%auditDeepPeriod == 0); err != nil {
				return nil, err
			}
		}
		if err := g.checkWatchdog(); err != nil {
			return nil, err
		}
		if g.ckptSink != nil {
			g.maybeCheckpoint(false)
		}
		if done != nil && g.stepped&cancelCheckMask == 0 {
			select {
			case <-done:
				// Snapshot before abandoning the run so a drain or kill
				// loses at most the work since the last boundary.
				g.maybeCheckpoint(true)
				return nil, ctx.Err()
			default:
			}
		}
		if ff {
			g.fastForward()
		}
	}
	if g.cfg.Audit {
		if err := g.audit(true); err != nil {
			return nil, err
		}
	}
	// A final checkpoint at the horizon lets a later, longer-horizon
	// run resume from here instead of cycle 0.
	g.maybeCheckpoint(true)
	return g.collect(), nil
}

func (g *GPU) collect() *Result {
	g.settleIdleStalls()
	res := &Result{Benchmark: g.gen.Name(), Cycles: g.now}
	for _, sm := range g.sms {
		res.Instructions += sm.Instructions
	}
	for _, l1 := range g.l1s {
		addStats(&res.L1, l1.Stats)
	}
	for _, p := range g.parts {
		for _, b := range p.banks {
			addStats(&res.L2, b.Stats)
		}
		ds := p.dram.Stats
		res.RowHits += ds.RowHits
		res.RowMisses += ds.RowMisses
		for k := 0; k < int(numKinds); k++ {
			if k < len(ds.RequestsByKind) {
				res.RequestsByKind[k] += ds.RequestsByKind[k]
				res.BytesByKind[k] += ds.BytesByKind[k]
			}
		}
		for m := 0; m < int(numMeta); m++ {
			res.Meta[m].Accesses += p.metaStats[m].Accesses
			res.Meta[m].MissesPrimary += p.metaStats[m].MissesPrimary
			res.Meta[m].MissesSecondary += p.metaStats[m].MissesSecondary
		}
		for _, mc := range []*cache.Cache{p.ctr, p.mac, p.tree} {
			if mc != nil {
				res.MetaCacheWritebacks += mc.Stats.Writebacks
			}
		}
		if p.cfg.Secure.Unified && p.ctr != nil {
			// The aliased unified cache was counted three times.
			res.MetaCacheWritebacks -= 2 * p.ctr.Stats.Writebacks
		}
		if p.ctrReuse != nil {
			res.CounterReuse = p.ctrReuse
			res.MACReuse = p.macReuse
		}
	}
	res.Faults.Injected = g.inj.Stats().Injected
	for _, p := range g.parts {
		res.Faults.Detected += p.faultDetected
		res.Faults.Silent += p.faultSilent
	}
	res.Faults.DroppedReplies = g.toSM.Stats.Dropped + g.toL2.Stats.Dropped
	res.Faults.DuplicatedReplies = g.toSM.Stats.Duplicated + g.toL2.Stats.Duplicated
	// Peak bytes/cycle per partition = BeatBytes / (BeatThirds/3).
	perPart := uint64(g.cfg.DRAM.BeatBytes) * 3 / uint64(g.cfg.DRAM.BeatThirds)
	res.PeakBandwidthBytes = perPart * uint64(g.cfg.NumPartitions) * g.now
	res.Probe = g.probe.Report()
	return res
}

func addStats(dst *cache.Stats, src cache.Stats) {
	dst.Accesses += src.Accesses
	dst.Hits += src.Hits
	dst.MissesPrimary += src.MissesPrimary
	dst.MissesSecondary += src.MissesSecondary
	dst.MissesBypass += src.MissesBypass
	dst.Fills += src.Fills
	dst.Evictions += src.Evictions
	dst.Writebacks += src.Writebacks
}

// Run is the package-level convenience: build a GPU for cfg and the
// named benchmark and simulate it.
func Run(cfg Config, benchmark string) (*Result, error) {
	return RunContext(context.Background(), cfg, benchmark)
}

// RunContext is Run with cooperative cancellation (see
// GPU.RunContext).
func RunContext(ctx context.Context, cfg Config, benchmark string) (*Result, error) {
	gen, err := trace.New(benchmark)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	g, err := New(cfg, gen)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return g.RunContext(ctx)
}
