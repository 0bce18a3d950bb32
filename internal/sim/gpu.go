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

// loadReq records an outstanding L1-level sector request. The indices
// are int32s to keep a token-table slot at 24 bytes.
type loadReq struct {
	sm         int32
	warp       int32
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
	loads    tokTable[loadReq]

	// Activity tracking for the cycle loop. smWake[i] and partNext[i]
	// are conservative lower bounds on the next cycle SM i (resp.
	// partition i) could do anything; a component is skipped while its
	// bound lies in the future, and the loop jumps to the earliest
	// bound when every component is idle. smLastTick[i] is the last
	// cycle SM i actually ticked, for lazy full-stall settlement (see
	// smcore.AccountIdle).
	smWake     []uint64
	smLastTick []uint64
	partNext   []uint64
	// stepped counts cycles the SM side executed (<= now once idle
	// stretches are skipped); it rides in checkpoints.
	stepped uint64
	// oneTok backs single-token reply delivery without allocating.
	oneTok [1]uint64
	// walkKeys is the checkpoint walk's sorted-token scratch.
	walkKeys []uint64

	// stages holds one staging buffer per shard (partition i stages
	// into stages[i%len(stages)]); smStage is the SM task's. windows
	// counts executed barrier windows. lockstep makes every window one
	// cycle wide with no idle jumping — what the auditors want, and
	// the reference the idle-skip tests compare against.
	stages   []*replyStage
	smStage  *replyStage
	windows  uint64
	lockstep bool

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
	ckptSink  func(cycle uint64, state []byte)
	ckptLast  uint64

	// completedLoads counts retirements; with issued instructions it
	// forms the watchdog's forward-progress metric.
	completedLoads uint64
	lastProgress   uint64
	lastProgressAt uint64
	// maxProgressGap is the longest observed stretch between progress
	// events (diagnostics and tests).
	maxProgressGap uint64
}

// New builds a GPU for cfg running the given workload generator.
func New(cfg Config, gen smcore.Generator) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GPU{
		cfg:  cfg,
		gen:  gen,
		toL2: icnt.NewDelayQueue[l2Msg](cfg.IcntLatency),
		toSM: icnt.NewDelayQueue[smReply](cfg.IcntLatency),
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
	shards := min(max(cfg.Shards, 1), cfg.NumPartitions)
	for w := 0; w < shards; w++ {
		g.stages = append(g.stages, &replyStage{latency: cfg.IcntLatency})
	}
	g.smStage = &replyStage{latency: cfg.IcntLatency}
	for p := 0; p < cfg.NumPartitions; p++ {
		part := newPartition(p, g)
		part.stage = g.stages[p%shards]
		g.parts = append(g.parts, part)
	}
	g.smWake = make([]uint64, len(g.sms))
	g.smLastTick = make([]uint64, len(g.sms))
	g.partNext = make([]uint64, len(g.parts))
	g.inj = faults.NewInjector(cfg.Faults)
	g.probe = probe.NewState(cfg.Probe, kindLabels())
	g.lockstep = cfg.Audit
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
		lr := loadReq{sm: int32(mi.SM), warp: int32(mi.Warp)}
		switch {
		case acc.Outcome == cache.Hit:
			outstanding++
			g.loads.put(tok, lr)
			// Hit latency reply through the local pipeline (no icnt).
			g.oneTok[0] = tok
			g.smStage.stageReply(g.now, g.now+g.cfg.L1Latency, addr, g.oneTok[:])
		case acc.NeedFetch:
			outstanding++
			lr.fillBypass = acc.Bypass
			g.loads.put(tok, lr)
			g.toL2.Push(g.now, l2Msg{globalAddr: addr, token: tok})
		default: // merged into an L1 MSHR
			outstanding++
			g.loads.put(tok, lr)
		}
	}
	return outstanding
}

// deliverReply processes one sector arriving back at an SM: fill the
// L1 and wake every warp waiting on it.
func (g *GPU) deliverReply(r smReply) {
	lr, ok := g.loads.get(r.token)
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
	lr, ok := g.loads.take(token)
	if !ok {
		return
	}
	g.completedLoads++
	g.sms[lr.sm].Complete(int(lr.warp), g.now)
	// The woken warp is ready at now+1.
	if g.smWake[lr.sm] > g.now+1 {
		g.smWake[lr.sm] = g.now + 1
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

// SetCheckpoint arms periodic checkpointing: every `every` cycles (and
// at run completion or cancellation) the run loop snapshots the
// machine and calls sink(cycle, state) with the encoded state, which
// the sink owns. The call is a no-op — the run
// stays checkpoint-free — when every is 0, sink is nil, or the
// configuration fails Checkpointable. Arm it before Run; the sink runs
// on the simulation goroutine.
func (g *GPU) SetCheckpoint(every uint64, sink func(cycle uint64, state []byte)) {
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
		for _, mc := range p.metaCaches() {
			res.MetaCacheWritebacks += mc.Stats.Writebacks
		}
		if p.reuse[MetaCounter] != nil {
			res.CounterReuse, res.MACReuse = p.reuse[MetaCounter], p.reuse[MetaMAC]
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
