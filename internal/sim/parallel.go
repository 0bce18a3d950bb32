package sim

// The cycle loop: a barrier-synchronized windowed engine (DESIGN.md
// §13). It is the simulator's only engine; Shards picks how many
// goroutines advance the partitions inside a window.
//
// Partitions never touch each other: the only state a partition shares
// with the rest of the machine is the pair of interconnect delay
// queues, and a delay queue cannot deliver anything sooner than
// IcntLatency cycles after its push. That fixed minimum latency is a
// conservative lookahead window, Chandy–Misra style: inside a window
// of W = IcntLatency cycles, every cross-component message that could
// arrive was already in flight when the window began, and everything
// pushed inside the window is deliverable only after it ends. So the
// engine alternates:
//
//   barrier (coordinator)              window
//   ─ merge staged toSM pushes,        ─ the partitions advance through
//     probe spans and fault draws        (T, T+W] against pre-drained
//     in canonical order                 inboxes — inline with one
//   ─ timeline sample, audit,            shard, on S workers otherwise
//     watchdog, checkpoint,            ─ the coordinator runs the SM
//     cancellation                       task over the same cycles
//   ─ pre-drain both queues
//     through T+W into inboxes
//
// Determinism: everything a partition emits that another component
// observes — a toSM push, a probe span, a fault draw — is staged with
// a merge key (cycle, phase, major, minor). The keys define the
// canonical order: phase 0 is delivery-handler work ordered by the
// global FIFO order of the toL2 messages that triggered it, phase 1 is
// partition-tick work ordered by partition index, phase 2 is SM-tick
// pushes ordered by SM index. Sorting each staged kind by that key at
// the barrier and replaying it makes every result independent of the
// shard count and of goroutine interleaving; the golden digests pin
// the resulting bytes. Everything else a worker touches is
// partition-owned (caches, DRAM channel, MSHRs, read states, tokens).

import (
	"cmp"
	"context"
	"slices"

	"gpusecmem/internal/faults"
	"gpusecmem/internal/probe"
	"gpusecmem/internal/recycle"
	"gpusecmem/internal/shard"
)

// mergeKey is the canonical order of staged work. Keys are unique
// across a window (minor disambiguates items from one handler), so
// the sort is a total order.
type mergeKey struct {
	cycle uint64
	phase uint8 // 0 = toL2 delivery handler, 1 = partition tick, 2 = SM tick
	major uint64
	minor uint32
}

func (k mergeKey) compare(o mergeKey) int {
	if c := cmp.Compare(k.cycle, o.cycle); c != 0 {
		return c
	}
	if c := cmp.Compare(k.phase, o.phase); c != 0 {
		return c
	}
	if c := cmp.Compare(k.major, o.major); c != 0 {
		return c
	}
	return cmp.Compare(k.minor, o.minor)
}

type stagedReply struct {
	key     mergeKey
	readyAt uint64
	r       smReply
}

// stagedSpan is one probe span awaiting Spans.Record at the barrier.
type stagedSpan struct {
	key mergeKey
	s   probe.Span
}

// stagedDraw is one fault-injection opportunity awaiting Injector.Fire
// at the barrier; a hit is booked on partition part as detected iff
// covered.
type stagedDraw struct {
	key     mergeKey
	addr    uint64
	part    int32
	site    faults.Site
	covered bool
}

// replyStage collects one shard's (or the SM task's) staged work
// during a window. Each stage is owned by exactly one goroutine inside
// a window and read only by the coordinator at the barrier; the shard
// pool's fork/join edges order those accesses.
type replyStage struct {
	latency uint64
	buf     []stagedReply
	spans   []stagedSpan
	draws   []stagedDraw
	// Current merge-key context, set by the engine before invoking a
	// handler; minor counts staged items within it.
	cycle uint64
	phase uint8
	major uint64
	minor uint32
}

func (st *replyStage) setCtx(cycle uint64, phase uint8, major uint64) {
	st.cycle, st.phase, st.major, st.minor = cycle, phase, major, 0
}

// key returns the next merge key of the current context.
func (st *replyStage) key() mergeKey {
	k := mergeKey{cycle: st.cycle, phase: st.phase, major: st.major, minor: st.minor}
	st.minor++
	return k
}

// stageReply records one toSM push whose payload leaves at cycle at
// (never before now): it is ready the interconnect latency later, the
// ready cycle the barrier hands to DelayQueue.PushAt. The token slice
// — possibly cache-owned scratch — is copied entry-by-entry.
func (st *replyStage) stageReply(now, at, globalAddr uint64, tokens []uint64) {
	if at < now {
		at = now
	}
	readyAt := at + st.latency
	for _, tok := range tokens {
		st.buf = append(st.buf, stagedReply{
			key:     st.key(),
			readyAt: readyAt,
			r:       smReply{globalAddr: globalAddr, token: tok},
		})
	}
}

// inboxMsg is one pre-drained SM→L2 message routed to its partition:
// at is its head-blocking-exact delivery cycle, seq its global FIFO
// delivery order (the phase-0 merge major).
type inboxMsg struct {
	at    uint64
	seq   uint64
	local uint64
	m     l2Msg
}

type inbox struct {
	items []inboxMsg // drawn from the recycler, handed back by Release
	head  int
}

// inboxMin is an inbox's first capacity.
const inboxMin = 16

type smDelivery struct {
	at uint64
	r  smReply
}

// engine is the per-run state of the cycle loop.
type engine struct {
	g       *GPU
	pool    *shard.Pool // nil with one shard: windows run inline
	inboxes []inbox     // one per partition
	smInbox []smDelivery
	smHead  int
	merged  []stagedReply
	spans   []stagedSpan
	draws   []stagedDraw
	// instrTotal mirrors the sum of all SM instruction counters so the
	// SM task can maintain the watchdog's progress metric exactly (to
	// the cycle) without re-summing 80 SMs every executed cycle.
	instrTotal uint64
}

// cancelCheckMask gates the cooperative cancellation poll: the loop
// consults ctx once every cancelCheckMask+1 windows, so an
// uncancellable run (ctx.Done() == nil) pays a single nil comparison
// per window and the reaction latency stays well under a millisecond.
const cancelCheckMask = 63

// Run simulates cfg.MaxCycles cycles and gathers the result. It
// returns a *StallError when the watchdog detects a forward-progress
// stall and an *AuditError when an enabled invariant auditor finds the
// machine's books out of balance; both carry diagnostic state.
func (g *GPU) Run() (*Result, error) { return g.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: when ctx is
// cancelled the simulation stops at the next check boundary and
// returns (nil, ctx.Err()) — never a partial Result. Cancellation is
// polled at window barriers, so a run that is never cancelled produces
// bit-identical results to Run.
func (g *GPU) RunContext(ctx context.Context) (*Result, error) {
	g.mustLive()
	e := &engine{g: g, inboxes: make([]inbox, len(g.parts))}
	g.eng = e
	if len(g.stages) > 1 {
		e.pool = shard.NewPool(len(g.stages))
		defer e.pool.Close()
	}
	for _, sm := range g.sms {
		e.instrTotal += sm.Instructions
	}

	done := ctx.Done()
	if done != nil {
		// An already-dead context never simulates, however short the
		// run — the masked poll may not fire on one this small.
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
	}
	maxC := g.cfg.MaxCycles
	lat := g.cfg.IcntLatency
	if g.lockstep {
		lat = 1
	}
	T := g.now
	for T < maxC {
		// Cycles the barrier must land on exactly: the watchdog's
		// firing cycle (so a wedged run stalls there with that dump),
		// checkpoint cycles and timeline sampling boundaries (the
		// barrier is the only consistent state point). A fire cycle at
		// or behind T means the watchdog cannot fire (no loads were
		// outstanding when we passed it — otherwise we'd have
		// stalled), so it must not pin the window.
		bound := ^uint64(0)
		if g.cfg.WatchdogCycles > 0 {
			if f := g.lastProgressAt + g.cfg.WatchdogCycles; f > T {
				bound = f
			}
		}
		if g.ckptSink != nil {
			bound = min(bound, (T/g.ckptEvery+1)*g.ckptEvery)
		}
		if pr := g.probe; pr != nil && pr.Timeline != nil {
			iv := pr.Timeline.Interval()
			bound = min(bound, (T/iv+1)*iv)
		}
		next := T + 1
		if !g.lockstep {
			// Jump idle stretches: land the window on the earliest
			// cycle any component could act. Queue heads are lower
			// bounds on effective delivery, partNext/smWake are the
			// per-component bounds the last window left behind;
			// undershooting costs a no-op window.
			next = min(g.toL2.NextReady(), g.toSM.NextReady(), bound)
			for _, t := range g.partNext {
				next = min(next, max(t, T+1))
			}
			for _, t := range g.smWake {
				next = min(next, max(t, T+1))
			}
			if next > maxC {
				// Nothing left before the horizon: idle out the rest.
				g.now = maxC
				break
			}
		}
		T = max(T, next-1)
		E := min(T+lat, maxC, bound)
		e.window(T, E)
		g.windows++
		g.now = E
		e.mergeBarrier()
		if g.probe != nil {
			g.sampleProbe()
		}
		if g.cfg.Audit {
			if err := g.audit(E%auditDeepPeriod == 0); err != nil {
				return nil, err
			}
		}
		if err := g.checkWatchdog(); err != nil {
			return nil, err
		}
		if g.ckptSink != nil {
			// The barrier is a consistent point: staging buffers and
			// inboxes are empty, so the snapshot is the machine's state
			// at the end of cycle E.
			g.maybeCheckpoint(false)
		}
		if done != nil && g.windows&cancelCheckMask == 0 {
			select {
			case <-done:
				// Snapshot before abandoning the run so a drain or kill
				// loses at most the work since the last boundary.
				g.maybeCheckpoint(true)
				return nil, ctx.Err()
			default:
			}
		}
		T = E
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

// window advances the machine through (T, E]. It pre-drains both
// queues through E: deliveries land in per-partition inboxes (tagged
// with their global FIFO order) and the SM task's reply inbox, and
// nothing pushed during the window can be due before E+1, so the drain
// is complete. Then the partitions advance — on the shard workers
// while the coordinator runs the SM task, or inline with one shard.
// Sides with nothing due skip the window entirely.
func (e *engine) window(T, E uint64) {
	g := e.g
	partWork := false
	seq := uint64(0)
	g.toL2.DrainThrough(E, func(at uint64, m l2Msg) {
		part, local := g.partitionOf(m.globalAddr)
		ib := &e.inboxes[part]
		ib.items = append(recycle.Grow(ib.items, inboxMin), inboxMsg{at: at, seq: seq, local: local, m: m})
		seq++
		partWork = true
	})
	e.smInbox = e.smInbox[:0]
	e.smHead = 0
	g.toSM.DrainThrough(E, func(at uint64, r smReply) {
		e.smInbox = append(e.smInbox, smDelivery{at: at, r: r})
	})
	if !partWork {
		partWork = slices.ContainsFunc(g.partNext, func(t uint64) bool { return t <= E })
	}
	smWork := len(e.smInbox) > 0 ||
		slices.ContainsFunc(g.smWake, func(t uint64) bool { return t <= E })

	if partWork {
		if e.pool != nil {
			S := len(g.stages)
			e.pool.Fork(func(worker int) {
				for i := worker; i < len(g.parts); i += S {
					e.partitionWindow(i, T, E)
				}
			})
		} else {
			for i := range g.parts {
				e.partitionWindow(i, T, E)
			}
		}
	}
	if smWork {
		e.smWindow(T, E)
	}
	if partWork && e.pool != nil {
		e.pool.Join()
	}
}

// partitionWindow advances partition i through (T, E]: inbox
// deliveries re-arm the partition at their delivery cycle, ticks
// happen whenever the partition's nextEvent bound comes due (an
// undershoot costs a no-op tick), and every cycle in between is
// provably inert for this partition.
func (e *engine) partitionWindow(i int, T, E uint64) {
	g := e.g
	p := g.parts[i]
	ib := &e.inboxes[i]
	st := p.stage
	t := max(g.partNext[i], T+1)
	for {
		if ib.head < len(ib.items) && ib.items[ib.head].at < t {
			t = ib.items[ib.head].at
		}
		if t > E {
			break
		}
		for ib.head < len(ib.items) && ib.items[ib.head].at <= t {
			im := &ib.items[ib.head]
			ib.head++
			st.setCtx(t, 0, im.seq)
			if im.m.write {
				p.handleL2Write(im.local, t)
			} else {
				p.handleL2Read(im.m.globalAddr, im.local, im.m.token, t)
			}
		}
		st.setCtx(t, 1, uint64(p.id))
		p.tick(t)
		t = p.nextEvent(t)
	}
	g.partNext[i] = t
	ib.items = ib.items[:0]
	ib.head = 0
}

// smWindow advances the SM side through (T, E] on the coordinator:
// reply deliveries, then SM ticks in index order, at every cycle an
// SM is due or a reply arrives. An SM with no ready warp only accrues
// full-stall cycles, settled lazily via AccountIdle. It also maintains
// the watchdog's progress metric to the exact cycle — progress only
// ever changes here (load completions and instruction issue).
func (e *engine) smWindow(T, E uint64) {
	g := e.g
	st := g.smStage
	t := T + 1
	for {
		next := ^uint64(0)
		if e.smHead < len(e.smInbox) {
			next = e.smInbox[e.smHead].at
		}
		for _, w := range g.smWake {
			next = min(next, w)
		}
		t = max(next, t)
		if t > E {
			break
		}
		g.now = t
		clBefore := g.completedLoads
		instrBefore := e.instrTotal
		for e.smHead < len(e.smInbox) && e.smInbox[e.smHead].at <= t {
			g.deliverReply(e.smInbox[e.smHead].r)
			e.smHead++
		}
		for i, sm := range g.sms {
			if g.smWake[i] > t {
				continue
			}
			if idle := t - g.smLastTick[i] - 1; idle > 0 {
				sm.AccountIdle(idle)
			}
			st.setCtx(t, 2, uint64(i))
			before := sm.Instructions
			g.smWake[i] = sm.Tick(t, g.issueMem)
			e.instrTotal += sm.Instructions - before
			g.smLastTick[i] = t
		}
		if g.completedLoads != clBefore || e.instrTotal != instrBefore {
			g.maxProgressGap = max(g.maxProgressGap, t-g.lastProgressAt)
			g.lastProgressAt = t
		}
		t++
	}
}

// mergeBarrier replays the window's staged work in canonical order:
// toSM pushes into the queue, then probe spans into the collector and
// fault draws into the injector. Staged replies' ready cycles all lie
// beyond the window just run, and the queue's residual items were all
// pushed in earlier windows, so appending preserves FIFO faithfulness.
// Spans and draws change no timing, so replaying them after the window
// is invisible to the machine; their order decides which records a
// truncating trace keeps and which opportunities the per-site injector
// counters hit.
func (e *engine) mergeBarrier() {
	g := e.g
	e.merged = e.merged[:0]
	for _, st := range g.stages {
		e.merged = append(e.merged, st.buf...)
		st.buf = st.buf[:0]
		e.spans = append(e.spans, st.spans...)
		st.spans = st.spans[:0]
		e.draws = append(e.draws, st.draws...)
		st.draws = st.draws[:0]
	}
	if st := g.smStage; len(st.buf) > 0 {
		e.merged = append(e.merged, st.buf...)
		st.buf = st.buf[:0]
	}
	if len(e.merged) > 0 {
		slices.SortFunc(e.merged, func(a, b stagedReply) int { return a.key.compare(b.key) })
		for i := range e.merged {
			g.toSM.PushAt(e.merged[i].readyAt, e.merged[i].r)
		}
	}
	if len(e.spans) > 0 {
		slices.SortFunc(e.spans, func(a, b stagedSpan) int { return a.key.compare(b.key) })
		for i := range e.spans {
			g.probe.Spans.Record(e.spans[i].s)
		}
		e.spans = e.spans[:0]
	}
	if len(e.draws) > 0 {
		slices.SortFunc(e.draws, func(a, b stagedDraw) int { return a.key.compare(b.key) })
		for _, d := range e.draws {
			if g.inj.Fire(d.site, d.addr) {
				g.parts[d.part].recordCorruption(d.covered)
			}
		}
		e.draws = e.draws[:0]
	}
}
