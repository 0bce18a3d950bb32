package sim

// The barrier-synchronized parallel partition engine (DESIGN.md §13).
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
//   barrier (single-threaded)          window (parallel)
//   ─ merge staged toSM pushes         ─ S shard workers advance their
//     in canonical order                 partitions through (T, T+W]
//   ─ pre-drain both queues              against pre-drained inboxes
//     through T+W into inboxes        ─ the coordinator runs the SM
//   ─ watchdog / cancellation           task over the same cycles
//
// Determinism: every toSM push is tagged with a merge key — (cycle,
// phase, major, minor) — reproducing the sequential engine's exact
// push order: phase 0 is delivery-handler pushes ordered by the global
// FIFO order of the toL2 messages that triggered them, phase 1 is
// partition-tick pushes ordered by partition index, phase 2 is SM-tick
// pushes ordered by SM index. Sorting the union of all staging buffers
// by that key and appending to toSM therefore rebuilds the byte-exact
// queue the sequential engine would hold, regardless of shard count or
// goroutine interleaving. Everything else a worker touches is
// partition-owned (caches, DRAM channel, MSHRs, read states, tokens).

import (
	"cmp"
	"context"
	"slices"

	"gpusecmem/internal/shard"
)

// mergeKey orders staged toSM pushes into the sequential engine's push
// order. Keys are unique across a window (minor disambiguates pushes
// from one handler), so the sort is a total order.
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

// replyStage collects one shard's (or the SM task's) toSM pushes
// during a window. Each stage is owned by exactly one goroutine inside
// a window and read only by the coordinator at the barrier; the shard
// pool's fork/join edges order those accesses.
type replyStage struct {
	latency uint64
	buf     []stagedReply
	// Current merge-key context, set by the engine before invoking a
	// handler; minor counts pushes within it.
	cycle uint64
	phase uint8
	major uint64
	minor uint32
}

func (st *replyStage) setCtx(cycle uint64, phase uint8, major uint64) {
	st.cycle, st.phase, st.major, st.minor = cycle, phase, major, 0
}

// stageReply records one sendReply: readyAt reproduces
// DelayQueue.PushAfter's arithmetic (push cycle + latency + extra),
// and the token slice — possibly cache-owned scratch — is copied
// entry-by-entry.
func (st *replyStage) stageReply(now, at, globalAddr uint64, tokens []uint64) {
	if at < now {
		at = now
	}
	readyAt := at + st.latency
	for _, tok := range tokens {
		st.buf = append(st.buf, stagedReply{
			key:     mergeKey{cycle: st.cycle, phase: st.phase, major: st.major, minor: st.minor},
			readyAt: readyAt,
			r:       smReply{globalAddr: globalAddr, token: tok},
		})
		st.minor++
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
	items []inboxMsg
	head  int
}

type smDelivery struct {
	at uint64
	r  smReply
}

// parEngine is the per-run state of the parallel engine.
type parEngine struct {
	g       *GPU
	shards  int
	pool    *shard.Pool
	stages  []*replyStage // one per shard worker
	inboxes []inbox       // one per partition
	smInbox []smDelivery
	smHead  int
	merged  []stagedReply
	// instrTotal mirrors the sum of all SM instruction counters so the
	// SM task can maintain the watchdog's progress metric exactly (to
	// the cycle) without re-summing 80 SMs every executed cycle.
	instrTotal uint64
}

// parallelEligible reports whether the parallel engine may run this
// configuration. Anything it cannot reproduce bit-identically falls
// back to the sequential engine: per-cycle auditing wants the whole
// machine stepped in lockstep, and fault injection / probes hang
// shared mutable state (injector PRNG order, span and timeline
// buffers) off paths that would race across shards. DESIGN.md §13
// documents each restriction.
func (g *GPU) parallelEligible() bool {
	return g.cfg.Shards > 1 &&
		len(g.parts) > 1 &&
		g.cfg.IcntLatency >= 1 &&
		!g.cfg.Audit &&
		!g.disableFF &&
		g.inj == nil &&
		g.probe == nil
}

// runParallel is the parallel counterpart of the RunContext loop. Its
// results are bit-identical to the sequential engine's for every shard
// count (the golden-digest suite pins this).
func (g *GPU) runParallel(ctx context.Context) (*Result, error) {
	S := g.cfg.Shards
	if S > len(g.parts) {
		S = len(g.parts)
	}
	e := &parEngine{g: g, shards: S, pool: shard.NewPool(S)}
	defer e.pool.Close()
	lat := g.cfg.IcntLatency
	for w := 0; w < S; w++ {
		e.stages = append(e.stages, &replyStage{latency: lat})
	}
	e.inboxes = make([]inbox, len(g.parts))
	for i, p := range g.parts {
		p.stage = e.stages[i%S]
	}
	g.smStage = &replyStage{latency: lat}
	defer func() {
		for _, p := range g.parts {
			p.stage = nil
		}
		g.smStage = nil
	}()
	for _, sm := range g.sms {
		e.instrTotal += sm.Instructions
	}

	done := ctx.Done()
	if done != nil {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
	}
	maxC := g.cfg.MaxCycles
	var windows uint64
	T := g.now
	for T < maxC {
		// Jump idle stretches: land the next window on the earliest
		// cycle any component could act (the parallel analogue of
		// nextInteresting). Queue heads are lower bounds on effective
		// delivery, partNext/smWake are the per-component bounds the
		// last window left behind; undershooting costs a no-op window.
		next := g.toL2.NextReady()
		if t := g.toSM.NextReady(); t < next {
			next = t
		}
		for _, t := range g.partNext {
			if t <= T {
				t = T + 1
			}
			if t < next {
				next = t
			}
		}
		for _, t := range g.smWake {
			if t <= T {
				t = T + 1
			}
			if t < next {
				next = t
			}
		}
		// Cap at the watchdog's firing cycle so a wedged run reaches
		// its barrier exactly there. A fire cycle already at or behind
		// T means the watchdog cannot fire (no loads were outstanding
		// when we passed it — otherwise we'd have stalled), so it must
		// not pin the window.
		fire := ^uint64(0)
		if g.cfg.WatchdogCycles > 0 {
			if f := g.lastProgressAt + g.cfg.WatchdogCycles; f > T {
				fire = f
			}
		}
		if fire < next {
			next = fire
		}
		// Cap windows at checkpoint cycles exactly like the watchdog
		// fire cycle, so snapshots land on a merge barrier — the
		// parallel engine's only consistent (and sequential-identical)
		// state point.
		bound := ^uint64(0)
		if g.ckptSink != nil {
			bound = (T/g.ckptEvery + 1) * g.ckptEvery
		}
		if bound < next {
			next = bound
		}
		if next > maxC {
			// Nothing left before the horizon: idle out the rest.
			g.now = maxC
			break
		}
		if next > T+1 {
			T = next - 1
		}
		E := T + lat
		if E > maxC {
			E = maxC
		}
		if E > fire {
			E = fire
		}
		if E > bound {
			E = bound
		}

		// Pre-drain both queues through E. Deliveries land in
		// per-partition inboxes (tagged with their global FIFO order)
		// and the SM task's reply inbox; nothing pushed during the
		// window can be due before E+1, so the drain is complete.
		partWork := false
		seq := uint64(0)
		g.toL2.DrainThrough(E, func(at uint64, m l2Msg) {
			part, local := g.partitionOf(m.globalAddr)
			ib := &e.inboxes[part]
			ib.items = append(ib.items, inboxMsg{at: at, seq: seq, local: local, m: m})
			seq++
			partWork = true
		})
		e.smInbox = e.smInbox[:0]
		e.smHead = 0
		g.toSM.DrainThrough(E, func(at uint64, r smReply) {
			e.smInbox = append(e.smInbox, smDelivery{at: at, r: r})
		})
		if !partWork {
			for _, t := range g.partNext {
				if t <= E {
					partWork = true
					break
				}
			}
		}
		smWork := len(e.smInbox) > 0
		if !smWork {
			for _, t := range g.smWake {
				if t <= E {
					smWork = true
					break
				}
			}
		}

		// The window: shard workers advance partitions while the
		// coordinator runs the SM task. Sides with nothing due skip
		// their fork entirely.
		if partWork {
			e.pool.Fork(func(worker int) {
				for i := worker; i < len(g.parts); i += S {
					e.partitionWindow(i, T, E)
				}
			})
			if smWork {
				e.smWindow(T, E)
			}
			e.pool.Join()
		} else if smWork {
			e.smWindow(T, E)
		}
		g.now = E
		e.mergeBarrier()
		if err := g.checkWatchdog(); err != nil {
			return nil, err
		}
		if g.ckptSink != nil {
			// The barrier is a consistent point: staging buffers and
			// inboxes are empty, so the snapshot equals the sequential
			// engine's state at the end of cycle E.
			g.maybeCheckpoint(false)
		}
		g.parallelWindows++
		windows++
		if done != nil && windows&63 == 0 {
			select {
			case <-done:
				g.maybeCheckpoint(true)
				return nil, ctx.Err()
			default:
			}
		}
		T = E
	}
	g.maybeCheckpoint(true)
	return g.collect(), nil
}

// partitionWindow advances partition i through (T, E]: inbox
// deliveries re-arm the partition exactly as the sequential loop's
// delivery phase does, ticks happen at the cycles the sequential loop
// would have ticked (nextEvent undershoot costs the same no-op tick),
// and every cycle in between is provably inert for this partition.
func (e *parEngine) partitionWindow(i int, T, E uint64) {
	g := e.g
	p := g.parts[i]
	ib := &e.inboxes[i]
	st := p.stage
	t := g.partNext[i]
	if t <= T {
		t = T + 1
	}
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
// reply deliveries, then SM ticks in index order, at exactly the
// cycles the sequential loop would execute them. It also maintains the
// watchdog's progress metric to the exact cycle — progress only ever
// changes here (load completions and instruction issue), so
// lastProgressAt matches the sequential engine cycle-for-cycle.
func (e *parEngine) smWindow(T, E uint64) {
	g := e.g
	st := g.smStage
	t := T + 1
	for {
		next := ^uint64(0)
		if e.smHead < len(e.smInbox) {
			next = e.smInbox[e.smHead].at
		}
		for _, w := range g.smWake {
			if w < next {
				next = w
			}
		}
		if next < t {
			next = t
		}
		if next > E {
			break
		}
		t = next
		g.now = t
		g.stepped++
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
			sm.Tick(t, g.issueMem)
			e.instrTotal += sm.Instructions - before
			g.smLastTick[i] = t
			g.smWake[i] = sm.NextReady(t + 1)
		}
		if g.completedLoads != clBefore || e.instrTotal != instrBefore {
			g.lastProgress = g.completedLoads + e.instrTotal
			g.lastProgressAt = t
		}
		t++
	}
}

// mergeBarrier rebuilds the sequential toSM push order: concatenate
// every staging buffer, sort by merge key, append to the queue.
// Staged items' ready cycles all lie beyond the window just run, and
// the queue's residual items were all pushed in earlier windows, so
// appending preserves FIFO faithfulness too.
func (e *parEngine) mergeBarrier() {
	e.merged = e.merged[:0]
	for _, st := range e.stages {
		e.merged = append(e.merged, st.buf...)
		st.buf = st.buf[:0]
	}
	if st := e.g.smStage; len(st.buf) > 0 {
		e.merged = append(e.merged, st.buf...)
		st.buf = st.buf[:0]
	}
	if len(e.merged) == 0 {
		return
	}
	slices.SortFunc(e.merged, func(a, b stagedReply) int { return a.key.compare(b.key) })
	for i := range e.merged {
		e.g.toSM.PushAt(e.merged[i].readyAt, e.merged[i].r)
	}
}
