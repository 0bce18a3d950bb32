// Package smcore models the streaming multiprocessors: warp state,
// greedy-then-oldest scheduling, and the latency tolerance that makes
// GPUs insensitive to decryption latency (the paper's Section VI-A
// observation). Instruction semantics are abstract — warps alternate
// compute batches and memory operations produced by a workload
// generator — because the paper's experiments exercise the memory
// system, not the ALUs.
//
// Concurrency and aliasing contract: an SM is single-owner state. The
// parallel partition engine keeps every SM on the coordinator
// goroutine (only partitions shard out), so SM code never observes
// concurrency at all.
package smcore

import (
	"gpusecmem/internal/recycle"
	"gpusecmem/internal/statecodec"
)

// WarpOp is one generator-produced step of a warp: a batch of compute
// instructions followed by an optional memory operation.
type WarpOp struct {
	// ComputeInstrs is the number of compute instructions issued
	// back-to-back before the memory operation.
	ComputeInstrs int
	// ComputeSpacing is the issue-to-issue distance in cycles of those
	// compute instructions (dependency chains; 1 = fully independent).
	ComputeSpacing int
	// Sectors are the coalesced 32-byte sector addresses of the memory
	// operation (empty for a pure-compute step).
	Sectors []uint64
	// Write marks the memory operation as a store (non-blocking).
	Write bool
	// ActiveLanes is the SIMT occupancy of every instruction in this
	// step (1..32); it scales the thread-instruction count (IPC) the
	// way divergence does on real hardware.
	ActiveLanes int
}

// Generator produces the instruction stream of a workload. Next must
// be deterministic in (sm, warp, iter).
type Generator interface {
	// Name is the benchmark name.
	Name() string
	// WarpsPerSM is the resident warp count per SM.
	WarpsPerSM() int
	// ActiveSMs caps how many SMs run the kernel (small kernels like
	// nw cannot fill the machine); 0 means all.
	ActiveSMs() int
	// Next returns the iter-th step of the given warp.
	Next(sm, warp, iter int) WarpOp
}

// MemIssue is the memory operation an SM hands to the memory
// subsystem.
type MemIssue struct {
	SM      int
	Warp    int
	Sectors []uint64
	Write   bool
}

type warpPhase int

const (
	phaseCompute warpPhase = iota
	phaseMem
	phaseBlocked
)

type warpState struct {
	iter        int
	op          WarpOp
	phase       warpPhase
	computeLeft int
	readyAt     uint64
	outstanding int
	// lastIssued orders the greedy-then-oldest policy.
	lastIssued uint64
}

// SM is one streaming multiprocessor.
type SM struct {
	id         int
	gen        Generator
	issueWidth int
	warps      []warpState
	greedy     int // warp the scheduler is currently stuck to
	// due and last are the scheduler's keys, one per warp, kept dense
	// beside warps so Tick's scan reads 16 bytes a warp instead of
	// whole warpStates: due[w] is warps[w].readyAt, or ^uint64(0)
	// while the warp is blocked, and last[w] is warps[w].lastIssued.
	// They are derived state: sync refreshes them wherever readyAt,
	// phase or lastIssued change, and a decoding Walk rebuilds them.
	due  []uint64
	last []uint64
	// rank is Tick's scratch: the ready warps a cycle issues, in
	// issue order. No more than min(issueWidth, warps) can issue.
	rank []int

	// Instructions counts issued thread-instructions (warp
	// instructions x active lanes); IPC is Instructions / cycles.
	Instructions uint64
	// Stalls counts cycles in which an issue slot found no ready warp.
	Stalls uint64
	// MemOps counts memory operations issued.
	MemOps uint64
}

// New builds an SM running gen with the given issue width.
func New(id int, gen Generator, issueWidth int) *SM {
	n := gen.WarpsPerSM()
	sm := &SM{id: id, gen: gen, issueWidth: issueWidth, warps: recycle.Make[warpState](n),
		due: recycle.Make[uint64](n), last: recycle.Make[uint64](n), rank: make([]int, 0, min(issueWidth, n))}
	for w := range sm.warps {
		sm.loadOp(w)
	}
	return sm
}

// Release hands the warp arrays to the recycler; the SM is unusable
// afterwards.
func (s *SM) Release() {
	recycle.Put(s.warps)
	recycle.Put(s.due)
	recycle.Put(s.last)
	s.warps, s.due, s.last = nil, nil, nil
}

// sync refreshes warp w's dense scheduler keys from its warpState.
func (s *SM) sync(w int) {
	ws := &s.warps[w]
	s.due[w] = ws.readyAt
	if ws.phase == phaseBlocked {
		s.due[w] = ^uint64(0)
	}
	s.last[w] = ws.lastIssued
}

func (s *SM) loadOp(w int) {
	ws := &s.warps[w]
	ws.op = s.gen.Next(s.id, w, ws.iter)
	ws.iter++
	if ws.op.ActiveLanes <= 0 || ws.op.ActiveLanes > 32 {
		ws.op.ActiveLanes = 32
	}
	if ws.op.ComputeSpacing <= 0 {
		ws.op.ComputeSpacing = 1
	}
	if ws.op.ComputeInstrs <= 0 && len(ws.op.Sectors) == 0 {
		ws.op.ComputeInstrs = 1 // degenerate op: behave as a no-op instruction
	}
	ws.computeLeft = ws.op.ComputeInstrs
	if ws.computeLeft > 0 {
		ws.phase = phaseCompute
	} else {
		ws.phase = phaseMem
	}
}

// Tick issues up to issueWidth instructions at cycle now and returns
// the SM's next wake cycle: the earliest cycle after now at which some
// warp can issue, or ^uint64(0) when every warp is blocked on memory
// (only a Complete can then wake the SM). A Tick before the wake cycle
// would find no ready warp and only accrue full-stall cycles — which
// AccountIdle settles in bulk — so the cycle loop may skip the SM until
// then without changing any machine state.
//
// Memory operations are handed to issueMem; loads block the warp
// until Complete is called once per sector. issueMem returns how many
// completions the warp must wait for (0 for stores or fully
// short-circuited loads).
//
// Scheduling is greedy-then-oldest, one warp per issue slot: keep
// issuing from the current warp while it is ready; otherwise choose
// the ready warp that issued least recently (the lowest index among
// equal lastIssued), which becomes the current warp. An issued warp is
// never ready again in the same cycle (every path sets its readyAt
// past now or blocks it), so the slots of one cycle take the current
// warp, if ready, then the other ready warps in (lastIssued, index)
// order, and one scan ranks them all. A blocked warp's due key is
// ^uint64(0), so one comparison tests readiness.
func (s *SM) Tick(now uint64, issueMem func(MemIssue) int) uint64 {
	g := s.greedy
	limit := min(s.issueWidth, cap(s.rank))
	greedyReady := limit > 0 && g < len(s.due) && s.due[g] <= now
	if greedyReady {
		limit--
	}
	rank := s.rank[:0]
	wake := ^uint64(0)
	ready := 0
	for w, t := range s.due {
		if t > now {
			wake = min(wake, t)
			continue
		}
		ready++
		if w == g || limit == 0 {
			continue
		}
		// Insert w after every ranked warp that issued no later,
		// dropping the youngest once rank holds limit warps.
		l := s.last[w]
		i := len(rank)
		if i == limit {
			if l >= s.last[rank[i-1]] {
				continue
			}
			i--
		} else {
			rank = rank[:i+1]
		}
		for ; i > 0 && s.last[rank[i-1]] > l; i-- {
			rank[i] = rank[i-1]
		}
		rank[i] = w
	}
	issued := len(rank)
	if greedyReady {
		issued++
		wake = min(wake, s.issue(g, now, issueMem))
	}
	for _, w := range rank {
		wake = min(wake, s.issue(w, now, issueMem))
		s.greedy = w
	}
	s.Stalls += uint64(s.issueWidth - issued)
	if ready > issued {
		// A ready warp found no slot; it is still ready next cycle.
		wake = now + 1
	}
	return wake
}

// issue issues one instruction of ready warp w at cycle now and
// returns the warp's new due key.
func (s *SM) issue(w int, now uint64, issueMem func(MemIssue) int) uint64 {
	ws := &s.warps[w]
	ws.lastIssued = now
	switch ws.phase {
	case phaseCompute:
		s.Instructions += uint64(ws.op.ActiveLanes)
		ws.computeLeft--
		ws.readyAt = now + uint64(ws.op.ComputeSpacing)
		if ws.computeLeft == 0 {
			if len(ws.op.Sectors) > 0 {
				ws.phase = phaseMem
			} else {
				s.loadOp(w)
			}
		}
	case phaseMem:
		s.Instructions += uint64(ws.op.ActiveLanes)
		s.MemOps++
		n := issueMem(MemIssue{SM: s.id, Warp: w, Sectors: ws.op.Sectors, Write: ws.op.Write})
		if n > 0 {
			ws.phase = phaseBlocked
			ws.outstanding = n
		} else {
			ws.readyAt = now + 1
			s.loadOp(w)
		}
	}
	s.sync(w)
	return s.due[w]
}

// AccountIdle books `cycles` skipped full-stall cycles: a Tick with no
// ready warp issues nothing, moves no scheduler state (the greedy
// pointer only moves to a warp that issues), and adds exactly one
// stall per issue slot — so skipping it and settling the stalls later
// is state-identical to having ticked.
func (s *SM) AccountIdle(cycles uint64) {
	s.Stalls += cycles * uint64(s.issueWidth)
}

// Complete notifies the SM that one outstanding sector of warp w
// returned. When the last one arrives the warp resumes.
func (s *SM) Complete(w int, now uint64) {
	ws := &s.warps[w]
	if ws.phase != phaseBlocked || ws.outstanding <= 0 {
		panic("smcore: completion for a warp that is not blocked")
	}
	ws.outstanding--
	if ws.outstanding == 0 {
		ws.readyAt = now + 1
		ws.phase = phaseCompute
		s.loadOp(w)
		s.sync(w)
	}
}

// Counters returns the SM's cumulative issue counters plus its
// instantaneous blocked-warp count in one call — the probe timeline's
// per-SM sampling hook.
func (s *SM) Counters() (instructions, stalls, memOps uint64, blockedWarps int) {
	return s.Instructions, s.Stalls, s.MemOps, s.BlockedWarps()
}

// Walk encodes or decodes the SM's state for a checkpoint (see
// statecodec). A warp's op is walked verbatim, already normalized by
// loadOp, so decoding must not normalize it again. Decoding expects an
// SM of the same shape (same generator and warp count) and refuses
// scheduler state no SM can reach, because running it would panic: a
// greedy pointer out of range, an unknown phase, a negative compute or
// iteration count, or a warp that awaits completions without being
// blocked or vice versa. On error the SM is unusable.
func (s *SM) Walk(c *statecodec.Codec) {
	c.FixedLen(len(s.warps), "warps")
	for w := range s.warps {
		if c.Err() != nil {
			return
		}
		ws := &s.warps[w]
		c.Int(&ws.iter)
		c.Int(&ws.op.ComputeInstrs)
		c.Int(&ws.op.ComputeSpacing)
		c.U64s(&ws.op.Sectors)
		c.Bool(&ws.op.Write)
		c.Int(&ws.op.ActiveLanes)
		c.Int((*int)(&ws.phase))
		c.Int(&ws.computeLeft)
		c.U64(&ws.readyAt)
		c.Int(&ws.outstanding)
		c.U64(&ws.lastIssued)
		if !c.Decoding() {
			continue
		}
		switch {
		case ws.phase < phaseCompute || ws.phase > phaseBlocked:
			c.Fail("smcore: SM %d warp %d has unknown phase %d", s.id, w, ws.phase)
		case ws.computeLeft < 0 || ws.iter < 0:
			c.Fail("smcore: SM %d warp %d has negative compute count %d or iteration %d", s.id, w, ws.computeLeft, ws.iter)
		case (ws.outstanding > 0) != (ws.phase == phaseBlocked):
			c.Fail("smcore: SM %d warp %d has %d outstanding loads in phase %d", s.id, w, ws.outstanding, ws.phase)
		}
		s.sync(w)
	}
	c.Int(&s.greedy)
	if c.Decoding() && (s.greedy < 0 || s.greedy > len(s.warps)) {
		c.Fail("smcore: SM %d greedy warp %d outside [0, %d]", s.id, s.greedy, len(s.warps))
	}
	c.U64(&s.Instructions)
	c.U64(&s.Stalls)
	c.U64(&s.MemOps)
}

// Awaiting reports how many sector completions warp w waits for: its
// outstanding count while blocked, else 0.
func (s *SM) Awaiting(w int) int {
	if s.warps[w].phase != phaseBlocked {
		return 0
	}
	return s.warps[w].outstanding
}

// BlockedWarps reports how many warps are waiting on memory.
func (s *SM) BlockedWarps() int {
	n := 0
	for w := range s.warps {
		if s.warps[w].phase == phaseBlocked {
			n++
		}
	}
	return n
}

// OutstandingLoads sums the sector completions the SM's blocked warps
// still await — the SM side of the simulator's conservation audit
// (every issued load retires exactly once).
func (s *SM) OutstandingLoads() int {
	n := 0
	for w := range s.warps {
		if s.warps[w].phase == phaseBlocked {
			n += s.warps[w].outstanding
		}
	}
	return n
}
