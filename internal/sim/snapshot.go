package sim

// Checkpoint snapshot/restore for a whole machine (DESIGN.md §14).
//
// A MachineState is a deep copy of every simulator component's
// behavioral state, taken at an end-of-cycle boundary: a window
// barrier of the cycle loop, where staging buffers and inboxes are
// provably empty, so the state is the same at every shard count.
// Restoring it into a freshly
// constructed GPU of the same Config and benchmark and running to the
// horizon produces a Result bit-identical to a never-interrupted run —
// the resume-identity tests pin this against the golden digests.
//
// Everything map-shaped is captured as a slice sorted by key, and
// event heaps in raw heap layout (eventq.Elems), so (a) identical
// machine states always encode to identical bytes and (b) equal-time
// event pop order survives the round trip. EncodeState/DecodeState and
// the flat wire format live in statecodec.go.
//
// Configurations whose auxiliary state is not captured — fault
// injection, probes, reuse profiling — refuse to snapshot or restore;
// callers fall back to running from cycle 0. Auditing is covered: the
// auditors only read machine state at barriers.

import (
	"cmp"
	"fmt"
	"slices"

	"gpusecmem/internal/cache"
	"gpusecmem/internal/dram"
	"gpusecmem/internal/icnt"
	"gpusecmem/internal/smcore"
)

// StateVersion tags MachineState's schema. Bump it whenever any
// serialized component state changes shape or meaning, and give a new
// field its line in both halves of statecodec.go; DecodeState and
// Restore reject other versions and the caller starts from cycle 0.
//
// Version history: 2 widened MetaStats to the extension metadata kinds
// and added ReadRecState.SharesLeft / PartitionState.LastKeyLine for
// the scattered-memory and software-encryption schemes. 3 replaced the
// gob encoding with the flat codec in statecodec.go (same fields).
const StateVersion = 3

// QueuedL2 is one undelivered SM→partition interconnect message.
type QueuedL2 struct {
	ReadyAt uint64
	Addr    uint64
	Token   uint64
	Write   bool
}

// QueuedReply is one undelivered partition→SM interconnect message.
type QueuedReply struct {
	ReadyAt uint64
	Addr    uint64
	Token   uint64
}

// LoadState is one outstanding L1-level sector request.
type LoadState struct {
	Token      uint64
	SM         int
	Warp       int
	FillBypass bool
}

// DestState is one in-flight DRAM transaction's completion routing.
type DestState struct {
	Token    uint64
	Kind     int
	Addr     uint64
	ReadID   uint64
	Bypass   bool
	Write    bool
	IssuedAt uint64
}

// ReadRecState is one in-flight secure read.
type ReadRecState struct {
	ID          uint64
	GlobalAddr  uint64
	LocalAddr   uint64
	L2Token     uint64
	L2Bypass    bool
	L2Bank      int
	DataDone    bool
	CtrDone     bool
	MacDone     bool
	SharesLeft  int
	Unprotected bool
	ArrivedAt   uint64
	DataReady   uint64
	CtrReady    uint64
	MacReady    uint64
	Replied     bool
	Finished    bool
}

// ReplyEventState is one scheduled reply event (raw heap layout).
type ReplyEventState struct {
	At     uint64
	ReadID uint64
}

// PartitionState is one memory partition's complete state.
type PartitionState struct {
	Banks []*cache.State
	DRAM  *dram.State
	// Metadata caches. When UnifiedAlias is set, Ctr holds the single
	// unified cache's state and MAC/Tree are nil (ctr/mac/tree alias
	// one instance); otherwise each present cache carries its own.
	Ctr, MAC, Tree *cache.State
	UnifiedAlias   bool

	AESFree3 []uint64
	MACFree3 uint64

	Dests   []DestState       // sorted by Token
	Reads   []ReadRecState    // sorted by ID
	Replies []ReplyEventState // raw heap layout

	MetaStats     [numMeta]MetaStats
	FaultDetected uint64
	FaultSilent   uint64
	LocalTok      uint64
	// LastKeyLine is EncSWCrypto's software key register (^0 = empty);
	// zero-valued and ignored by every other scheme.
	LastKeyLine uint64
}

// MachineState is a complete, detached snapshot of a GPU mid-run.
type MachineState struct {
	Version   int
	Benchmark string

	Now      uint64
	TokenSeq uint64
	Stepped  uint64

	CompletedLoads uint64
	LastProgress   uint64
	LastProgressAt uint64
	MaxProgressGap uint64

	Loads []LoadState // sorted by Token

	SMWake     []uint64
	SMLastTick []uint64
	PartNext   []uint64

	ToL2Items []QueuedL2
	ToL2Stats icnt.Stats
	ToSMItems []QueuedReply
	ToSMStats icnt.Stats

	SMs   []*smcore.State
	L1s   []*cache.State
	Parts []*PartitionState
}

// Checkpointable reports whether cfg's complete state is captured by
// MachineState, for the GPU and the library's checkpointed runs alike.
// Fault injectors (per-site event counters), probes (span/timeline
// buffers) and reuse profilers hang state off the run that a snapshot
// does not carry, so checkpointing refuses rather than resume wrong.
// The auditors keep no state of their own, so audited runs are
// covered.
func Checkpointable(cfg Config) error {
	switch {
	case cfg.Faults.Enabled():
		return fmt.Errorf("sim: checkpointing is unavailable with fault injection enabled")
	case cfg.Probe.Enabled():
		return fmt.Errorf("sim: checkpointing is unavailable with probes enabled")
	case cfg.ProfileReuse:
		return fmt.Errorf("sim: checkpointing is unavailable with reuse profiling enabled")
	}
	return nil
}

// Snapshot captures the machine's full state at the current
// end-of-cycle boundary. The result shares no memory with the GPU.
// It returns Checkpointable's error for an instrumented configuration.
func (g *GPU) Snapshot() (*MachineState, error) {
	if err := Checkpointable(g.cfg); err != nil {
		return nil, err
	}
	st := &MachineState{
		Version:        StateVersion,
		Benchmark:      g.gen.Name(),
		Now:            g.now,
		TokenSeq:       g.tokenSeq,
		Stepped:        g.stepped,
		CompletedLoads: g.completedLoads,
		LastProgress:   g.lastProgress,
		LastProgressAt: g.lastProgressAt,
		MaxProgressGap: g.maxProgressGap,
		SMWake:         append([]uint64(nil), g.smWake...),
		SMLastTick:     append([]uint64(nil), g.smLastTick...),
		PartNext:       append([]uint64(nil), g.partNext...),
		ToL2Stats:      g.toL2.Stats,
		ToSMStats:      g.toSM.Stats,
	}
	if len(g.loads) > 0 {
		st.Loads = make([]LoadState, 0, len(g.loads))
		for tok, lr := range g.loads {
			st.Loads = append(st.Loads, LoadState{Token: tok, SM: lr.sm, Warp: lr.warp, FillBypass: lr.fillBypass})
		}
		slices.SortFunc(st.Loads, func(a, b LoadState) int { return cmp.Compare(a.Token, b.Token) })
	}
	for _, d := range g.toL2.Snapshot() {
		st.ToL2Items = append(st.ToL2Items, QueuedL2{ReadyAt: d.ReadyAt, Addr: d.Item.globalAddr, Token: d.Item.token, Write: d.Item.write})
	}
	for _, d := range g.toSM.Snapshot() {
		st.ToSMItems = append(st.ToSMItems, QueuedReply{ReadyAt: d.ReadyAt, Addr: d.Item.globalAddr, Token: d.Item.token})
	}
	for _, sm := range g.sms {
		st.SMs = append(st.SMs, sm.Snapshot())
	}
	for _, l1 := range g.l1s {
		st.L1s = append(st.L1s, l1.Snapshot())
	}
	for _, p := range g.parts {
		st.Parts = append(st.Parts, p.snapshot())
	}
	return st, nil
}

// Restore replaces the machine's state with a snapshot taken from a
// GPU of identical Config and benchmark. It validates version,
// benchmark, and component shapes; on any error the GPU must be
// considered unusable (restore into a freshly constructed instance and
// fall back to cycle 0 on failure).
func (g *GPU) Restore(st *MachineState) error {
	if err := Checkpointable(g.cfg); err != nil {
		return err
	}
	switch {
	case st.Version != StateVersion:
		return fmt.Errorf("sim: snapshot version %d, want %d", st.Version, StateVersion)
	case st.Benchmark != g.gen.Name():
		return fmt.Errorf("sim: snapshot is for benchmark %q, machine runs %q", st.Benchmark, g.gen.Name())
	case len(st.SMs) != len(g.sms) || len(st.L1s) != len(g.l1s):
		return fmt.Errorf("sim: snapshot has %d SMs / %d L1s, machine has %d / %d",
			len(st.SMs), len(st.L1s), len(g.sms), len(g.l1s))
	case len(st.Parts) != len(g.parts):
		return fmt.Errorf("sim: snapshot has %d partitions, machine has %d", len(st.Parts), len(g.parts))
	case len(st.SMWake) != len(g.smWake) || len(st.SMLastTick) != len(g.smLastTick) || len(st.PartNext) != len(g.partNext):
		return fmt.Errorf("sim: snapshot activity-bound shapes do not match the machine")
	}
	for i, sm := range g.sms {
		if err := sm.Restore(st.SMs[i]); err != nil {
			return err
		}
		if err := g.l1s[i].Restore(st.L1s[i]); err != nil {
			return err
		}
	}
	for i, p := range g.parts {
		if err := p.restore(st.Parts[i]); err != nil {
			return err
		}
	}
	g.now = st.Now
	g.tokenSeq = st.TokenSeq
	g.stepped = st.Stepped
	g.completedLoads = st.CompletedLoads
	g.lastProgress = st.LastProgress
	g.lastProgressAt = st.LastProgressAt
	g.maxProgressGap = st.MaxProgressGap
	copy(g.smWake, st.SMWake)
	copy(g.smLastTick, st.SMLastTick)
	copy(g.partNext, st.PartNext)
	g.loads = make(map[uint64]loadReq, len(st.Loads))
	for _, l := range st.Loads {
		g.loads[l.Token] = loadReq{sm: l.SM, warp: l.Warp, fillBypass: l.FillBypass}
	}
	l2Items := make([]icnt.Delayed[l2Msg], 0, len(st.ToL2Items))
	for _, q := range st.ToL2Items {
		l2Items = append(l2Items, icnt.Delayed[l2Msg]{ReadyAt: q.ReadyAt, Item: l2Msg{globalAddr: q.Addr, token: q.Token, write: q.Write}})
	}
	g.toL2.Restore(l2Items, st.ToL2Stats)
	smItems := make([]icnt.Delayed[smReply], 0, len(st.ToSMItems))
	for _, q := range st.ToSMItems {
		smItems = append(smItems, icnt.Delayed[smReply]{ReadyAt: q.ReadyAt, Item: smReply{globalAddr: q.Addr, token: q.Token}})
	}
	g.toSM.Restore(smItems, st.ToSMStats)
	return nil
}

// snapshot captures one partition. Transient fields — the staging
// pointer (its buffers are empty at a barrier), the readState pool,
// reuse profilers (gated off by Checkpointable) — are excluded.
func (p *partition) snapshot() *PartitionState {
	st := &PartitionState{
		DRAM:          p.dram.Snapshot(),
		MACFree3:      p.macFree3,
		MetaStats:     p.metaStats,
		FaultDetected: p.faultDetected,
		FaultSilent:   p.faultSilent,
		LocalTok:      p.localTok,
		LastKeyLine:   p.lastKeyLine,
	}
	for _, b := range p.banks {
		st.Banks = append(st.Banks, b.Snapshot())
	}
	if p.cfg.Secure.Unified && p.ctr != nil {
		st.UnifiedAlias = true
		st.Ctr = p.ctr.Snapshot()
	} else {
		if p.ctr != nil {
			st.Ctr = p.ctr.Snapshot()
		}
		if p.mac != nil {
			st.MAC = p.mac.Snapshot()
		}
		if p.tree != nil {
			st.Tree = p.tree.Snapshot()
		}
	}
	st.AESFree3 = append([]uint64(nil), p.aesFree3...)
	if len(p.dests) > 0 {
		st.Dests = make([]DestState, 0, len(p.dests))
		for tok, d := range p.dests {
			st.Dests = append(st.Dests, DestState{
				Token: tok, Kind: int(d.kind), Addr: d.addr, ReadID: d.readID,
				Bypass: d.bypass, Write: d.write, IssuedAt: d.issuedAt,
			})
		}
		slices.SortFunc(st.Dests, func(a, b DestState) int { return cmp.Compare(a.Token, b.Token) })
	}
	if len(p.reads) > 0 {
		st.Reads = make([]ReadRecState, 0, len(p.reads))
		for _, rs := range p.reads {
			st.Reads = append(st.Reads, ReadRecState{
				ID: rs.id, GlobalAddr: rs.globalAddr, LocalAddr: rs.localAddr,
				L2Token: rs.l2Token, L2Bypass: rs.l2Bypass, L2Bank: rs.l2Bank,
				DataDone: rs.dataDone, CtrDone: rs.ctrDone, MacDone: rs.macDone,
				SharesLeft:  rs.sharesLeft,
				Unprotected: rs.unprotected, ArrivedAt: rs.arrivedAt,
				DataReady: rs.dataReady, CtrReady: rs.ctrReady, MacReady: rs.macReady,
				Replied: rs.replied, Finished: rs.finished,
			})
		}
		slices.SortFunc(st.Reads, func(a, b ReadRecState) int { return cmp.Compare(a.ID, b.ID) })
	}
	for _, ev := range p.replies.Elems() {
		st.Replies = append(st.Replies, ReplyEventState{At: ev.at, ReadID: ev.readID})
	}
	return st
}

// restore replaces the partition's state. The layout and
// protectedStripes fields are derived from Config at construction and
// stay as built.
func (p *partition) restore(st *PartitionState) error {
	if len(st.Banks) != len(p.banks) {
		return fmt.Errorf("sim: partition %d snapshot has %d L2 banks, machine has %d", p.id, len(st.Banks), len(p.banks))
	}
	for i, b := range p.banks {
		if err := b.Restore(st.Banks[i]); err != nil {
			return err
		}
	}
	if err := p.dram.Restore(st.DRAM); err != nil {
		return err
	}
	if st.UnifiedAlias != (p.cfg.Secure.Unified && p.ctr != nil) {
		return fmt.Errorf("sim: partition %d snapshot unified-cache shape does not match the configuration", p.id)
	}
	if st.UnifiedAlias {
		// ctr, mac, and tree alias one cache; restore it once.
		if err := p.ctr.Restore(st.Ctr); err != nil {
			return err
		}
	} else {
		for _, mc := range []struct {
			c  *cache.Cache
			st *cache.State
		}{{p.ctr, st.Ctr}, {p.mac, st.MAC}, {p.tree, st.Tree}} {
			if (mc.c == nil) != (mc.st == nil) {
				return fmt.Errorf("sim: partition %d snapshot metadata-cache shape does not match the configuration", p.id)
			}
			if mc.c != nil {
				if err := mc.c.Restore(mc.st); err != nil {
					return err
				}
			}
		}
	}
	if len(st.AESFree3) != len(p.aesFree3) {
		return fmt.Errorf("sim: partition %d snapshot has %d AES engines, machine has %d", p.id, len(st.AESFree3), len(p.aesFree3))
	}
	copy(p.aesFree3, st.AESFree3)
	p.macFree3 = st.MACFree3
	p.metaStats = st.MetaStats
	p.faultDetected = st.FaultDetected
	p.faultSilent = st.FaultSilent
	p.localTok = st.LocalTok
	p.lastKeyLine = st.LastKeyLine
	p.dests = make(map[uint64]dest, len(st.Dests))
	for _, d := range st.Dests {
		p.dests[d.Token] = dest{
			kind: destKind(d.Kind), addr: d.Addr, readID: d.ReadID,
			bypass: d.Bypass, write: d.Write, issuedAt: d.IssuedAt,
		}
	}
	p.reads = make(map[uint64]*readState, len(st.Reads))
	for _, r := range st.Reads {
		p.reads[r.ID] = &readState{
			id: r.ID, globalAddr: r.GlobalAddr, localAddr: r.LocalAddr,
			l2Token: r.L2Token, l2Bypass: r.L2Bypass, l2Bank: r.L2Bank,
			dataDone: r.DataDone, ctrDone: r.CtrDone, macDone: r.MacDone,
			sharesLeft:  r.SharesLeft,
			unprotected: r.Unprotected, arrivedAt: r.ArrivedAt,
			dataReady: r.DataReady, ctrReady: r.CtrReady, macReady: r.MacReady,
			replied: r.Replied, finished: r.Finished,
		}
	}
	replies := make([]replyEvent, 0, len(st.Replies))
	for _, ev := range st.Replies {
		replies = append(replies, replyEvent{at: ev.At, readID: ev.ReadID})
	}
	p.replies.SetElems(replies)
	p.rsPool = nil
	return nil
}
