// Package gpusecmem reproduces "Analyzing Secure Memory Architecture
// for GPUs" (Yuan, Yudha, Solihin, Zhou — ISPASS 2021).
//
// The package has two halves, mirroring the paper:
//
//   - A *functional* secure-memory library: real counter-mode and
//     direct-encryption engines (AES-128, AES-CMAC, split counters,
//     Bonsai Merkle Tree / Merkle Tree, on-chip root register) that
//     encrypt, authenticate, and detect tampering and replay of an
//     untrusted backing store. See NewCounterModeMemory and
//     NewDirectMemory.
//
//   - A cycle-level GPU *timing simulator* of the same architectures:
//     80 Volta-class SMs, sectored L2, 32 memory partitions, per-
//     partition metadata caches with MSHRs, pipelined AES engines, and
//     banked DRAM. See BaselineConfig, SecureMemConfig, Simulate, and
//     the Experiments registry, which regenerates every table and
//     figure in the paper's evaluation.
package gpusecmem

import (
	"context"
	"fmt"
	"io"

	"gpusecmem/internal/faults"
	"gpusecmem/internal/geometry"
	"gpusecmem/internal/probe"
	"gpusecmem/internal/secmem"
	"gpusecmem/internal/sim"
	"gpusecmem/internal/trace"
)

// --- Functional secure memory ---

// Keys holds the engine's three on-chip secret keys (encryption, MAC,
// tree).
type Keys = secmem.Keys

// Protection selects MAC and integrity-tree coverage.
type Protection = secmem.Protection

// Integrity-tree node hash functions for Protection.TreeHash.
const (
	// TreeHashCMAC hashes tree nodes with AES-CMAC (default).
	TreeHashCMAC = secmem.TreeHashCMAC
	// TreeHashSHA256 hashes tree nodes with keyed SHA-256, the classic
	// Merkle-tree construction.
	TreeHashSHA256 = secmem.TreeHashSHA256
)

// FullProtection enables encryption, MACs and the integrity tree.
var FullProtection = secmem.FullProtection

// SecureMemory is the functional engine interface: line/sector reads
// and writes over an encrypted, integrity-protected address space,
// plus raw access to the untrusted backing store for attack studies.
type SecureMemory = secmem.Engine

// IntegrityError is returned when a read fails MAC or tree
// verification (tamper or replay detected).
type IntegrityError = secmem.IntegrityError

// ScrubReport is the outcome of SecureMemory.VerifyAll: an offline
// integrity sweep of the whole protected region.
type ScrubReport = secmem.ScrubReport

// NewCounterModeMemory builds a counter-mode engine (split counters,
// stateful sector MACs, Bonsai Merkle Tree) protecting size bytes.
// size must be a positive multiple of 16 KB.
func NewCounterModeMemory(size uint64, keys Keys, prot Protection) (SecureMemory, error) {
	return secmem.NewCounterMode(size, keys, prot)
}

// NewDirectMemory builds a direct-encryption engine (address-tweaked
// AES, sector MACs, Merkle Tree over MAC lines) protecting size bytes.
func NewDirectMemory(size uint64, keys Keys, prot Protection) (SecureMemory, error) {
	return secmem.NewDirect(size, keys, prot)
}

// MetadataStorage reports the Table II storage footprint for a
// protected region: counter bytes, MAC bytes, and tree bytes.
func MetadataStorage(dataBytes uint64, counterMode bool) (counter, mac, tree uint64, err error) {
	kind := geometry.MT
	if counterMode {
		kind = geometry.BMT
	}
	lay, err := geometry.NewLayout(dataBytes, kind)
	if err != nil {
		return 0, 0, 0, err
	}
	s := lay.Storage()
	return s.CounterBytes, s.MACBytes, s.TreeBytes, nil
}

// --- Timing simulation ---

// Config is the full machine configuration (Table I + Table III).
type Config = sim.Config

// SecureConfig is the per-partition secure-engine configuration.
type SecureConfig = sim.SecureConfig

// Result is the outcome of one simulation run.
type Result = sim.Result

// Encryption kinds for SecureConfig.Encryption.
const (
	EncNone    = sim.EncNone
	EncCounter = sim.EncCounter
	EncDirect  = sim.EncDirect
	// EncScattered is secret-shared line placement (Secure Scattered
	// Memory, arXiv:2402.15824): no AES/MAC/BMT; reads fan out to
	// ScatterShares shares gated by a share-map cache.
	EncScattered = sim.EncScattered
	// EncSWCrypto is a MemShield-style software-encryption baseline
	// (arXiv:2004.09252): per-sector software cipher cycles plus
	// key-table reads through a single software key register.
	EncSWCrypto = sim.EncSWCrypto
)

// BaselineConfig returns the paper's Table I GPU with secure memory
// disabled.
func BaselineConfig() Config { return sim.Baseline() }

// SecureMemConfig returns the Table I GPU with counter-mode + MAC +
// BMT secure memory (the paper's secureMem design with 64 MSHRs per
// metadata cache).
func SecureMemConfig() Config { return sim.SecureMem() }

// DirectMemConfig returns the Table I GPU with direct encryption at
// the given AES latency and integrity level.
func DirectMemConfig(aesLatency int, mac, tree bool) Config {
	return sim.DirectMem(aesLatency, mac, tree)
}

// ScatteredMemConfig returns the Table I GPU with secret-shared line
// placement at the given share fan-out (2..8).
func ScatteredMemConfig(shares int) Config { return sim.Scattered(shares) }

// SWCryptoConfig returns the Table I GPU with MemShield-style software
// encryption at the given per-sector software cipher latency.
func SWCryptoConfig(cycles int) Config { return sim.SWCrypto(cycles) }

// Simulate runs one benchmark on one configuration.
func Simulate(cfg Config, benchmark string) (*Result, error) {
	return sim.Run(cfg, benchmark)
}

// SimulateContext is Simulate with cooperative cancellation: when ctx
// is cancelled the simulation stops at the next check boundary and
// returns (nil, ctx.Err()) rather than a partial Result. A run whose
// context is never cancelled produces bit-identical results to
// Simulate.
func SimulateContext(ctx context.Context, cfg Config, benchmark string) (*Result, error) {
	return sim.RunContext(ctx, cfg, benchmark)
}

// --- Checkpoint/restore ---

// CheckpointStore persists mid-run machine snapshots for crash-safe
// long-horizon runs and incremental horizon extension (DESIGN.md §14).
// Latest returns the newest valid snapshot for a checkpoint key with
// cycle <= maxCycle; Put stores one. Implementations must treat any
// invalid entry as a miss (internal/checkpoint is the on-disk
// implementation) and must be safe for concurrent use.
type CheckpointStore interface {
	Latest(key string, maxCycle uint64) (cycle uint64, state []byte, ok bool)
	Put(key string, cycle uint64, state []byte) error
}

// CheckpointKey is the canonical checkpoint-lineage key for one
// (config, benchmark) pair: the RunKey with MaxCycles zeroed, so runs
// of the same machine at different horizons share one checkpoint
// lineage — a 4k-cycle run's final checkpoint resumes a 16k-cycle
// request.
func CheckpointKey(cfg Config, benchmark string) string {
	cfg.MaxCycles = 0
	return RunKey(cfg, benchmark)
}

// SimulateCheckpointed is SimulateContext with crash-safe
// checkpointing: the run resumes from the newest valid checkpoint at
// or before the horizon (or cycle 0 when none exists), snapshots into
// cs every `every` cycles and at completion or cancellation, and
// produces a Result bit-identical to an uninterrupted SimulateContext
// run. Configurations sim.Checkpointable refuses (instrumented runs), a
// nil store and a zero interval silently run plain.
func SimulateCheckpointed(ctx context.Context, cfg Config, benchmark string, cs CheckpointStore, every uint64) (*Result, error) {
	if cs == nil || every == 0 || sim.Checkpointable(cfg) != nil {
		return sim.RunContext(ctx, cfg, benchmark)
	}
	key := CheckpointKey(cfg, benchmark)
	sink := func(cycle uint64, st *sim.MachineState) {
		b, err := sim.EncodeState(st)
		if err != nil {
			return
		}
		cs.Put(key, cycle, b)
	}
	build := func() (*sim.GPU, error) {
		gen, err := trace.New(benchmark)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		g, err := sim.New(cfg, gen)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		return g, nil
	}
	g, err := build()
	if err != nil {
		return nil, err
	}
	if _, state, ok := cs.Latest(key, cfg.MaxCycles); ok {
		// Any failure along the resume path — undecodable bytes, a stale
		// StateVersion, a shape mismatch — degrades to a fresh run from
		// cycle 0 on a rebuilt machine, never to wrong state.
		st, err := sim.DecodeState(state)
		if err == nil {
			if err := g.Restore(st); err != nil {
				if g, err = build(); err != nil {
					return nil, err
				}
			}
		}
	}
	g.SetCheckpoint(every, sink)
	return g.RunContext(ctx)
}

// ResumedFrom reports the cycle a SimulateCheckpointed run would
// resume from given the store's current contents: the newest valid
// checkpoint at or before the horizon, or 0 for a fresh run. It is a
// read-only preview (no store counters change semantics beyond a
// Latest probe) used for attribution and logging.
func ResumedFrom(cfg Config, benchmark string, cs CheckpointStore) uint64 {
	if cs == nil {
		return 0
	}
	cycle, _, ok := cs.Latest(CheckpointKey(cfg, benchmark), cfg.MaxCycles)
	if !ok {
		return 0
	}
	return cycle
}

// --- Fault injection & self-checking ---

// FaultPlan is a deterministic fault-injection campaign for
// Config.Faults: a seed, a per-opportunity rate, and the set of
// injection sites (DRAM data/metadata flips, metadata-fill corruption,
// interconnect drops/duplicates). nil injects nothing.
type FaultPlan = faults.Plan

// FaultStats summarizes a campaign's injections and how the configured
// protection level classified them (Result.Faults).
type FaultStats = sim.FaultStats

// ParseFaultPlan parses the -faults CLI syntax,
// "seed=N,rate=F,sites=a,b,c" (sites: data, meta, metafill, drop, dup,
// all, flips). Empty or "none" returns nil.
func ParseFaultPlan(spec string) (*FaultPlan, error) { return faults.ParsePlan(spec) }

// StallError is returned by Simulate when the watchdog detects a
// forward-progress stall; it carries a machine-state dump.
type StallError = sim.StallError

// AuditError is returned by Simulate when a per-cycle invariant
// auditor (Config.Audit) finds the simulator's books out of balance.
type AuditError = sim.AuditError

// Benchmarks lists the Table IV workloads in paper order.
func Benchmarks() []string { return trace.Names() }

// --- Observability ---

// ProbeConfig selects the cycle-domain observability instruments of a
// run (Config.Probe): request-lifecycle spans with per-stage latency
// attribution, a windowed timeline sampler, and Chrome trace-event
// records. A nil Config.Probe disables everything at zero cost and
// leaves results byte-identical to an uninstrumented run.
type ProbeConfig = probe.Config

// ProbeReport is the observability output of a probed run
// (Result.Probe): the latency-attribution breakdown plus timeline
// samples.
type ProbeReport = probe.Report

// TimelineSample is one windowed timeline sample (ProbeReport
// .Timeline).
type TimelineSample = probe.Sample

// WriteTimelineNDJSON writes timeline samples as newline-delimited
// JSON, one window per line.
func WriteTimelineNDJSON(w io.Writer, samples []TimelineSample) error {
	return probe.WriteTimelineNDJSON(w, samples)
}

// WriteTimelineCSV writes timeline samples as CSV with a stable
// header.
func WriteTimelineCSV(w io.Writer, samples []TimelineSample) error {
	return probe.WriteTimelineCSV(w, samples)
}

// WriteChromeTrace writes a probed run's retained span records in
// Chrome trace-event JSON, viewable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
func WriteChromeTrace(w io.Writer, r *ProbeReport) error {
	return probe.WriteChromeTrace(w, r)
}
