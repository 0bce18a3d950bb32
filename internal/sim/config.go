// Package sim is the cycle-level GPU timing simulator: SMs with warp
// scheduling, sectored L1/L2 caches, interconnect, and 32 memory
// partitions each carrying a secure-memory engine (metadata caches,
// MSHRs, AES engine queues, MAC units, and integrity-tree traffic)
// in front of a banked DRAM channel. It reproduces the experimental
// platform of the paper's Section IV.
//
// Concurrency and aliasing contract: a GPU instance is single-owner —
// drive it from one goroutine; distinct instances share nothing and
// may run concurrently without limit (the sweep runner's parallelism).
// With Config.Shards > 1 a run *internally* fans partition work out
// across a goroutine pool, but that parallelism never escapes the
// instance and results stay bit-identical at every shard count (see
// DESIGN.md "Windowed cycle loop"). The *Result a run returns is
// detached from simulator state and safe to share read-only.
package sim

import (
	"fmt"

	"gpusecmem/internal/cache"
	"gpusecmem/internal/dram"
	"gpusecmem/internal/faults"
	"gpusecmem/internal/geometry"
	"gpusecmem/internal/probe"
)

// EncryptionKind selects the data-path encryption scheme.
type EncryptionKind int

// Encryption schemes.
const (
	// EncNone is the insecure baseline GPU.
	EncNone EncryptionKind = iota
	// EncCounter is counter-mode (OTP) encryption with split counters.
	EncCounter
	// EncDirect is direct (address-tweaked block cipher) encryption.
	EncDirect
	// EncScattered is secret-shared line placement (Secure Scattered
	// Memory): every protected line is stored as ScatterShares secret
	// shares at pseudorandom locations, reads fan out to all shares and
	// reconstruct by XOR, and a share-map metadata cache tracks
	// placement. No AES pipeline, MACs, or integrity tree.
	EncScattered
	// EncSWCrypto is a MemShield-style software-encryption baseline:
	// decryption costs SWCryptoCycles of GPU compute per sector on the
	// reply critical path, keys come from a DRAM-resident key table read
	// through a single software-held key register — no hardware metadata
	// caches or MSHRs exist.
	EncSWCrypto
)

func (e EncryptionKind) String() string {
	switch e {
	case EncNone:
		return "none"
	case EncCounter:
		return "counter"
	case EncScattered:
		return "scattered"
	case EncSWCrypto:
		return "sw_crypto"
	}
	return "direct"
}

// SecureConfig describes the per-partition secure memory engine.
type SecureConfig struct {
	Encryption EncryptionKind
	// MAC enables per-sector data MACs (and their cache + traffic).
	MAC bool
	// Tree enables the integrity tree: a BMT over counter lines under
	// EncCounter, an MT over MAC lines under EncDirect.
	Tree bool

	// AESLatency is the cipher pipeline depth in core cycles. Under
	// counter mode it applies to OTP generation (usually hidden);
	// under direct encryption it sits on the read critical path.
	AESLatency int
	// MACLatency is the MAC unit pipeline depth in cycles.
	MACLatency int
	// AESEngines is the number of pipelined AES engines per partition
	// (1 or 2 in the paper; each moves 16 B per memory cycle).
	AESEngines int

	// MetaCacheBytes is the per-type metadata cache capacity per
	// partition (2 KB default; Figure 7 sweeps it).
	MetaCacheBytes int
	// MetaMSHRs is the MSHR count per metadata cache (64 default,
	// 0 = none; Figure 6 sweeps it).
	MetaMSHRs int
	// MergeCapCounter/MAC/Tree bound merged requests per MSHR entry
	// (512/64/64 in the paper).
	MergeCapCounter int
	MergeCapMAC     int
	MergeCapTree    int
	// MetaAssoc is the metadata cache associativity.
	MetaAssoc int

	// Unified replaces the three separate metadata caches with one
	// shared cache (Section V-D) of UnifiedBytes with UnifiedMSHRs.
	Unified      bool
	UnifiedBytes int
	UnifiedMSHRs int
	// UnifiedPolicy selects the unified cache's replacement policy.
	// The paper suggests "smart replacement policies" as an
	// alternative to separate caches; cache.PolicyDIP implements
	// RRIP set-dueling for the ext-smartunified experiment.
	UnifiedPolicy cache.Policy

	// PerfectMeta makes metadata caches always hit (perf_mdc).
	PerfectMeta bool
	// UnlimitedMeta gives metadata caches infinite capacity
	// (large_mdc).
	UnlimitedMeta bool
	// AllocOnFill is the metadata cache allocation policy (paper
	// default true).
	AllocOnFill bool
	// LazyTreeUpdate updates a dirty counter/tree line's parent only
	// when the line is evicted from its cache (paper default true);
	// false updates the parent on every write (eager).
	LazyTreeUpdate bool
	// SpeculativeVerify delivers data before integrity verification
	// completes (paper default true); false blocks the reply until the
	// MAC check would have finished.
	SpeculativeVerify bool
	// ProtectedFraction limits secure-memory coverage to the lowest
	// fraction of each partition's data space (1.0 = everything, the
	// paper's model). Fractions below 1 model the selective-encryption
	// approach of Zuo et al. that the paper's related work discusses:
	// accesses outside the protected range skip all metadata.
	ProtectedFraction float64

	// ScatterShares is EncScattered's fan-out: the number of secret
	// shares (2..8) each protected line is split into. Every read
	// fetches all of them; every dirty writeback rewrites all of them.
	ScatterShares int
	// ScatterCombineLatency is the cycles EncScattered spends
	// reconstructing a line once its last share has arrived (XOR
	// combine — cheap, but not free).
	ScatterCombineLatency int
	// SWCryptoCycles is EncSWCrypto's software decrypt/encrypt latency
	// per sector, on the read critical path. Software AES on SM cores
	// is an order of magnitude slower than the paper's 40-cycle
	// hardware pipeline.
	SWCryptoCycles int
}

// Config is the full machine configuration (Table I baseline).
type Config struct {
	NumSMs     int
	IssueWidth int
	// WarpOverride, when positive, overrides the generator's
	// warps-per-SM.
	WarpOverride int

	L1Bytes int
	L1Assoc int

	L2BankBytes         int
	L2Assoc             int
	L2BanksPerPartition int
	L2MSHRs             int
	L2MergeCap          int
	// SectoredL2 models the 4x32B sectored L2 (paper default true;
	// ablation flips it).
	SectoredL2 bool

	NumPartitions int
	L1Latency     uint64
	L2Latency     uint64
	IcntLatency   uint64
	MetaLatency   uint64

	DRAM dram.Config

	// ProtectedBytes is the total protected device memory (4 GB).
	ProtectedBytes uint64

	// MaxCycles is the simulation length.
	MaxCycles uint64

	// ProfileReuse enables the Figure 10/11 reuse-distance profilers
	// on partition 0's counter and MAC access streams.
	ProfileReuse bool

	// Faults is an optional deterministic fault-injection campaign
	// (Section II-B's active physical adversary at cycle granularity).
	// nil — and any plan with rate 0 — leaves the simulation
	// byte-identical to an uninstrumented run.
	Faults *faults.Plan

	// Probe is an optional cycle-domain observability configuration
	// (internal/probe): request-lifecycle spans with per-stage latency
	// attribution, a windowed timeline sampler, and Chrome trace-event
	// records. nil disables every instrument, leaving the hot paths a
	// single pointer comparison; probes only observe, so a probed run's
	// Result (minus the probe report itself) is byte-identical to an
	// unprobed one.
	Probe *probe.Config

	// Audit enables the per-cycle invariant auditors (request
	// conservation, MSHR accounting, queue bounds). Auditing never
	// changes timing; a violated invariant aborts the run with an
	// *AuditError.
	Audit bool

	// WatchdogCycles is the forward-progress stall threshold: if no
	// instruction issues and no load completes for this many cycles
	// while loads are outstanding, the run aborts with a *StallError
	// carrying a diagnostic dump. 0 disables the watchdog.
	WatchdogCycles uint64

	// Shards is how many goroutines advance the memory partitions
	// inside each window of the barrier-synchronized cycle loop
	// (DESIGN.md §13): the partitions are distributed round-robin over
	// this many workers while the SM side runs on the caller's
	// goroutine. 0 and 1 both run every window inline on the caller's
	// goroutine. Results — probe reports, fault counts and audits
	// included — are bit-identical for every shard count: Shards is an
	// execution hint, not a model parameter, so it is excluded from the
	// JSON form (run keys, result caches, and golden digests ignore
	// it). Shards need not divide NumPartitions (round-robin assignment
	// handles any remainder); it may not exceed it.
	Shards int `json:"-"`

	Secure SecureConfig
}

// Baseline returns the paper's Table I configuration with secure
// memory disabled.
func Baseline() Config {
	return Config{
		NumSMs:              80,
		IssueWidth:          2,
		L1Bytes:             32 * 1024,
		L1Assoc:             4,
		L2BankBytes:         96 * 1024,
		L2Assoc:             16,
		L2BanksPerPartition: 2,
		L2MSHRs:             256,
		L2MergeCap:          16,
		SectoredL2:          true,
		NumPartitions:       32,
		L1Latency:           28,
		L2Latency:           34,
		IcntLatency:         12,
		MetaLatency:         2,
		DRAM:                dram.DefaultConfig(),
		ProtectedBytes:      4 << 30,
		MaxCycles:           60_000,
		// A healthy machine completes loads every few hundred cycles at
		// worst; 25k cycles of total silence with loads in flight is a
		// wedge, not a workload.
		WatchdogCycles: 25_000,
		Secure: SecureConfig{
			Encryption:        EncNone,
			AESLatency:        40,
			MACLatency:        40,
			AESEngines:        2,
			MetaCacheBytes:    2 * 1024,
			MetaMSHRs:         64,
			MergeCapCounter:   512,
			MergeCapMAC:       64,
			MergeCapTree:      64,
			MetaAssoc:         8,
			UnifiedBytes:      6 * 1024,
			UnifiedMSHRs:      192,
			AllocOnFill:       true,
			LazyTreeUpdate:    true,
			SpeculativeVerify: true,
			ProtectedFraction: 1.0,

			ScatterShares:         2,
			ScatterCombineLatency: 4,
			SWCryptoCycles:        320,
		},
	}
}

// SecureMem returns the Table I machine with the full counter-mode +
// MAC + BMT secure memory enabled (the paper's secureMem design with
// MSHRs).
func SecureMem() Config {
	cfg := Baseline()
	cfg.Secure.Encryption = EncCounter
	cfg.Secure.MAC = true
	cfg.Secure.Tree = true
	return cfg
}

// DirectMem returns the Table I machine with direct encryption at the
// given AES latency and the requested integrity level.
func DirectMem(aesLatency int, mac, tree bool) Config {
	cfg := Baseline()
	cfg.Secure.Encryption = EncDirect
	cfg.Secure.AESLatency = aesLatency
	cfg.Secure.MAC = mac
	cfg.Secure.Tree = tree
	if mac && !tree {
		// Fig 17 fairness: direct_mac gets the whole 6 KB as MAC cache.
		cfg.Secure.MetaCacheBytes = 6 * 1024
	} else if mac && tree {
		// direct_mac_mt: 3 KB MAC + 3 KB MT.
		cfg.Secure.MetaCacheBytes = 3 * 1024
	}
	return cfg
}

// Scattered returns the Table I machine with secret-shared line
// placement (EncScattered) at the given share fan-out. The share map
// is cached in the partition's metadata cache; there is no AES
// pipeline, MAC, or integrity tree.
func Scattered(shares int) Config {
	cfg := Baseline()
	cfg.Secure.Encryption = EncScattered
	cfg.Secure.ScatterShares = shares
	// The whole per-type metadata budget serves the one share-map cache.
	cfg.Secure.MetaCacheBytes = 6 * 1024
	return cfg
}

// SWCrypto returns the Table I machine with MemShield-style software
// encryption (EncSWCrypto) at the given per-sector software cipher
// latency. No hardware metadata caches exist.
func SWCrypto(cycles int) Config {
	cfg := Baseline()
	cfg.Secure.Encryption = EncSWCrypto
	cfg.Secure.SWCryptoCycles = cycles
	return cfg
}

// Validate reports configuration errors early — including the cases
// internal/cache and internal/dram would otherwise only catch with a
// panic mid-construction (non-positive sizes/associativity, invalid
// channel timing), so a bad config fails before simulation starts.
func (c *Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("sim: NumSMs must be positive")
	case c.IssueWidth <= 0:
		return fmt.Errorf("sim: IssueWidth must be positive")
	case c.NumPartitions <= 0:
		return fmt.Errorf("sim: NumPartitions must be positive")
	case c.MaxCycles == 0:
		return fmt.Errorf("sim: MaxCycles must be positive")
	case c.ProtectedBytes%uint64(c.NumPartitions) != 0:
		return fmt.Errorf("sim: ProtectedBytes %d not divisible by %d partitions", c.ProtectedBytes, c.NumPartitions)
	case c.Secure.Encryption == EncDirect && c.Secure.Tree && !c.Secure.MAC:
		return fmt.Errorf("sim: direct encryption MT requires MACs (tree leaves)")
	case (c.Secure.Encryption == EncCounter || c.Secure.Encryption == EncDirect) && (c.Secure.AESEngines <= 0 || c.Secure.AESEngines > 1024):
		// Each partition allocates and scans its engines: bound the count.
		return fmt.Errorf("sim: AESEngines %d outside [1,1024] with hardware encryption enabled", c.Secure.AESEngines)
	case c.Secure.Encryption == EncScattered && (c.Secure.ScatterShares < 2 || c.Secure.ScatterShares > 8):
		return fmt.Errorf("sim: ScatterShares %d outside [2,8] — scattered memory needs at least two shares, and more than eight models no published design", c.Secure.ScatterShares)
	case c.Secure.Encryption == EncScattered && c.Secure.ScatterCombineLatency < 0:
		return fmt.Errorf("sim: ScatterCombineLatency must be >= 0")
	case c.Secure.Encryption == EncScattered && (c.Secure.MAC || c.Secure.Tree):
		return fmt.Errorf("sim: scattered memory models confidentiality by secret sharing only — MAC/Tree are not part of the design; disable them")
	case c.Secure.Encryption == EncScattered && c.Secure.Unified:
		return fmt.Errorf("sim: scattered memory has a single share-map cache — Unified does not apply")
	case c.Secure.Encryption == EncSWCrypto && c.Secure.SWCryptoCycles < 0:
		return fmt.Errorf("sim: SWCryptoCycles must be >= 0")
	case c.Secure.Encryption == EncSWCrypto && (c.Secure.MAC || c.Secure.Tree || c.Secure.Unified):
		return fmt.Errorf("sim: the software-encryption baseline has no hardware metadata path — MAC/Tree/Unified do not apply; disable them")
	case c.Secure.AESLatency < 0 || c.Secure.MACLatency < 0:
		return fmt.Errorf("sim: AESLatency %d and MACLatency %d must be >= 0", c.Secure.AESLatency, c.Secure.MACLatency)
	case c.Secure.MetaMSHRs < 0 || c.Secure.UnifiedMSHRs < 0:
		return fmt.Errorf("sim: MetaMSHRs %d and UnifiedMSHRs %d must be >= 0 (0 = no MSHRs)", c.Secure.MetaMSHRs, c.Secure.UnifiedMSHRs)
	case c.Secure.ProtectedFraction < 0 || c.Secure.ProtectedFraction > 1:
		return fmt.Errorf("sim: ProtectedFraction %f outside [0,1]", c.Secure.ProtectedFraction)
	case c.IcntLatency == 0:
		return fmt.Errorf("sim: IcntLatency must be >= 1 — the interconnect latency is the cycle loop's conservative lookahead window")
	case c.Shards < 0:
		return fmt.Errorf("sim: Shards must be >= 0 (0 or 1 runs the partitions inline; got %d)", c.Shards)
	case c.Shards > c.NumPartitions:
		return fmt.Errorf("sim: Shards %d exceeds NumPartitions %d — each shard needs at least one partition; lower the shard count or raise NumPartitions", c.Shards, c.NumPartitions)
	}
	if err := validateCacheGeom("L1", c.L1Bytes, c.L1Assoc); err != nil {
		return err
	}
	if err := validateCacheGeom("L2 bank", c.L2BankBytes, c.L2Assoc); err != nil {
		return err
	}
	if c.L2BanksPerPartition <= 0 {
		return fmt.Errorf("sim: L2BanksPerPartition must be positive")
	}
	// EncSWCrypto has no hardware metadata caches at all, so its runs
	// ignore the metadata-cache geometry entirely.
	if sc := &c.Secure; sc.Encryption != EncNone && sc.Encryption != EncSWCrypto {
		if sc.MetaAssoc <= 0 {
			return fmt.Errorf("sim: MetaAssoc must be positive with encryption enabled")
		}
		if !sc.PerfectMeta && !sc.UnlimitedMeta {
			name, size := "metadata cache", sc.MetaCacheBytes
			if sc.Unified {
				name, size = "unified metadata cache", sc.UnifiedBytes
			}
			if err := validateCacheGeom(name, size, sc.MetaAssoc); err != nil {
				return err
			}
			if max := c.MaxMetaCacheBytes(); size > max {
				return fmt.Errorf("sim: %s size %d exceeds the %d B of metadata in one partition", name, size, max)
			}
		}
	}
	if err := c.DRAM.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := c.Probe.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// MaxMetaCacheBytes is the largest metadata cache Validate accepts:
// the whole metadata footprint (counters, MACs and tree nodes) of one
// partition's protected memory. A larger cache could never fill, and
// without a bound a size from outside input could exhaust host memory.
// It is 0 when the protected-memory geometry itself is invalid.
func (c *Config) MaxMetaCacheBytes() int {
	if c.NumPartitions <= 0 {
		return 0
	}
	l, err := geometry.NewLayout(c.ProtectedBytes/uint64(c.NumPartitions), layoutKind(c))
	if err != nil {
		return 0
	}
	return int(l.TotalBytes - l.DataBytes)
}

// SetMetaCacheKB sets the per-type metadata cache size from a size in
// KB, the unit the CLI and the daemon take. It checks kb against
// MaxMetaCacheBytes before multiplying, so a huge kb cannot wrap
// around to a small, valid-looking size.
func (c *Config) SetMetaCacheKB(kb int) error {
	if max := c.MaxMetaCacheBytes() / 1024; kb <= 0 || kb > max {
		return fmt.Errorf("sim: metadata cache size %d KB outside [1,%d] (the metadata in one partition)", kb, max)
	}
	c.Secure.MetaCacheBytes = kb * 1024
	return nil
}

// validateCacheGeom mirrors internal/cache.New's constructor panics as
// errors: positive size and associativity, capacity a whole number of
// lines and of sets.
func validateCacheGeom(name string, sizeBytes, assoc int) error {
	if assoc <= 0 {
		return fmt.Errorf("sim: %s associativity must be positive (got %d)", name, assoc)
	}
	if sizeBytes <= 0 || sizeBytes%geometry.LineSize != 0 {
		return fmt.Errorf("sim: %s size %d not a positive multiple of the %d B line", name, sizeBytes, geometry.LineSize)
	}
	return nil
}
