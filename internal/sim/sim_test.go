package sim

import (
	"strings"
	"testing"

	"gpusecmem/internal/faults"
	"gpusecmem/internal/trace"
)

// testCycles keeps unit runs fast; steady state is reached within a
// few thousand cycles for the synthetic workloads.
const testCycles = 8000

func runFor(t testing.TB, cfg Config, bench string) *Result {
	t.Helper()
	cfg.MaxCycles = testCycles
	r, err := Run(cfg, bench)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumSMs = 0 },
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.NumPartitions = 0 },
		func(c *Config) { c.MaxCycles = 0 },
		func(c *Config) { c.ProtectedBytes = 100 },
		func(c *Config) { c.Secure.Encryption = EncDirect; c.Secure.Tree = true; c.Secure.MAC = false },
		func(c *Config) { c.Secure.Encryption = EncCounter; c.Secure.AESEngines = 0 },
		// Geometry and timing that used to panic deep inside cache.New
		// and dram.New must be rejected up front.
		func(c *Config) { c.L1Assoc = 0 },
		func(c *Config) { c.L1Bytes = 100 }, // not a multiple of the line size
		func(c *Config) { c.L2Assoc = -4 },
		func(c *Config) { c.L2BanksPerPartition = 0 },
		func(c *Config) { c.DRAM.Banks = 0 },
		func(c *Config) { c.DRAM.RowHitCycles = c.DRAM.RowMissCycles + 1 },
		func(c *Config) { c.DRAM.MaxIssuePerCycle = 0 },
		func(c *Config) { c.Faults = &faults.Plan{Rate: 2} },
		func(c *Config) { c.Faults = &faults.Plan{Rate: 0.1, Sites: faults.SiteMask(1 << 30)} },
		// The related-work backends have their own envelope: share
		// count bounds, non-negative latencies, and no integrity
		// hardware to combine with.
		func(c *Config) { *c = Scattered(1) },
		func(c *Config) { *c = Scattered(9) },
		func(c *Config) { *c = Scattered(2); c.Secure.ScatterCombineLatency = -1 },
		func(c *Config) { *c = Scattered(2); c.Secure.MAC = true },
		func(c *Config) { *c = Scattered(2); c.Secure.Tree = true },
		func(c *Config) { *c = Scattered(2); c.Secure.Unified = true },
		func(c *Config) { *c = SWCrypto(-1) },
		func(c *Config) { *c = SWCrypto(320); c.Secure.MAC = true },
		func(c *Config) { *c = SWCrypto(320); c.Secure.Tree = true },
		func(c *Config) { *c = SWCrypto(320); c.Secure.Unified = true },
		// A zero-latency interconnect leaves the cycle loop no
		// lookahead, at any shard count.
		func(c *Config) { c.IcntLatency = 0 },
		func(c *Config) { c.IcntLatency = 0; c.Shards = 4 },
		// Knobs reachable from secmemsim flags and GET /api/run: a
		// negative latency schedules work before it starts, a negative
		// MSHR count corrupts MSHR accounting, and a metadata cache
		// beyond the partition's metadata footprint only burns host
		// memory.
		func(c *Config) { *c = SecureMem(); c.Secure.AESLatency = -5 },
		func(c *Config) { *c = SecureMem(); c.Secure.MACLatency = -1 },
		func(c *Config) { *c = SecureMem(); c.Secure.MetaMSHRs = -3 },
		func(c *Config) { *c = SecureMem(); c.Secure.Unified = true; c.Secure.UnifiedMSHRs = -1 },
		func(c *Config) { *c = SecureMem(); c.Secure.MetaCacheBytes = 50_000_000 * 1024 },
		func(c *Config) { *c = SecureMem(); c.Secure.MetaCacheBytes = c.MaxMetaCacheBytes() + 128 },
		func(c *Config) {
			*c = SecureMem()
			c.Secure.Unified = true
			c.Secure.UnifiedBytes = c.MaxMetaCacheBytes() + 128
		},
	}
	for i, mutate := range bad {
		cfg := Baseline()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: config accepted", i)
		}
	}
	for _, good := range []Config{Baseline(), Scattered(2), Scattered(8), SWCrypto(0), SWCrypto(320)} {
		if err := good.Validate(); err != nil {
			t.Fatalf("%s rejected: %v", good.Secure.Encryption, err)
		}
	}
}

// TestSetMetaCacheKB: the KB-to-bytes conversion the CLI and daemon
// share must reject sizes past the cap before multiplying, or a huge
// kb wraps around to a small size that Validate would accept.
func TestSetMetaCacheKB(t *testing.T) {
	cfg := SecureMem()
	max := cfg.MaxMetaCacheBytes() / 1024
	if max < 64 {
		t.Fatalf("MaxMetaCacheBytes = %d KB, below the paper's 64 KB sweep point", max)
	}
	for _, kb := range []int{0, -1, max + 1, 50_000_000, 18014398509481985} {
		c := cfg
		if err := c.SetMetaCacheKB(kb); err == nil {
			t.Errorf("SetMetaCacheKB(%d) accepted, MetaCacheBytes = %d", kb, c.Secure.MetaCacheBytes)
		}
	}
	if err := cfg.SetMetaCacheKB(4); err != nil || cfg.Secure.MetaCacheBytes != 4096 {
		t.Fatalf("SetMetaCacheKB(4) = %v, MetaCacheBytes = %d", err, cfg.Secure.MetaCacheBytes)
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	_, err := Run(Baseline(), "nonexistent")
	if err == nil {
		t.Fatal("want error for unknown benchmark")
	}
	if !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestDeterminism: identical configurations produce bit-identical
// results — required for the memoizing experiment harness.
func TestDeterminism(t *testing.T) {
	a := runFor(t, SecureMem(), "fdtd2d")
	b := runFor(t, SecureMem(), "fdtd2d")
	if a.Instructions != b.Instructions || a.Cycles != b.Cycles {
		t.Fatalf("IPC differs: %d/%d vs %d/%d", a.Instructions, a.Cycles, b.Instructions, b.Cycles)
	}
	if a.RequestsByKind != b.RequestsByKind {
		t.Fatalf("traffic differs: %v vs %v", a.RequestsByKind, b.RequestsByKind)
	}
}

// TestBaselineNoMetadataTraffic: the insecure baseline must not touch
// counters, MACs, or the tree.
func TestBaselineNoMetadataTraffic(t *testing.T) {
	r := runFor(t, Baseline(), "fdtd2d")
	for k := KindCounter; k <= KindWB; k++ {
		if r.RequestsByKind[k] != 0 {
			t.Errorf("baseline produced %s traffic: %d", k, r.RequestsByKind[k])
		}
	}
	if r.RequestsByKind[KindData] == 0 {
		t.Error("no data traffic at all")
	}
}

// TestBaselineClasses: one representative workload per Table IV class
// lands in its class.
func TestBaselineClasses(t *testing.T) {
	cases := []struct {
		bench  string
		lo, hi float64
	}{
		{"heartwall", 0, 0.20},
		{"cfd", 0.15, 0.55},
		{"fdtd2d", 0.50, 1.05},
	}
	for _, tc := range cases {
		r := runFor(t, Baseline(), tc.bench)
		bw := r.BandwidthUtilization()
		if bw < tc.lo || bw > tc.hi {
			t.Errorf("%s: bandwidth %.2f outside [%.2f, %.2f]", tc.bench, bw, tc.lo, tc.hi)
		}
	}
}

// TestSecureMemGeneratesMetadataTraffic: counter-mode + MAC + BMT
// produces all four metadata kinds for a streaming workload.
func TestSecureMemGeneratesMetadataTraffic(t *testing.T) {
	r := runFor(t, SecureMem(), "lbm")
	if r.RequestsByKind[KindCounter] == 0 {
		t.Error("no counter traffic")
	}
	if r.RequestsByKind[KindMAC] == 0 {
		t.Error("no MAC traffic")
	}
	if r.RequestsByKind[KindTree] == 0 {
		t.Error("no tree traffic")
	}
}

// TestPerfectMetaCachesRecoverBaseline is the paper's Fig 3 diagnosis:
// with ideal metadata caches the secure GPU is close to the baseline,
// proving metadata *traffic* (not crypto latency) is the bottleneck.
func TestPerfectMetaCachesRecoverBaseline(t *testing.T) {
	base := runFor(t, Baseline(), "fdtd2d")
	perf := SecureMem()
	perf.Secure.PerfectMeta = true
	r := runFor(t, perf, "fdtd2d")
	if n := r.NormalizedIPC(base); n < 0.9 {
		t.Fatalf("perfect metadata caches: normalized IPC %.3f, want >= 0.9", n)
	}
	for k := KindCounter; k <= KindWB; k++ {
		if r.RequestsByKind[k] != 0 {
			t.Errorf("perfect caches still produced %s traffic", k)
		}
	}
}

// TestZeroCryptoDoesNotHelp: zero-latency AES/MAC barely changes
// secureMem performance (Fig 3's other half).
func TestZeroCryptoDoesNotHelp(t *testing.T) {
	base := runFor(t, Baseline(), "fdtd2d")
	sec := SecureMem()
	sec.Secure.MetaMSHRs = 0
	zc := sec
	zc.Secure.AESLatency = 0
	zc.Secure.MACLatency = 0
	n1 := runFor(t, sec, "fdtd2d").NormalizedIPC(base)
	n2 := runFor(t, zc, "fdtd2d").NormalizedIPC(base)
	if n2 > n1+0.1 {
		t.Fatalf("zero crypto recovered too much: %.3f vs %.3f", n2, n1)
	}
}

// TestMSHRsFilterRedundantTraffic: MSHRs on metadata caches cut
// counter traffic and improve IPC (Fig 6).
func TestMSHRsFilterRedundantTraffic(t *testing.T) {
	noMSHR := SecureMem()
	noMSHR.Secure.MetaMSHRs = 0
	with := SecureMem()
	r0 := runFor(t, noMSHR, "streamcluster")
	r64 := runFor(t, with, "streamcluster")
	if r64.RequestsByKind[KindCounter] >= r0.RequestsByKind[KindCounter] {
		t.Fatalf("MSHRs did not reduce counter traffic: %d vs %d",
			r64.RequestsByKind[KindCounter], r0.RequestsByKind[KindCounter])
	}
	if r64.IPC() <= r0.IPC() {
		t.Fatalf("MSHRs did not improve IPC: %.1f vs %.1f", r64.IPC(), r0.IPC())
	}
}

// TestSecondaryMissesDominate is Fig 5: with the sectored L2 and
// streaming accesses, most metadata misses are secondary.
func TestSecondaryMissesDominate(t *testing.T) {
	cfg := SecureMem()
	cfg.Secure.MetaMSHRs = 0
	r := runFor(t, cfg, "streamcluster")
	if sr := r.Meta[MetaCounter].SecondaryRatio(); sr < 0.5 {
		t.Errorf("counter secondary ratio %.2f, want > 0.5", sr)
	}
	if sr := r.Meta[MetaMAC].SecondaryRatio(); sr < 0.5 {
		t.Errorf("MAC secondary ratio %.2f, want > 0.5", sr)
	}
}

// TestSectoredL2CausesSecondaryMisses is the Section V-B mechanism: a
// non-sectored L2 (whole-line fetches) produces far fewer secondary
// metadata misses.
func TestSectoredL2CausesSecondaryMisses(t *testing.T) {
	sec := SecureMem()
	sec.Secure.MetaMSHRs = 0
	nonsec := sec
	nonsec.SectoredL2 = false
	rs := runFor(t, sec, "streamcluster")
	rn := runFor(t, nonsec, "streamcluster")
	if rn.Meta[MetaCounter].SecondaryRatio() >= rs.Meta[MetaCounter].SecondaryRatio() {
		t.Fatalf("non-sectored L2 should reduce secondary misses: %.2f vs %.2f",
			rn.Meta[MetaCounter].SecondaryRatio(), rs.Meta[MetaCounter].SecondaryRatio())
	}
}

// TestBiggerMetaCachesHelp is Fig 7's direction: 64KB metadata caches
// beat 2KB ones.
func TestBiggerMetaCachesHelp(t *testing.T) {
	small := SecureMem()
	big := SecureMem()
	big.Secure.MetaCacheBytes = 64 * 1024
	rs := runFor(t, small, "lbm")
	rb := runFor(t, big, "lbm")
	if rb.IPC() <= rs.IPC() {
		t.Fatalf("64KB caches not better than 2KB: %.1f vs %.1f", rb.IPC(), rs.IPC())
	}
}

// TestDirectEncryptionNearFree is Fig 15: with 40-cycle latency and
// no integrity metadata, direct encryption costs almost nothing on a
// latency-tolerant workload.
func TestDirectEncryptionNearFree(t *testing.T) {
	base := runFor(t, Baseline(), "srad_v2")
	r := runFor(t, DirectMem(40, false, false), "srad_v2")
	if n := r.NormalizedIPC(base); n < 0.9 {
		t.Fatalf("direct_40 normalized IPC %.3f, want >= 0.9", n)
	}
}

// TestDirectLatencySensitivityOrder: higher AES latency cannot help,
// and nw (tiny kernel) suffers more than a well-occupied workload.
func TestDirectLatencySensitivityOrder(t *testing.T) {
	base := runFor(t, Baseline(), "nw")
	n40 := runFor(t, DirectMem(40, false, false), "nw").NormalizedIPC(base)
	n160 := runFor(t, DirectMem(160, false, false), "nw").NormalizedIPC(base)
	if n160 > n40+0.02 {
		t.Fatalf("latency 160 beat latency 40: %.3f vs %.3f", n160, n40)
	}
	baseS := runFor(t, Baseline(), "srad_v2")
	s160 := runFor(t, DirectMem(160, false, false), "srad_v2").NormalizedIPC(baseS)
	if s160+0.02 < n160 {
		t.Fatalf("well-occupied workload should tolerate latency at least as well: srad %.3f vs nw %.3f", s160, n160)
	}
}

// TestDirectBeatsCounterMode is Fig 16: for encryption-only designs on
// a memory-intensive workload, direct encryption outperforms counter
// mode (counter traffic is pure overhead).
func TestDirectBeatsCounterMode(t *testing.T) {
	base := runFor(t, Baseline(), "lbm")
	direct := runFor(t, DirectMem(40, false, false), "lbm").NormalizedIPC(base)
	ctr := SecureMem()
	ctr.Secure.MAC = false
	ctr.Secure.Tree = false
	counter := runFor(t, ctr, "lbm").NormalizedIPC(base)
	if direct <= counter {
		t.Fatalf("direct (%.3f) should beat counter mode (%.3f) on lbm", direct, counter)
	}
}

// TestBMTAddsOverheadToCounterMode: protecting counters with the BMT
// costs additional performance (Fig 16's ctr vs ctr_bmt).
func TestBMTAddsOverheadToCounterMode(t *testing.T) {
	base := runFor(t, Baseline(), "fdtd2d")
	ctr := SecureMem()
	ctr.Secure.MAC = false
	ctr.Secure.Tree = false
	ctrBMT := SecureMem()
	ctrBMT.Secure.MAC = false
	nc := runFor(t, ctr, "fdtd2d").NormalizedIPC(base)
	nb := runFor(t, ctrBMT, "fdtd2d").NormalizedIPC(base)
	if nb > nc+0.02 {
		t.Fatalf("ctr_bmt (%.3f) should not beat ctr (%.3f)", nb, nc)
	}
}

// TestOneAESEngineSuffices is Fig 12: halving AES throughput changes
// performance only marginally.
func TestOneAESEngineSuffices(t *testing.T) {
	two := runFor(t, SecureMem(), "srad_v2")
	one := SecureMem()
	one.Secure.AESEngines = 1
	r1 := runFor(t, one, "srad_v2")
	ratio := r1.IPC() / two.IPC()
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("1 vs 2 engines ratio %.3f, want ~1", ratio)
	}
}

// TestUnifiedVsSeparate is Fig 8: the unified cache must not beat
// separate caches on a streaming workload, and its per-type miss rates
// must not improve (Fig 9).
func TestUnifiedVsSeparate(t *testing.T) {
	sep := runFor(t, SecureMem(), "lbm")
	uni := SecureMem()
	uni.Secure.Unified = true
	ru := runFor(t, uni, "lbm")
	if ru.IPC() > sep.IPC()*1.05 {
		t.Fatalf("unified (%.1f) significantly beat separate (%.1f)", ru.IPC(), sep.IPC())
	}
}

// TestReuseProfiling is Figs 10/11: fdtd2d counter and MAC accesses
// are dominated by reuse distance 0.
func TestReuseProfiling(t *testing.T) {
	cfg := SecureMem()
	cfg.ProfileReuse = true
	r := runFor(t, cfg, "fdtd2d")
	if r.CounterReuse == nil || r.MACReuse == nil {
		t.Fatal("profilers missing")
	}
	cf := r.CounterReuse.Fractions()
	if cf[0] < 0.5 {
		t.Errorf("counter reuse distance 0 fraction %.2f, want > 0.5", cf[0])
	}
	mf := r.MACReuse.Fractions()
	if mf[0] < 0.5 {
		t.Errorf("MAC reuse distance 0 fraction %.2f, want > 0.5", mf[0])
	}
}

// TestProfilingOffByDefault: no profiler allocations unless asked.
func TestProfilingOffByDefault(t *testing.T) {
	r := runFor(t, SecureMem(), "fdtd2d")
	if r.CounterReuse != nil || r.MACReuse != nil {
		t.Fatal("profilers active without ProfileReuse")
	}
}

// TestBandwidthNeverExceedsPeakMuch: accounting sanity (issue-time
// counting may overshoot the last partial transfer only slightly).
func TestBandwidthNeverExceedsPeakMuch(t *testing.T) {
	for _, b := range []string{"fdtd2d", "lbm", "streamcluster"} {
		r := runFor(t, Baseline(), b)
		if bw := r.BandwidthUtilization(); bw > 1.06 {
			t.Errorf("%s: bandwidth %.3f exceeds peak", b, bw)
		}
	}
}

// TestRequestSharesSumToOne: the Fig 4 breakdown is a partition of all
// DRAM requests.
func TestRequestSharesSumToOne(t *testing.T) {
	r := runFor(t, SecureMem(), "lbm")
	sum := 0.0
	for k := KindData; k <= KindWB; k++ {
		sum += r.RequestShare(k)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("request shares sum to %.4f", sum)
	}
}

// TestSmallKernelUsesFewSMs: nw's ActiveSMs cap is honoured.
func TestSmallKernelUsesFewSMs(t *testing.T) {
	cfg := Baseline()
	cfg.MaxCycles = 2000
	gen := trace.MustNew("nw")
	g, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.sms) != gen.ActiveSMs() {
		t.Fatalf("nw uses %d SMs, want %d", len(g.sms), gen.ActiveSMs())
	}
}

// TestWarpOverride: Config.WarpOverride replaces the generator's warp
// count.
func TestWarpOverride(t *testing.T) {
	cfg := Baseline()
	cfg.MaxCycles = 2000
	cfg.WarpOverride = 3
	g, err := New(cfg, trace.MustNew("fdtd2d"))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.gen.WarpsPerSM(); got != 3 {
		t.Fatalf("warp override = %d, want 3", got)
	}
}

// TestPartitionLocalAddressing: the global->partition mapping is a
// bijection on 256-byte chunks.
func TestPartitionLocalAddressing(t *testing.T) {
	cfg := Baseline()
	cfg.MaxCycles = 1000
	g, err := New(cfg, trace.MustNew("fdtd2d"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]uint64]uint64{}
	for addr := uint64(0); addr < 1<<20; addr += 4096 + 256 {
		part, local := g.partitionOf(addr)
		key := [2]uint64{uint64(part), local}
		if prev, dup := seen[key]; dup {
			t.Fatalf("addresses %#x and %#x collide at partition %d local %#x", prev, addr, part, local)
		}
		seen[key] = addr
		if part < 0 || part >= cfg.NumPartitions {
			t.Fatalf("partition %d out of range", part)
		}
	}
}

// TestWritesReachDRAM: a write-heavy workload produces DRAM write
// traffic through L2 evictions.
func TestWritesReachDRAM(t *testing.T) {
	r := runFor(t, Baseline(), "lbm")
	if r.BytesByKind[KindData] == 0 {
		t.Fatal("no data bytes at all")
	}
	g, err := New(Baseline(), trace.MustNew("lbm"))
	if err != nil {
		t.Fatal(err)
	}
	g.cfg.MaxCycles = testCycles
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.L2.Writebacks == 0 {
		t.Fatal("lbm produced no L2 writebacks")
	}
}

// TestMetaWritebacksAppear: with MSHRs (so the DRAM queue drains),
// write-heavy workloads generate metadata writeback traffic.
func TestMetaWritebacksAppear(t *testing.T) {
	r := runFor(t, SecureMem(), "lbm")
	if r.RequestsByKind[KindWB] == 0 {
		t.Fatal("no metadata writebacks for lbm")
	}
}

// TestEncryptionLatencyHiddenInCounterMode: raising AES latency from
// 40 to 160 changes counter-mode performance much less than it changes
// direct encryption on a latency-sensitive workload (the paper's core
// counter-mode property).
func TestEncryptionLatencyHiddenInCounterMode(t *testing.T) {
	// Perfect metadata caches isolate the latency question: the
	// counter is always on-chip, so the OTP can overlap the data fetch.
	mk := func(enc EncryptionKind, lat int) float64 {
		var cfg Config
		if enc == EncCounter {
			cfg = SecureMem()
			cfg.Secure.MAC = false
			cfg.Secure.Tree = false
			cfg.Secure.PerfectMeta = true
		} else {
			cfg = DirectMem(lat, false, false)
		}
		cfg.Secure.AESLatency = lat
		return runFor(t, cfg, "nw").IPC()
	}
	// At the default 40-cycle latency the OTP hides entirely behind
	// the DRAM fetch; at 160 cycles it exceeds the unloaded DRAM
	// latency and is only partially hidden, but counter mode must
	// still lose strictly less than direct encryption, which exposes
	// the full latency.
	if c0, c40 := mk(EncCounter, 0), mk(EncCounter, 40); c0-c40 > 0.5 {
		t.Fatalf("40-cycle AES not hidden in counter mode: %.2f -> %.2f IPC", c0, c40)
	}
	ctrDrop := mk(EncCounter, 0) - mk(EncCounter, 160)
	dirDrop := mk(EncDirect, 0) - mk(EncDirect, 160)
	if ctrDrop >= dirDrop {
		t.Fatalf("counter mode should hide AES latency better: lost %.2f IPC vs direct's %.2f", ctrDrop, dirDrop)
	}
}

// TestSelectiveEncryptionScales: shrinking the protected fraction
// monotonically reduces metadata traffic and recovers performance;
// fraction 0 behaves like the baseline plus idle engines.
func TestSelectiveEncryptionScales(t *testing.T) {
	base := runFor(t, Baseline(), "fdtd2d")
	mk := func(frac float64) *Result {
		cfg := SecureMem()
		cfg.Secure.ProtectedFraction = frac
		return runFor(t, cfg, "fdtd2d")
	}
	full := mk(1.0)
	half := mk(0.5)
	none := mk(0.0)
	if !(none.IPC() >= half.IPC() && half.IPC() >= full.IPC()) {
		t.Fatalf("IPC not monotone in coverage: %.1f / %.1f / %.1f",
			full.IPC(), half.IPC(), none.IPC())
	}
	meta := func(r *Result) uint64 {
		return r.RequestsByKind[KindCounter] + r.RequestsByKind[KindMAC] + r.RequestsByKind[KindTree]
	}
	if !(meta(none) == 0 && meta(half) < meta(full)) {
		t.Fatalf("metadata traffic not monotone: %d / %d / %d", meta(full), meta(half), meta(none))
	}
	if n := none.NormalizedIPC(base); n < 0.95 {
		t.Fatalf("0%% coverage should match baseline: %.3f", n)
	}
}

// TestSelectiveValidation: out-of-range fractions are rejected.
func TestSelectiveValidation(t *testing.T) {
	cfg := SecureMem()
	cfg.Secure.ProtectedFraction = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("fraction 1.5 accepted")
	}
	cfg.Secure.ProtectedFraction = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("fraction -0.1 accepted")
	}
}
