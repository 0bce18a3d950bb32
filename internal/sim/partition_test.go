package sim

import (
	"testing"

	"gpusecmem/internal/cache"
	"gpusecmem/internal/geometry"
	"gpusecmem/internal/smcore"
	"gpusecmem/internal/trace"
)

// nullGen is an idle workload for partition-level unit tests.
type nullGen struct{}

func (nullGen) Name() string    { return "null" }
func (nullGen) WarpsPerSM() int { return 1 }
func (nullGen) ActiveSMs() int  { return 1 }
func (nullGen) Next(sm, warp, iter int) smcore.WarpOp {
	return smcore.WarpOp{ComputeInstrs: 1, ComputeSpacing: 1, ActiveLanes: 1}
}

func newTestPartition(t *testing.T, mutate func(*Config)) *partition {
	t.Helper()
	cfg := SecureMem()
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg, nullGen{})
	if err != nil {
		t.Fatal(err)
	}
	return g.parts[0]
}

// drain advances the partition until its DRAM queue and replies are
// empty (bounded).
func drain(t *testing.T, p *partition, from, limit uint64) uint64 {
	t.Helper()
	now := from
	for ; now < from+limit; now++ {
		p.tick(now)
		if p.dram.Drained() && p.replies.Len() == 0 {
			return now
		}
	}
	t.Fatalf("partition did not drain within %d cycles", limit)
	return now
}

func TestPartitionReadCriticalPath(t *testing.T) {
	p := newTestPartition(t, nil)
	// Prime the L2 bank with a miss for sector 0.
	p.handleL2Read(0, 0, 777, 1)
	if p.reads.len() != 1 {
		t.Fatalf("reads = %d", p.reads.len())
	}
	// Data + counter line + MAC line fetches are enqueued; the tree
	// walk only starts when the counter fill returns.
	if got := p.dram.InFlight(); got != 3 {
		t.Fatalf("DRAM requests = %d, want 3 (data, ctr, mac)", got)
	}
	drain(t, p, 2, 5000)
	if p.reads.len() != 0 {
		t.Fatal("read state not retired")
	}
	// Counter and MAC lines are now cached; a second read of the next
	// sector only fetches data.
	before := p.dram.Stats.Reads
	p.handleL2Read(32, 32, 778, 6000)
	if got := p.dram.InFlight(); got != 1 {
		t.Fatalf("second read enqueued %d requests, want 1 (data only)", got)
	}
	drain(t, p, 6001, 5000)
	if p.dram.Stats.Reads != before+1 {
		t.Fatalf("extra metadata fetches on warm read")
	}
}

func TestPartitionCounterHitShortensPath(t *testing.T) {
	p := newTestPartition(t, func(c *Config) { c.Secure.PerfectMeta = true })
	p.handleL2Read(0, 0, 1, 1)
	// Perfect metadata: only the data fetch goes to DRAM.
	if got := p.dram.InFlight(); got != 1 {
		t.Fatalf("DRAM requests = %d, want 1", got)
	}
}

// TestPartitionVerifyWalkStopsAtCachedLevel: the first counter fill
// walks the tree; once the walked nodes are cached, the next counter
// fill from the same subtree stops immediately.
func TestPartitionVerifyWalkStopsAtCachedLevel(t *testing.T) {
	p := newTestPartition(t, nil)
	p.handleL2Read(0, 0, 1, 1)
	drain(t, p, 2, 8000)
	treeReqs := kindReqs(p, KindTree)
	if treeReqs == 0 {
		t.Fatal("no tree fetches from the first counter fill")
	}
	// A read covered by a *different* counter line in the same lowest
	// tree node (counter lines 0..15 share a parent): its walk hits.
	addr := uint64(geometry.CounterCoverage) // counter line 1
	p.handleL2Read(addr, addr, 2, 9000)
	drain(t, p, 9001, 8000)
	if got := kindReqs(p, KindTree); got != treeReqs {
		t.Fatalf("second walk fetched %d more tree nodes, want 0", got-treeReqs)
	}
}

// TestPartitionWritePathRMWAndWriteback: a dirty L2 data eviction
// fetches the counter and MAC lines (RMW), dirties them, and their
// later eviction produces wb traffic plus a lazy parent update.
func kindReqs(p *partition, k TrafficKind) uint64 {
	if int(k) >= len(p.dram.Stats.RequestsByKind) {
		return 0
	}
	return p.dram.Stats.RequestsByKind[int(k)]
}

func TestPartitionWritePathRMWAndWriteback(t *testing.T) {
	p := newTestPartition(t, nil)
	p.handleDataWriteback(&cache.Eviction{LineAddr: 0, DirtyBytes: 128}, 1)
	drain(t, p, 2, 8000)
	if got := kindReqs(p, KindData); got != 1 {
		t.Fatalf("data writes = %d", got)
	}
	// Thrash the counter cache (16 lines) so line 0 evicts dirty.
	for i := uint64(1); i <= 40; i++ {
		p.handleDataWriteback(&cache.Eviction{LineAddr: i * geometry.CounterCoverage, DirtyBytes: 128}, 8000+i)
	}
	drain(t, p, 8100, 30000)
	if got := kindReqs(p, KindWB); got == 0 {
		t.Fatal("no metadata writebacks after counter-cache thrash")
	}
	// Lazy update touched the tree.
	if p.metaStats[MetaTree].Accesses == 0 {
		t.Fatal("no lazy parent updates")
	}
}

// TestPartitionUnifiedAliasing: with a unified cache the three
// metadata pointers alias one cache instance and per-type stats are
// still tracked separately.
func TestPartitionUnifiedAliasing(t *testing.T) {
	p := newTestPartition(t, func(c *Config) { c.Secure.Unified = true })
	if p.ctr != p.mac || p.mac != p.tree {
		t.Fatal("unified caches do not alias")
	}
	p.handleL2Read(0, 0, 1, 1)
	if p.metaStats[MetaCounter].Accesses != 1 || p.metaStats[MetaMAC].Accesses != 1 {
		t.Fatalf("per-type stats not tracked: %+v %+v",
			p.metaStats[MetaCounter], p.metaStats[MetaMAC])
	}
}

// TestPartitionDirectModeNoCounters: EncDirect allocates no counter
// cache and a read issues only data + MAC fetches.
func TestPartitionDirectModeNoCounters(t *testing.T) {
	cfg := DirectMem(40, true, true)
	g, err := New(cfg, nullGen{})
	if err != nil {
		t.Fatal(err)
	}
	p := g.parts[0]
	if p.ctr != nil {
		t.Fatal("direct mode allocated a counter cache")
	}
	p.handleL2Read(0, 0, 1, 1)
	if got := p.dram.InFlight(); got != 2 {
		t.Fatalf("DRAM requests = %d, want 2 (data, mac)", got)
	}
	drain(t, p, 2, 8000)
	// The MAC fill triggered an MT walk.
	if kindReqs(p, KindTree) == 0 {
		t.Fatal("no MT walk after MAC fill")
	}
}

// TestAESScheduleOccupancy: engine slots serialize at 8 thirds per
// sector and the latency is added on top.
func TestAESScheduleOccupancy(t *testing.T) {
	p := newTestPartition(t, func(c *Config) { c.Secure.AESEngines = 1 })
	r1 := p.aesSchedule(100)
	r2 := p.aesSchedule(100)
	r3 := p.aesSchedule(100)
	if r1 != 100+40 {
		t.Fatalf("first op ready at %d, want 140", r1)
	}
	if r2 <= r1 || r3 <= r2 {
		t.Fatalf("engine occupancy not serializing: %d %d %d", r1, r2, r3)
	}
	// 8 thirds apart = 2-3 cycles.
	if r3-r1 < 4 || r3-r1 > 7 {
		t.Fatalf("pipeline spacing off: %d..%d", r1, r3)
	}
}

func TestAESScheduleTwoEnginesParallel(t *testing.T) {
	p := newTestPartition(t, nil) // 2 engines
	r1 := p.aesSchedule(100)
	r2 := p.aesSchedule(100)
	if r1 != r2 {
		t.Fatalf("two engines should start together: %d vs %d", r1, r2)
	}
	r3 := p.aesSchedule(100)
	if r3 <= r1 {
		t.Fatal("third op should queue")
	}
}

func TestZeroCryptoSkipsEngines(t *testing.T) {
	p := newTestPartition(t, func(c *Config) {
		c.Secure.AESLatency = 0
		c.Secure.MACLatency = 0
	})
	if got := p.aesSchedule(123); got != 123 {
		t.Fatalf("zero-crypto AES ready at %d", got)
	}
	if got := p.macSchedule(321); got != 321 {
		t.Fatalf("zero-crypto MAC ready at %d", got)
	}
}

// TestSelectiveStriping: isProtected follows the 1MB/16-stripe rule.
func TestSelectiveStriping(t *testing.T) {
	p := newTestPartition(t, func(c *Config) { c.Secure.ProtectedFraction = 0.25 })
	if p.protectedStripes != 4 {
		t.Fatalf("stripes = %d", p.protectedStripes)
	}
	cases := []struct {
		addr uint64
		want bool
	}{
		{0, true},
		{3 << 20, true},
		{4 << 20, false},
		{15 << 20, false},
		{16 << 20, true}, // next period
		{20 << 20, false},
	}
	for _, tc := range cases {
		if got := p.isProtected(tc.addr); got != tc.want {
			t.Errorf("isProtected(%#x) = %v", tc.addr, got)
		}
	}
}

// TestPartitionStatsAccounting: metadata access counts equal the read
// plus write probes issued.
func TestPartitionStatsAccounting(t *testing.T) {
	p := newTestPartition(t, nil)
	for i := uint64(0); i < 10; i++ {
		p.handleL2Read(i*32, i*32, 100+i, 1+i)
	}
	if p.metaStats[MetaCounter].Accesses != 10 || p.metaStats[MetaMAC].Accesses != 10 {
		t.Fatalf("meta accesses: ctr=%d mac=%d", p.metaStats[MetaCounter].Accesses, p.metaStats[MetaMAC].Accesses)
	}
	// 10 sectors in one line region: 1 primary + 9 secondary for each
	// metadata type.
	if p.metaStats[MetaCounter].MissesPrimary != 1 || p.metaStats[MetaCounter].MissesSecondary != 9 {
		t.Fatalf("ctr misses: %+v", p.metaStats[MetaCounter])
	}
}

// TestGPUPartitionRouting: every global address routes to exactly one
// partition whose local address stays within the layout.
func TestGPUPartitionRouting(t *testing.T) {
	cfg := Baseline()
	cfg.MaxCycles = 100
	g, err := New(cfg, trace.MustNew("fdtd2d"))
	if err != nil {
		t.Fatal(err)
	}
	localLimit := cfg.ProtectedBytes / uint64(cfg.NumPartitions)
	for a := uint64(0); a < 1<<22; a += 4093 {
		part, local := g.partitionOf(a)
		if part < 0 || part >= cfg.NumPartitions {
			t.Fatalf("partition %d", part)
		}
		if local >= localLimit {
			t.Fatalf("local %#x beyond %#x", local, localLimit)
		}
	}
}
