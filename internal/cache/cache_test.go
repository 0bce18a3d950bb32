package cache

import (
	"math/rand"
	"testing"
	"unsafe"
)

func metaCfg(mshrs int) Config {
	return Config{
		Name: "meta", SizeBytes: 2048, LineSize: 128, Assoc: 8,
		Sectored: false, NumMSHRs: mshrs, MergeCap: 64, AllocOnFill: true,
	}
}

func l2Cfg() Config {
	return Config{
		Name: "L2", SizeBytes: 96 * 1024, LineSize: 128, Assoc: 16,
		Sectored: true, NumMSHRs: 64, MergeCap: 8, AllocOnFill: true,
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(metaCfg(64))
	r := c.Access(0x100, false, 1)
	if r.Outcome != MissPrimary || !r.NeedFetch || r.FetchBytes != 128 {
		t.Fatalf("cold access: %+v", r)
	}
	f := c.Fill(0x100, false, false)
	if len(f.Tokens) != 1 || f.Tokens[0] != 1 {
		t.Fatalf("fill tokens: %v", f.Tokens)
	}
	if r := c.Access(0x100, false, 2); r.Outcome != Hit {
		t.Fatalf("after fill: %v", r.Outcome)
	}
	// Another address in the same line also hits (non-sectored).
	if r := c.Access(0x17f, false, 3); r.Outcome != Hit {
		t.Fatalf("same line: %v", r.Outcome)
	}
}

// TestSecondaryMissMerges: with MSHRs, a second miss to an in-flight
// line merges and generates no traffic — the Figure 6 mechanism.
func TestSecondaryMissMerges(t *testing.T) {
	c := New(metaCfg(64))
	c.Access(0x100, false, 1)
	r := c.Access(0x100, false, 2)
	if r.Outcome != MissMerged || r.NeedFetch {
		t.Fatalf("secondary: %+v", r)
	}
	f := c.Fill(0x100, false, false)
	if len(f.Tokens) != 2 {
		t.Fatalf("fill should wake both: %v", f.Tokens)
	}
	if c.Stats.MissesSecondary != 1 || c.Stats.MissesPrimary != 1 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

// TestNoMSHRSecondaryBypasses: with MSHRs disabled every secondary
// miss refetches — redundant traffic, still classified secondary.
func TestNoMSHRSecondaryBypasses(t *testing.T) {
	c := New(metaCfg(0))
	r1 := c.Access(0x100, false, 1)
	if r1.Outcome != MissPrimary || !r1.NeedFetch {
		t.Fatalf("primary: %+v", r1)
	}
	r2 := c.Access(0x100, false, 2)
	if r2.Outcome != MissBypass || !r2.NeedFetch {
		t.Fatalf("secondary without MSHR: %+v", r2)
	}
	if c.Stats.MissesSecondary != 1 || c.Stats.MissesBypass != 1 {
		t.Fatalf("stats: %+v", c.Stats)
	}
	// Both fills arrive; first installs, second finds it present.
	c.Fill(0x100, true, false)
	c.Fill(0x100, true, false)
	if r := c.Access(0x100, false, 3); r.Outcome != Hit {
		t.Fatalf("after bypass fills: %v", r.Outcome)
	}
}

// TestMergeCapExhaustion: beyond MergeCap merged requests, further
// secondary misses bypass.
func TestMergeCapExhaustion(t *testing.T) {
	cfg := metaCfg(64)
	cfg.MergeCap = 2
	c := New(cfg)
	c.Access(0x100, false, 1)
	if r := c.Access(0x100, false, 2); r.Outcome != MissMerged {
		t.Fatalf("merge 1: %v", r.Outcome)
	}
	if r := c.Access(0x100, false, 3); r.Outcome != MissMerged {
		t.Fatalf("merge 2: %v", r.Outcome)
	}
	if r := c.Access(0x100, false, 4); r.Outcome != MissBypass {
		t.Fatalf("beyond cap: %v", r.Outcome)
	}
}

// TestMSHRExhaustion: when all entries are taken, new primary misses
// still fetch but cannot merge later requests.
func TestMSHRExhaustion(t *testing.T) {
	cfg := metaCfg(2)
	c := New(cfg)
	c.Access(0x0000, false, 1)
	c.Access(0x1000, false, 2)
	// Third distinct line: no MSHR left.
	if r := c.Access(0x2000, false, 3); r.Outcome != MissPrimary || !r.NeedFetch {
		t.Fatalf("3rd primary: %+v", r)
	}
	// Secondary to the unsheltered line bypasses.
	if r := c.Access(0x2000, false, 4); r.Outcome != MissBypass {
		t.Fatalf("unsheltered secondary: %v", r.Outcome)
	}
	// Fill of a tracked line frees its entry.
	c.Fill(0x0000, false, false)
	if r := c.Access(0x3000, false, 5); r.Outcome != MissPrimary {
		t.Fatalf("after free: %v", r.Outcome)
	}
	if c.InFlight(0x3000) != true {
		t.Fatal("expected MSHR tracking after free")
	}
}

func TestSectoredDistinctSectors(t *testing.T) {
	c := New(l2Cfg())
	// Four sectors of one line are four distinct fetch units.
	for s := uint64(0); s < 4; s++ {
		r := c.Access(s*32, false, s)
		if r.Outcome != MissPrimary || r.FetchBytes != 32 {
			t.Fatalf("sector %d: %+v", s, r)
		}
	}
	if c.Stats.MissesSecondary != 0 {
		t.Fatalf("distinct sectors misclassified: %+v", c.Stats)
	}
	// Fill sector 2 only: sector 2 hits, others still pending.
	c.Fill(64, false, false)
	if r := c.Access(64, false, 9); r.Outcome != Hit {
		t.Fatalf("sector 2 after fill: %v", r.Outcome)
	}
	if r := c.Access(0, false, 10); r.Outcome != MissMerged {
		t.Fatalf("sector 0 still pending: %v", r.Outcome)
	}
}

// TestSectoredSecondaryPattern reproduces the paper's Section V-B
// example: a streaming pattern {0x0,0x20,0x40,0x60} across a sectored
// L2 produces 4 misses that map to 1 primary + 3 secondary misses in
// the (non-sectored) metadata cache.
func TestSectoredSecondaryPattern(t *testing.T) {
	l2 := New(l2Cfg())
	meta := New(metaCfg(64))
	for i, a := range []uint64{0x00, 0x20, 0x40, 0x60} {
		r := l2.Access(a, false, uint64(i))
		if r.Outcome != MissPrimary {
			t.Fatalf("L2 %#x: %v", a, r.Outcome)
		}
		// Each L2 sector miss probes the metadata cache for the
		// same counter line.
		meta.Access(0x0, false, uint64(100+i))
	}
	if meta.Stats.MissesPrimary != 1 || meta.Stats.MissesSecondary != 3 {
		t.Fatalf("metadata stats: %+v", meta.Stats)
	}
	if got := meta.Stats.SecondaryRatio(); got != 0.75 {
		t.Fatalf("secondary ratio = %f", got)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	cfg := Config{Name: "tiny", SizeBytes: 256, LineSize: 128, Assoc: 1,
		Sectored: false, NumMSHRs: 4, AllocOnFill: true}
	c := New(cfg)
	// Two sets of 1 way each. Fill a line dirty, then evict it with a
	// conflicting line (same set: stride 256).
	c.Access(0x000, true, 1)
	c.Fill(0x000, false, false)
	if !c.Present(0x000) {
		t.Fatal("not installed")
	}
	c.Access(0x200, false, 2)
	f := c.Fill(0x200, false, false)
	if f.Writeback == nil || f.Writeback.LineAddr != 0x000 || f.Writeback.DirtyBytes != 128 {
		t.Fatalf("writeback: %+v", f.Writeback)
	}
	if c.Stats.Writebacks != 1 || c.Stats.Evictions != 1 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	cfg := Config{Name: "tiny", SizeBytes: 256, LineSize: 128, Assoc: 1,
		Sectored: false, NumMSHRs: 4, AllocOnFill: true}
	c := New(cfg)
	c.Access(0x000, false, 1)
	c.Fill(0x000, false, false)
	c.Access(0x200, false, 2)
	f := c.Fill(0x200, false, false)
	if f.Writeback != nil {
		t.Fatalf("clean eviction produced writeback: %+v", f.Writeback)
	}
	if c.Stats.Evictions != 1 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

// TestWriteMissMarksDirtyOnFill: a write that misses marks the line
// dirty when the fill arrives, so its eventual eviction writes back.
func TestWriteMissMarksDirtyOnFill(t *testing.T) {
	cfg := Config{Name: "tiny", SizeBytes: 256, LineSize: 128, Assoc: 1,
		Sectored: false, NumMSHRs: 4, AllocOnFill: true}
	c := New(cfg)
	c.Access(0x000, true, 1)
	c.Fill(0x000, false, false) // write flag recorded at access time
	c.Access(0x200, false, 2)
	f := c.Fill(0x200, false, false)
	if f.Writeback == nil {
		t.Fatal("dirty-on-fill lost")
	}
}

func TestSectoredPartialDirtyWriteback(t *testing.T) {
	cfg := Config{Name: "l2", SizeBytes: 512, LineSize: 128, Assoc: 1,
		Sectored: true, NumMSHRs: 8, AllocOnFill: true}
	c := New(cfg)
	// 4 sets. Dirty two sectors of line 0.
	c.Access(0x00, true, 1)
	c.Fill(0x00, false, false)
	c.Access(0x20, true, 2)
	c.Fill(0x20, false, false)
	// Conflict: same set at stride 512.
	c.Access(0x200, false, 3)
	f := c.Fill(0x200, false, false)
	if f.Writeback == nil || f.Writeback.DirtyBytes != 64 {
		t.Fatalf("partial dirty writeback: %+v", f.Writeback)
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := Config{Name: "lru", SizeBytes: 2 * 128, LineSize: 128, Assoc: 2,
		Sectored: false, NumMSHRs: 8, AllocOnFill: true}
	c := New(cfg)
	// One set, two ways. Install A then B; touch A; install C -> B evicted.
	fill := func(a uint64) {
		c.Access(a, false, a)
		c.Fill(a, false, false)
	}
	fill(0x000)
	fill(0x080)
	c.Access(0x000, false, 99) // A more recent than B
	fill(0x100)                // evicts LRU = B
	if !c.Present(0x000) {
		t.Fatal("LRU evicted the recently used line")
	}
	if c.Present(0x080) {
		t.Fatal("expected 0x080 evicted")
	}
}

func TestPerfectCache(t *testing.T) {
	c := New(Config{Name: "perf", LineSize: 128, Perfect: true})
	for i := uint64(0); i < 100; i++ {
		if r := c.Access(i*128, false, i); r.Outcome != Hit {
			t.Fatalf("perfect cache missed: %v", r.Outcome)
		}
	}
	if c.Stats.Misses() != 0 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestUnlimitedCacheOnlyColdMisses(t *testing.T) {
	c := New(Config{Name: "large", LineSize: 128, Unlimited: true, NumMSHRs: 64, AllocOnFill: true})
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < 1000; i++ {
			r := c.Access(i*128, false, i)
			if pass == 0 {
				if r.Outcome != MissPrimary {
					t.Fatalf("pass 0 line %d: %v", i, r.Outcome)
				}
				c.Fill(i*128, false, false)
			} else if r.Outcome != Hit {
				t.Fatalf("pass 1 line %d: %v", i, r.Outcome)
			}
		}
	}
	if c.Stats.Evictions != 0 {
		t.Fatal("unlimited cache evicted")
	}
}

// TestAllocOnMissEvictsEarly: with AllocOnFill=false, the dirty victim
// writeback happens at access time, not fill time.
func TestAllocOnMissEvictsEarly(t *testing.T) {
	cfg := Config{Name: "aom", SizeBytes: 256, LineSize: 128, Assoc: 1,
		Sectored: false, NumMSHRs: 4, AllocOnFill: false}
	c := New(cfg)
	c.Access(0x000, true, 1)
	c.Fill(0x000, false, false)
	r := c.Access(0x200, false, 2)
	if r.Writeback == nil || r.Writeback.LineAddr != 0x000 {
		t.Fatalf("alloc-on-miss did not evict at access: %+v", r)
	}
	f := c.Fill(0x200, false, false)
	if f.Writeback != nil {
		t.Fatal("double writeback")
	}
	if r := c.Access(0x200, false, 3); r.Outcome != Hit {
		t.Fatalf("after fill: %v", r.Outcome)
	}
}

func TestInFlight(t *testing.T) {
	c := New(metaCfg(8))
	if c.InFlight(0x100) {
		t.Fatal("idle line in flight")
	}
	c.Access(0x100, false, 1)
	if !c.InFlight(0x100) {
		t.Fatal("missed line not in flight")
	}
	c.Fill(0x100, false, false)
	if c.InFlight(0x100) {
		t.Fatal("filled line still in flight")
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Name: "a", LineSize: 0},
		{Name: "b", LineSize: 128, SizeBytes: 100, Assoc: 1},
		{Name: "c", LineSize: 128, SizeBytes: 1024, Assoc: 0},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

// TestStatsConsistency: accesses = hits + primary + secondary on a
// random workload, and fills retire every MSHR.
func TestStatsConsistency(t *testing.T) {
	c := New(metaCfg(16))
	rng := rand.New(rand.NewSource(11))
	pending := map[uint64][]bool{} // unit -> bypass flags
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(64)) * 128
		r := c.Access(addr, rng.Intn(4) == 0, uint64(i))
		if r.NeedFetch {
			pending[addr] = append(pending[addr], r.Outcome == MissBypass ||
				(r.Outcome == MissPrimary && !c.InFlight(addr)))
		}
		// Randomly complete some fetches.
		if rng.Intn(3) == 0 {
			for a, flags := range pending {
				if len(flags) == 0 {
					continue
				}
				c.Fill(a, flags[0], false)
				pending[a] = flags[1:]
				break
			}
		}
	}
	s := c.Stats
	if s.Accesses != s.Hits+s.MissesPrimary+s.MissesSecondary {
		t.Fatalf("access accounting broken: %+v", s)
	}
	if s.MissesBypass > s.MissesSecondary {
		t.Fatalf("bypass > secondary: %+v", s)
	}
}

// A way packs into 32 bytes, so two share a 64-byte cache line of the
// host's tag-array scans.
func TestWayPacks(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(way{}); n != 32 {
		t.Fatalf("way is %d bytes, want 32", n)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New(l2Cfg())
	for i := 0; i < b.N; i++ {
		addr := uint64(i%4096) * 32
		r := c.Access(addr, false, uint64(i))
		if r.NeedFetch {
			c.Fill(addr, r.Outcome == MissBypass, false)
		}
	}
}
