package cache

import "testing"

func policyCfg(p Policy) Config {
	return Config{
		Name: "p", SizeBytes: 1024, LineSize: 128, Assoc: 8, // one set of 8
		NumMSHRs: 16, AllocOnFill: true, Policy: p,
	}
}

func fillLine(c *Cache, addr uint64) {
	r := c.Access(addr, false, addr)
	if r.NeedFetch {
		c.Fill(addr, r.Bypass, false)
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyLRU: "lru", PolicySRRIP: "srrip", PolicyBRRIP: "brrip", PolicyDIP: "dip",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %s", p, p.String())
		}
	}
}

// TestLRUThrashesOnStream: a cyclic working set one line larger than
// the cache misses every access under LRU (the Section V-D thrashing
// behaviour).
func TestLRUThrashesOnStream(t *testing.T) {
	c := New(policyCfg(PolicyLRU))
	// 9 lines cycling through an 8-way set.
	for pass := 0; pass < 5; pass++ {
		for i := uint64(0); i < 9; i++ {
			fillLine(c, i*1024) // same set (1 set total)
		}
	}
	if c.Stats.Hits != 0 {
		t.Fatalf("LRU hit %d times on a thrashing cycle", c.Stats.Hits)
	}
}

// TestBRRIPResistsThrashing: the same cyclic pattern gets hits under
// BRRIP because most insertions are predicted distant and evicted
// without displacing the protected subset.
func TestBRRIPResistsThrashing(t *testing.T) {
	c := New(policyCfg(PolicyBRRIP))
	for pass := 0; pass < 20; pass++ {
		for i := uint64(0); i < 12; i++ {
			fillLine(c, i*1024)
		}
	}
	if c.Stats.Hits == 0 {
		t.Fatal("BRRIP got no hits on a thrashing cycle")
	}
}

// TestSRRIPKeepsReusedLines: a hot line accessed between streaming
// fills stays resident under SRRIP.
func TestSRRIPKeepsReusedLines(t *testing.T) {
	c := New(policyCfg(PolicySRRIP))
	fillLine(c, 0) // hot line
	hits := uint64(0)
	for i := uint64(1); i <= 100; i++ {
		fillLine(c, i*1024) // stream
		r := c.Access(0, false, 1)
		if r.Outcome == Hit {
			hits++
		} else if r.NeedFetch {
			c.Fill(0, r.Bypass, false)
		}
	}
	if hits < 90 {
		t.Fatalf("hot line survived only %d/100 rounds under SRRIP", hits)
	}
}

// TestDIPFollowsWinner: under a pure thrashing workload DIP's
// follower sets should converge to the BRRIP side (PSEL grows as SRRIP
// leader sets miss).
func TestDIPFollowsWinner(t *testing.T) {
	cfg := Config{
		Name: "dip", SizeBytes: 64 * 1024, LineSize: 128, Assoc: 8,
		NumMSHRs: 512, MergeCap: 0, AllocOnFill: true, Policy: PolicyDIP,
	}
	c := New(cfg)
	// Thrash every set: 3x capacity, cycled.
	lines := uint64(3 * 64 * 1024 / 128)
	for pass := 0; pass < 40; pass++ {
		for i := uint64(0); i < lines; i++ {
			fillLine(c, i*128)
		}
	}
	if c.psel <= pselMax/2 {
		t.Fatalf("PSEL = %d, want BRRIP side (> %d) under thrashing", c.psel, pselMax/2)
	}
}

// TestRRIPAgingTerminates: pickVictim must terminate even when every
// way is near (ages until one becomes distant).
func TestRRIPAgingTerminates(t *testing.T) {
	c := New(policyCfg(PolicySRRIP))
	set := c.set(0)
	for i := range set {
		set[i].valid = true
		set[i].tag = uint64(i * 1024)
		set[i].rrpv = rrpvNear
	}
	v := c.pickVictim(set)
	if v < 0 || v >= len(set) {
		t.Fatalf("victim %d", v)
	}
}

// TestPolicyCorrectnessUnchanged: replacement policy affects
// performance only; a write-read sequence still behaves correctly.
func TestPolicyCorrectnessUnchanged(t *testing.T) {
	for _, p := range []Policy{PolicyLRU, PolicySRRIP, PolicyBRRIP, PolicyDIP} {
		c := New(policyCfg(p))
		c.Access(0x80, true, 1)
		c.Fill(0x80, false, false)
		if r := c.Access(0x80, false, 2); r.Outcome != Hit {
			t.Errorf("%v: no hit after fill", p)
		}
		if !c.Present(0x80) {
			t.Errorf("%v: line not present", p)
		}
	}
}

// TestRoleAssignment: DIP leader sets appear at the documented stride.
func TestRoleAssignment(t *testing.T) {
	cfg := Config{
		Name: "dip", SizeBytes: 64 * 1024, LineSize: 128, Assoc: 8,
		NumMSHRs: 16, AllocOnFill: true, Policy: PolicyDIP,
	}
	c := New(cfg)
	if c.roleOf(0) != roleSRRIP {
		t.Error("set 0 should lead SRRIP")
	}
	if c.roleOf(duelingStride/2) != roleBRRIP {
		t.Error("set 8 should lead BRRIP")
	}
	if c.roleOf(1) != roleFollower {
		t.Error("set 1 should follow")
	}
	// Non-DIP caches have no leaders.
	c2 := New(policyCfg(PolicySRRIP))
	if c2.roleOf(0) != roleFollower {
		t.Error("SRRIP cache should have no leader sets")
	}
}
