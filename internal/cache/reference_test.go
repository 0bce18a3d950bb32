package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"gpusecmem/internal/statecodec"
)

// refCache is the behavioural contract of Cache: a slow model written
// for reading, with no slabs, pools, masks or scratch. Every set is a
// list of ways in slot order (nil for a slot never filled) carrying its
// own lastUse clock stamp and 2-bit RRPV; the DIP selector and the
// BRRIP insertion count are plain counters; in-flight state lives in
// maps. TestCacheMatchesReference drives it and a Cache with the same
// operations and demands the same answers after every one.
type refCache struct {
	cfg   Config
	sets  [][]*refWay        // set-associative caches
	dir   map[uint64]*refWay // Unlimited and Perfect caches: no capacity
	clock uint64             // ticks once per non-Perfect Access, Fill and WriteValidate
	mshrs map[uint64]*refMSHR
	free  int // unused MSHR entries
	// bypass counts the fetches in flight for a unit that no MSHR
	// entry tracks.
	bypass map[refUnit]int
	psel   int    // DIP selector, 0..1023; followers use SRRIP up to 511
	brrip  uint64 // BRRIP insertions so far; every 32nd is "long"
	stats  Stats
}

type refWay struct {
	tag     uint64
	lastUse uint64
	rrpv    int // 0 near, 2 long, 3 distant
	valid   [SectorsPerLine]bool
	dirty   [SectorsPerLine]bool
}

type refMSHR struct {
	pending [SectorsPerLine]bool
	store   [SectorsPerLine]bool // a merged store: the fill installs dirty
	waiters [SectorsPerLine][]uint64
	merged  int // secondary misses merged into the entry, all sectors
}

type refUnit struct {
	line   uint64
	sector int
}

func newRefCache(cfg Config) *refCache {
	r := &refCache{
		cfg:    cfg,
		mshrs:  map[uint64]*refMSHR{},
		free:   cfg.NumMSHRs,
		bypass: map[refUnit]int{},
	}
	if cfg.Unlimited || cfg.Perfect {
		r.dir = map[uint64]*refWay{}
		return r
	}
	// The sets round down to a power of two and the remaining lines
	// fold into associativity.
	lines := cfg.SizeBytes / cfg.LineSize
	sets := max(lines/cfg.Assoc, 1)
	for sets&(sets-1) != 0 {
		sets--
	}
	r.sets = make([][]*refWay, sets)
	for i := range r.sets {
		r.sets[i] = make([]*refWay, lines/sets)
	}
	return r
}

// unit splits an address into its line and its sector (always 0 in a
// non-sectored cache).
func (r *refCache) unit(addr uint64) refUnit {
	line := addr - addr%uint64(r.cfg.LineSize)
	if !r.cfg.Sectored {
		return refUnit{line, 0}
	}
	return refUnit{line, int(addr%uint64(r.cfg.LineSize)) / (r.cfg.LineSize / SectorsPerLine)}
}

func (r *refCache) fetchBytes() int {
	if r.cfg.Sectored {
		return r.cfg.LineSize / SectorsPerLine
	}
	return r.cfg.LineSize
}

func (r *refCache) setIndex(line uint64) int {
	return int(line/uint64(r.cfg.LineSize)) % len(r.sets)
}

func (r *refCache) lookup(line uint64) *refWay {
	if r.dir != nil {
		return r.dir[line]
	}
	for _, w := range r.sets[r.setIndex(line)] {
		if w != nil && w.tag == line {
			return w
		}
	}
	return nil
}

// insertPolicy is the policy a set inserts under: DIP's leader sets
// (every 16th from set 0 for SRRIP, from set 8 for BRRIP) are fixed,
// its followers go with the selector.
func (r *refCache) insertPolicy(set int) Policy {
	if r.cfg.Policy != PolicyDIP {
		return r.cfg.Policy
	}
	switch {
	case set%16 == 0:
		return PolicySRRIP
	case set%16 == 8:
		return PolicyBRRIP
	case r.psel <= 511:
		return PolicySRRIP
	}
	return PolicyBRRIP
}

// victim is the slot a new line takes: the first empty one, else the
// least recently used way under LRU, else the first "distant" way,
// after aging the whole set as often as none is.
func (r *refCache) victim(set []*refWay) int {
	for i, w := range set {
		if w == nil {
			return i
		}
	}
	if r.cfg.Policy == PolicyLRU {
		oldest := 0
		for i, w := range set {
			if w.lastUse < set[oldest].lastUse {
				oldest = i
			}
		}
		return oldest
	}
	for {
		for i, w := range set {
			if w.rrpv == 3 {
				return i
			}
		}
		for _, w := range set {
			w.rrpv++
		}
	}
}

// claim gives line a way in its set, with no sector valid, and returns
// the evicted line's writeback if it had dirty sectors.
func (r *refCache) claim(line uint64) (*refWay, *Eviction) {
	s := r.setIndex(line)
	set := r.sets[s]
	i := r.victim(set)
	var wb *Eviction
	if old := set[i]; old != nil {
		r.stats.Evictions++
		dirty := 0
		for _, d := range old.dirty {
			if d {
				dirty++
			}
		}
		if dirty > 0 {
			r.stats.Writebacks++
			wb = &Eviction{LineAddr: old.tag, DirtyBytes: dirty * r.fetchBytes()}
		}
	}
	w := &refWay{tag: line, lastUse: r.clock, rrpv: 2}
	if r.insertPolicy(s) == PolicyBRRIP {
		r.brrip++
		if r.brrip%32 != 0 {
			w.rrpv = 3
		}
	}
	set[i] = w
	return w, wb
}

// install makes u valid (and dirty for a store), claiming a way for a
// line that has none.
func (r *refCache) install(u refUnit, store bool) *Eviction {
	w := r.lookup(u.line)
	var wb *Eviction
	switch {
	case w == nil && r.dir != nil:
		w = &refWay{tag: u.line}
		r.dir[u.line] = w
	case w == nil:
		w, wb = r.claim(u.line)
	}
	w.lastUse = r.clock
	w.valid[u.sector] = true
	if store {
		w.dirty[u.sector] = true
	}
	return wb
}

// hit serves a present unit: the way becomes most recent and, under
// the RRIP policies, "near".
func (r *refCache) hit(w *refWay, sector int, store bool) {
	w.lastUse = r.clock
	if r.cfg.Policy != PolicyLRU {
		w.rrpv = 0
	}
	if store {
		w.dirty[sector] = true
	}
	r.stats.Hits++
}

func (r *refCache) Access(addr uint64, store bool, token uint64) AccessResult {
	r.stats.Accesses++
	if r.cfg.Perfect {
		r.stats.Hits++
		return AccessResult{Outcome: Hit}
	}
	r.clock++
	u := r.unit(addr)
	w := r.lookup(u.line)
	if w != nil && w.valid[u.sector] {
		r.hit(w, u.sector, store)
		return AccessResult{Outcome: Hit}
	}
	// Every miss in a DIP leader set votes against the leader's policy.
	if r.dir == nil && r.cfg.Policy == PolicyDIP {
		switch r.setIndex(u.line) % 16 {
		case 0:
			r.psel = min(r.psel+1, 1023)
		case 8:
			r.psel = max(r.psel-1, 0)
		}
	}
	wait := func(e *refMSHR) {
		e.pending[u.sector] = true
		e.waiters[u.sector] = append(e.waiters[u.sector], token)
		if store {
			e.store[u.sector] = true
		}
	}
	fetch := AccessResult{NeedFetch: true, FetchBytes: r.fetchBytes()}
	bypass := func() AccessResult {
		r.stats.MissesSecondary++
		r.stats.MissesBypass++
		r.bypass[u]++
		fetch.Outcome, fetch.Bypass = MissBypass, true
		return fetch
	}
	e := r.mshrs[u.line]
	switch {
	case e != nil && e.pending[u.sector]:
		if !r.cfg.Unlimited && r.cfg.MergeCap > 0 && e.merged >= r.cfg.MergeCap {
			return bypass()
		}
		e.merged++
		wait(e)
		r.stats.MissesSecondary++
		return AccessResult{Outcome: MissMerged}
	case e != nil:
		// Another sector of a line in flight: the entry tracks it, and
		// it needs a fetch of its own.
		wait(e)
		r.stats.MissesPrimary++
		fetch.Outcome = MissPrimary
		return fetch
	case r.bypass[u] > 0:
		return bypass()
	}
	r.stats.MissesPrimary++
	fetch.Outcome = MissPrimary
	if !r.cfg.AllocOnFill && !r.cfg.Unlimited && w == nil {
		_, fetch.Writeback = r.claim(u.line)
	}
	switch {
	case r.cfg.Unlimited:
		e = &refMSHR{}
	case r.free > 0:
		r.free--
		e = &refMSHR{}
	default:
		r.bypass[u]++
		fetch.Bypass = true
		return fetch
	}
	r.mshrs[u.line] = e
	wait(e)
	return fetch
}

func (r *refCache) Fill(addr uint64, bypass, store bool) FillResult {
	r.stats.Fills++
	r.clock++
	u := r.unit(addr)
	var res FillResult
	if bypass {
		if r.bypass[u] > 0 {
			r.bypass[u]--
			if r.bypass[u] == 0 {
				delete(r.bypass, u)
			}
		}
	} else if e := r.mshrs[u.line]; e != nil && e.pending[u.sector] {
		res.Tokens = e.waiters[u.sector]
		store = store || e.store[u.sector]
		e.pending[u.sector], e.store[u.sector], e.waiters[u.sector] = false, false, nil
		if !slices.Contains(e.pending[:], true) {
			delete(r.mshrs, u.line)
			if !r.cfg.Unlimited {
				r.free++
			}
		}
	}
	res.Writeback = r.install(u, store)
	return res
}

func (r *refCache) WriteValidate(addr uint64) (*Eviction, bool) {
	r.stats.Accesses++
	if r.cfg.Perfect {
		r.stats.Hits++
		return nil, true
	}
	r.clock++
	u := r.unit(addr)
	if w := r.lookup(u.line); w != nil && w.valid[u.sector] {
		r.hit(w, u.sector, true)
		return nil, true
	}
	r.stats.MissesPrimary++
	return r.install(u, true), false
}

func (r *refCache) PendingFills() int {
	n := 0
	for _, e := range r.mshrs {
		for _, p := range e.pending {
			if p {
				n++
			}
		}
	}
	for _, c := range r.bypass {
		n += c
	}
	return n
}

// refConfigs are the cache shapes the schemes build (L1, L2 bank,
// per-kind and unified metadata caches, the idealized ones), shrunk so
// the driver's address range evicts.
var refConfigs = []Config{
	{Name: "L1", SizeBytes: 2048, LineSize: 128, Assoc: 4, Sectored: true, NumMSHRs: 64, MergeCap: 16, AllocOnFill: true},
	// 48 lines of 16 ways: 3 sets round down to 2 of 24 ways, as the
	// 96 KB L2 bank's 48 sets round down to 32.
	{Name: "L2", SizeBytes: 6144, LineSize: 128, Assoc: 16, Sectored: true, NumMSHRs: 256, MergeCap: 16, AllocOnFill: true},
	{Name: "ctr$", SizeBytes: 2048, LineSize: 128, Assoc: 8, NumMSHRs: 64, MergeCap: 512, AllocOnFill: true},
	{Name: "mac$", SizeBytes: 2048, LineSize: 128, Assoc: 8, NumMSHRs: 64, MergeCap: 64},
	{Name: "tree$", SizeBytes: 1024, LineSize: 128, Assoc: 2, NumMSHRs: 8, MergeCap: 8, AllocOnFill: true},
	{Name: "tree$-aom", SizeBytes: 1024, LineSize: 128, Assoc: 2, NumMSHRs: 8, MergeCap: 8},
	// 3 lines of 8 ways: one set of 3 ways.
	{Name: "tiny", SizeBytes: 384, LineSize: 128, Assoc: 8, NumMSHRs: 8, MergeCap: 64, AllocOnFill: true},
	// MergeCap 0: an entry merges without bound.
	{Name: "nocap", SizeBytes: 1536, LineSize: 128, Assoc: 8, NumMSHRs: 64, MergeCap: 0, AllocOnFill: true},
	{Name: "nomshr", SizeBytes: 2048, LineSize: 128, Assoc: 8, NumMSHRs: 0, MergeCap: 512, AllocOnFill: true},
	{Name: "nomshr-aom", SizeBytes: 2048, LineSize: 128, Assoc: 8, NumMSHRs: 0, MergeCap: 64},
	{Name: "unified-lru", SizeBytes: 4096, LineSize: 128, Assoc: 8, NumMSHRs: 8, MergeCap: 512, AllocOnFill: true},
	{Name: "unified-srrip", SizeBytes: 4096, LineSize: 128, Assoc: 8, NumMSHRs: 8, MergeCap: 512, AllocOnFill: true, Policy: PolicySRRIP},
	{Name: "unified-brrip", SizeBytes: 4096, LineSize: 128, Assoc: 8, NumMSHRs: 64, MergeCap: 64, Policy: PolicyBRRIP},
	// 32 sets: two SRRIP and two BRRIP leaders duel.
	{Name: "unified-dip", SizeBytes: 8192, LineSize: 128, Assoc: 2, NumMSHRs: 64, MergeCap: 512, AllocOnFill: true, Policy: PolicyDIP},
	// 2 sets and no BRRIP leader: the selector climbs until the
	// follower set switches to BRRIP.
	{Name: "unified-dip-2", SizeBytes: 1024, LineSize: 128, Assoc: 4, NumMSHRs: 8, MergeCap: 8, Policy: PolicyDIP},
	{Name: "perfect", SizeBytes: 2048, LineSize: 128, Assoc: 8, NumMSHRs: 64, MergeCap: 512, AllocOnFill: true, Perfect: true},
	{Name: "unlimited", SizeBytes: 2048, LineSize: 128, Assoc: 8, NumMSHRs: 8, MergeCap: 8, AllocOnFill: true, Unlimited: true},
	{Name: "unlimited-sectored", LineSize: 128, Sectored: true, NumMSHRs: 0, MergeCap: 16, Unlimited: true},
}

// choices feeds the driver: a seeded generator, or the fuzzer's bytes
// until they run out.
type choices struct {
	rng  *rand.Rand
	data []byte
}

func (c *choices) more() bool { return c.rng != nil || len(c.data) > 0 }

// intn returns a choice in [0, n), n <= 1<<16.
func (c *choices) intn(n int) int {
	if c.rng != nil {
		return c.rng.IntN(n)
	}
	v := 0
	for range 2 {
		v <<= 8
		if len(c.data) > 0 {
			v |= int(c.data[0])
			c.data = c.data[1:]
		}
		if n <= 256 {
			break
		}
	}
	return v % n
}

type refFetch struct {
	addr   uint64
	bypass bool
}

// driveReference runs one configuration: it applies each chosen
// operation to a Cache and a refCache and fails at the first answer,
// statistic or accounting check that differs. Operations are Accesses
// (loads and stores), WriteValidates, Fills of the outstanding fetches
// in any order, Fills that no entry awaits, and swaps of the Cache for
// its own Walk round trip.
func driveReference(t testing.TB, cfg Config, ch *choices, maxOps int) {
	t.Helper()
	c, ref := New(cfg), newRefCache(cfg)
	defer func() { c.Release() }()
	lines := 512 // cold misses go on for long in a cache with no capacity
	if ref.sets != nil {
		lines = 3 * len(ref.sets) * len(ref.sets[0])
	}
	addr := func() uint64 {
		line := ch.intn(lines)
		if ch.intn(4) == 0 {
			line %= 4 // a hot line
		}
		return uint64(line)*uint64(cfg.LineSize) + uint64(ch.intn(cfg.LineSize))
	}
	var outstanding []refFetch
	var token uint64
	for op := 0; op < maxOps && ch.more(); op++ {
		var what string
		switch k := ch.intn(20); {
		case k < 10:
			// k == 9 is a burst, one warp's requests to a unit, which
			// merge up to the MSHR entry's cap and then bypass.
			a, store, n := addr(), k >= 6, 1
			if k == 9 {
				store, n = ch.intn(2) == 0, 2+ch.intn(24)
			}
			for range n {
				token++
				what = fmt.Sprintf("Access(%#x, store=%v, token=%d)", a, store, token)
				got, want := c.Access(a, store, token), ref.Access(a, store, token)
				if !sameAccess(got, want) {
					t.Fatalf("%s op %d %s = %s, reference %s", cfg.Name, op, what, fmtAccess(got), fmtAccess(want))
				}
				if got.NeedFetch {
					outstanding = append(outstanding, refFetch{a, got.Bypass})
				}
			}
		case k < 12:
			a := addr()
			what = fmt.Sprintf("WriteValidate(%#x)", a)
			gotWB, gotHit := c.WriteValidate(a)
			wantWB, wantHit := ref.WriteValidate(a)
			if gotHit != wantHit || !sameEviction(gotWB, wantWB) {
				t.Fatalf("%s op %d %s = %s, %v; reference %s, %v", cfg.Name, op, what, fmtEviction(gotWB), gotHit, fmtEviction(wantWB), wantHit)
			}
		case k < 19:
			f := refFetch{addr(), ch.intn(2) == 0} // one that no entry awaits
			if len(outstanding) > 0 && k < 18 {
				i := ch.intn(len(outstanding))
				f = outstanding[i]
				outstanding = slices.Delete(outstanding, i, i+1)
			}
			store := ch.intn(4) == 0
			what = fmt.Sprintf("Fill(%#x, bypass=%v, store=%v)", f.addr, f.bypass, store)
			got, want := c.Fill(f.addr, f.bypass, store), ref.Fill(f.addr, f.bypass, store)
			if !slices.Equal(got.Tokens, want.Tokens) || !sameEviction(got.Writeback, want.Writeback) {
				t.Fatalf("%s op %d %s = tokens %v, writeback %s; reference tokens %v, writeback %s",
					cfg.Name, op, what, got.Tokens, fmtEviction(got.Writeback), want.Tokens, fmtEviction(want.Writeback))
			}
		default:
			what = "Walk round trip"
			c = walkRoundTrip(t, c)
		}
		if c.Stats != ref.stats {
			t.Fatalf("%s op %d after %s: stats %+v, reference %+v", cfg.Name, op, what, c.Stats, ref.stats)
		}
		if got, want := c.MSHRsInUse(), len(ref.mshrs); got != want {
			t.Fatalf("%s op %d after %s: %d MSHRs in use, reference %d", cfg.Name, op, what, got, want)
		}
		if got, want := c.PendingFills(), ref.PendingFills(); got != want {
			t.Fatalf("%s op %d after %s: %d pending fills, reference %d", cfg.Name, op, what, got, want)
		}
		if err := c.AuditLeaks(); err != nil {
			t.Fatalf("%s op %d after %s: %v", cfg.Name, op, what, err)
		}
	}
}

// walkRoundTrip encodes c, decodes the bytes into a fresh cache of the
// same Config, releases c and returns the copy.
func walkRoundTrip(t testing.TB, c *Cache) *Cache {
	t.Helper()
	enc := statecodec.NewEncoder("CACHE", 1)
	c.Walk(enc)
	b, err := enc.Finish()
	if err != nil {
		t.Fatalf("%s: encode: %v", c.cfg.Name, err)
	}
	d := New(c.cfg)
	dec := statecodec.NewDecoder(b, "CACHE", 1)
	d.Walk(dec)
	if _, err := dec.Finish(); err != nil {
		t.Fatalf("%s: decode: %v", c.cfg.Name, err)
	}
	c.Release()
	return d
}

func sameAccess(a, b AccessResult) bool {
	return a.Outcome == b.Outcome && a.NeedFetch == b.NeedFetch && a.FetchBytes == b.FetchBytes &&
		a.Bypass == b.Bypass && sameEviction(a.Writeback, b.Writeback)
}

func sameEviction(a, b *Eviction) bool {
	return (a == nil) == (b == nil) && (a == nil || *a == *b)
}

func fmtAccess(r AccessResult) string {
	return fmt.Sprintf("{%v fetch=%v bytes=%d bypass=%v writeback=%s}", r.Outcome, r.NeedFetch, r.FetchBytes, r.Bypass, fmtEviction(r.Writeback))
}

func fmtEviction(e *Eviction) string {
	if e == nil {
		return "none"
	}
	return fmt.Sprintf("%+v", *e)
}

// TestCacheMatchesReference is the cache's behavioural contract: under
// seeded operation streams, every configuration answers, counts and
// accounts exactly as refCache does.
func TestCacheMatchesReference(t *testing.T) {
	for i, cfg := range refConfigs {
		t.Run(cfg.Name, func(t *testing.T) {
			driveReference(t, cfg, &choices{rng: rand.New(rand.NewPCG(36, uint64(i)))}, 6000)
		})
	}
}

// FuzzCacheReference lets the fuzzer's bytes pick the configuration
// and the operation stream of TestCacheMatchesReference's driver.
func FuzzCacheReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("\x04\x00\x10\x00\x00\x10\x00\x00\x10\x00\x12\x00\x00\x12\x00\x00"))
	f.Add([]byte("\x0d\x13\x07\x13\x01\x05\x03\x0f\x0f\x11\x01\x00\x00\x13"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ch := &choices{data: data}
		driveReference(t, refConfigs[ch.intn(len(refConfigs))], ch, 4000)
	})
}
