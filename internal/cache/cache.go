// Package cache models the set-associative caches of the simulator:
// the sectored GPU L1/L2 caches and the (non-sectored) metadata
// caches, together with their MSHRs (miss-status handling registers).
//
// The model is timing-oriented: it tracks tags, per-sector valid/dirty
// state, LRU, and in-flight fills, but carries no data (the functional
// data path lives in internal/secmem). Callers drive it with Access
// and Fill and move the resulting fetch/writeback traffic through the
// DRAM model themselves.
//
// The MSHR semantics follow the paper's Section V-B: a miss to a unit
// (sector or line) that is already in flight is a *secondary miss*.
// With an available MSHR entry the request merges and generates no
// memory traffic; with MSHRs disabled, full, or the entry's merge
// capacity exhausted, the request bypasses and issues a redundant
// fetch — exactly the traffic MSHRs exist to filter.
//
// The behavioural contract is refCache in reference_test.go: a slow,
// map-based model of every configuration the schemes build, which
// TestCacheMatchesReference (and the FuzzCacheReference target) hold
// this implementation to, answer by answer, after every operation.
//
// Concurrency and aliasing contract: caches and MSHR tables are
// single-owner state with no internal locking. Each instance belongs
// to one SM (L1) or one memory partition (L2 banks, metadata caches),
// and under the parallel partition engine is only touched by the
// goroutine that owns that component for the window.
package cache

import (
	"fmt"

	"gpusecmem/internal/recycle"
)

// SectorsPerLine is the fixed sector count of sectored caches (128 B
// line, 32 B sectors).
const SectorsPerLine = 4

// Config describes one cache instance.
type Config struct {
	// Name labels the cache in stats output ("L2", "ctr$", ...).
	Name string
	// SizeBytes is the capacity. Must be a multiple of LineSize*Assoc
	// unless Unlimited or Perfect.
	SizeBytes int
	// LineSize is the line size in bytes (128 everywhere in the paper).
	LineSize int
	// Assoc is the set associativity.
	Assoc int
	// Sectored enables per-sector valid/dirty bits and sector-unit
	// fills (GPU L1/L2). Non-sectored caches fill whole lines
	// (metadata caches).
	Sectored bool
	// NumMSHRs is the number of MSHR entries; 0 disables MSHRs (every
	// secondary miss bypasses and refetches).
	NumMSHRs int
	// MergeCap bounds how many requests one MSHR entry can merge
	// (512/64/64 for counter/MAC/tree caches per the paper). 0 means
	// unlimited.
	MergeCap int
	// AllocOnFill installs lines at fill time (the paper's metadata
	// cache policy); the alternative (allocate-on-miss) reserves the
	// way at miss time, evicting earlier. Timing-wise the difference
	// is when the victim writeback happens; we model both for the
	// ablation bench.
	AllocOnFill bool
	// Perfect makes every access hit (the perf_mdc idealization).
	Perfect bool
	// Unlimited gives infinite capacity: only cold misses, no
	// evictions (the large_mdc idealization).
	Unlimited bool
	// Policy selects the replacement policy (PolicyLRU default; see
	// policy.go for the RRIP family used by the smart-unified-cache
	// extension).
	Policy Policy
}

// Outcome classifies an access.
type Outcome int

const (
	// Hit: the unit is present.
	Hit Outcome = iota
	// MissPrimary: first miss to the unit; the caller must fetch it.
	MissPrimary
	// MissMerged: secondary miss merged into an MSHR; no fetch.
	MissMerged
	// MissBypass: secondary miss that could not merge (no MSHR
	// available or merge capacity exhausted); the caller must issue a
	// redundant fetch.
	MissBypass
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case MissPrimary:
		return "miss-primary"
	case MissMerged:
		return "miss-merged"
	case MissBypass:
		return "miss-bypass"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// AccessResult is what the caller gets back from Access.
type AccessResult struct {
	Outcome Outcome
	// NeedFetch tells the caller to issue a memory fetch for the unit
	// (true for MissPrimary and MissBypass).
	NeedFetch bool
	// FetchBytes is the size of that fetch (sector or full line).
	FetchBytes int
	// Writeback is non-nil when an allocate-on-miss reservation
	// evicted a dirty victim at access time.
	Writeback *Eviction
	// Bypass is true when the fetch (if any) is untracked by an MSHR;
	// its completing Fill must pass bypass=true.
	Bypass bool
}

// Eviction describes a victim that must be written back.
type Eviction struct {
	LineAddr   uint64
	DirtyBytes int
}

// FillResult is what the caller gets back from Fill.
type FillResult struct {
	// Tokens are the merged request tokens completed by this fill
	// (including the primary's token).
	Tokens []uint64
	// Writeback is non-nil if installing the line evicted a dirty
	// victim.
	Writeback *Eviction
}

// Stats accumulates per-cache counters.
type Stats struct {
	Accesses        uint64
	Hits            uint64
	MissesPrimary   uint64
	MissesSecondary uint64 // merged + bypass
	MissesBypass    uint64
	Fills           uint64
	Evictions       uint64
	Writebacks      uint64
}

// Misses is the total miss count.
func (s Stats) Misses() uint64 { return s.MissesPrimary + s.MissesSecondary }

// MissRate is misses / accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses)
}

// SecondaryRatio is the fraction of misses that were secondary — the
// paper's Figure 5 metric.
func (s Stats) SecondaryRatio() float64 {
	m := s.Misses()
	if m == 0 {
		return 0
	}
	return float64(s.MissesSecondary) / float64(m)
}

// way is one line of the tag array. The fields are ordered so a way
// packs into 32 bytes: two words, then the byte-sized state.
type way struct {
	tag         uint64
	lastUse     uint64
	valid       bool
	rrpv        uint8
	sectorValid [SectorsPerLine]bool
	sectorDirty [SectorsPerLine]bool
}

type mshrEntry struct {
	lineAddr uint64
	// sectorPending marks sectors in flight (index 0 used for
	// non-sectored caches).
	sectorPending [SectorsPerLine]bool
	// sectorWrite marks sectors whose fill must install dirty.
	sectorWrite [SectorsPerLine]bool
	tokens      [SectorsPerLine][]uint64
	merged      int
	// inline is where a fresh entry's token lists start, so a sector
	// with few waiters never allocates one.
	inline [SectorsPerLine][mshrInline]uint64
}

// mshrInline is how many tokens a sector's list holds before it moves
// to an allocated array.
const mshrInline = 2

// Cache is one cache instance. Not safe for concurrent use; the
// simulator is single-threaded per partition.
type Cache struct {
	cfg Config
	// ways is the whole tag array in one allocation, numSets runs of
	// assoc ways; set returns one run.
	ways     []way
	numSets  int
	assoc    int
	seq      uint64
	mshrs    map[uint64]*mshrEntry
	mshrFree int
	// unlimited directory for Unlimited mode.
	dir map[uint64]*way
	// pendingBypass tracks units in flight without an MSHR so
	// secondary misses are classified even with MSHRs disabled.
	pendingBypass map[uint64]int
	// psel is the DIP set-dueling policy selector; brripTick drives
	// the bimodal insertion epsilon.
	psel      int
	brripTick uint64
	// entryPool recycles retired MSHR entries (and their token-slice
	// capacity) so the miss path stops allocating in steady state.
	entryPool []*mshrEntry
	// slabs are the arrays every MSHR entry lives in, drawn from the
	// recycler mshrSlab entries at a time; fresh is the unused tail of
	// the newest one.
	slabs [][]mshrEntry
	fresh []mshrEntry
	// tokScratch backs FillResult.Tokens; see the Fill aliasing
	// contract.
	tokScratch []uint64
	// evScratch backs the *Eviction results of Access, Fill, and
	// WriteValidate; see the Access aliasing contract.
	evScratch Eviction
	Stats     Stats
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	if cfg.LineSize <= 0 {
		panic("cache: LineSize must be positive")
	}
	c := &Cache{
		cfg:           cfg,
		mshrs:         make(map[uint64]*mshrEntry),
		mshrFree:      cfg.NumMSHRs,
		pendingBypass: make(map[uint64]int),
	}
	if cfg.Unlimited || cfg.Perfect {
		c.dir = make(map[uint64]*way)
		return c
	}
	if cfg.Assoc <= 0 {
		panic("cache: Assoc must be positive")
	}
	lines := cfg.SizeBytes / cfg.LineSize
	if lines <= 0 || cfg.SizeBytes%cfg.LineSize != 0 {
		panic(fmt.Sprintf("cache %s: size %d not a positive multiple of line size %d", cfg.Name, cfg.SizeBytes, cfg.LineSize))
	}
	numSets := lines / cfg.Assoc
	if numSets == 0 {
		numSets = 1
	}
	// Round sets down to a power of two for cheap indexing; fold the
	// remainder into associativity so capacity is preserved.
	p2 := 1
	for p2*2 <= numSets {
		p2 *= 2
	}
	numSets = p2
	c.numSets = numSets
	c.assoc = lines / numSets
	c.ways = recycle.Make[way](numSets * c.assoc)
	return c
}

// mshrSlab is how many MSHR entries one recycled array holds.
const mshrSlab = 16

// Release hands the cache's tag array and MSHR entries to the
// recycler, for the next cache of the same shape to reuse. The cache
// is unusable afterwards; nothing may hold a pointer into it.
func (c *Cache) Release() {
	recycle.Put(c.ways)
	for _, s := range c.slabs {
		recycle.Put(s)
	}
	c.ways, c.slabs, c.fresh, c.entryPool, c.mshrs = nil, nil, nil, nil, nil
}

// slab draws an array of n MSHR entries from the recycler and keeps it
// for Release.
func (c *Cache) slab(n int) []mshrEntry {
	s := recycle.Make[mshrEntry](n)
	c.slabs = append(c.slabs, s)
	return s
}

// newEntry takes an MSHR entry from the pool (or allocates the pool's
// first tenants) with all sector state cleared and token slices
// emptied but capacity retained.
func (c *Cache) newEntry(lineAddr uint64) *mshrEntry {
	if n := len(c.entryPool); n > 0 {
		e := c.entryPool[n-1]
		c.entryPool = c.entryPool[:n-1]
		e.lineAddr = lineAddr
		e.merged = 0
		for s := 0; s < SectorsPerLine; s++ {
			e.sectorPending[s] = false
			e.sectorWrite[s] = false
			e.tokens[s] = e.tokens[s][:0]
		}
		return e
	}
	if len(c.fresh) == 0 {
		c.fresh = c.slab(mshrSlab)
	}
	e := &c.fresh[0]
	c.fresh = c.fresh[1:]
	e.lineAddr = lineAddr
	for s := range e.tokens {
		e.tokens[s] = e.inline[s][:0]
	}
	return e
}

// evict books a dirty victim into the eviction scratch. The returned
// pointer is valid until the next Access/Fill/WriteValidate on this
// cache (see the Access aliasing contract).
func (c *Cache) evict(w *way) *Eviction {
	c.Stats.Evictions++
	db := c.dirtyBytes(w)
	if db == 0 {
		return nil
	}
	c.Stats.Writebacks++
	c.evScratch = Eviction{LineAddr: w.tag, DirtyBytes: db}
	return &c.evScratch
}

func (c *Cache) lineAddr(addr uint64) uint64 {
	return addr / uint64(c.cfg.LineSize) * uint64(c.cfg.LineSize)
}

func (c *Cache) sectorOf(addr uint64) int {
	if !c.cfg.Sectored {
		return 0
	}
	return int(addr % uint64(c.cfg.LineSize) / (uint64(c.cfg.LineSize) / SectorsPerLine))
}

// unitKey identifies a fetch unit (line for non-sectored, line+sector
// for sectored caches).
func (c *Cache) unitKey(lineAddr uint64, sector int) uint64 {
	return lineAddr | uint64(sector)
}

func (c *Cache) fetchBytes() int {
	if c.cfg.Sectored {
		return c.cfg.LineSize / SectorsPerLine
	}
	return c.cfg.LineSize
}

func (c *Cache) setIdxFor(lineAddr uint64) int {
	return int((lineAddr / uint64(c.cfg.LineSize)) & uint64(c.numSets-1))
}

// set returns set i's ways.
func (c *Cache) set(i int) []way {
	return c.ways[i*c.assoc : (i+1)*c.assoc]
}

func (c *Cache) setFor(lineAddr uint64) []way {
	return c.set(c.setIdxFor(lineAddr))
}

func (c *Cache) findWay(lineAddr uint64) *way {
	if c.dir != nil {
		return c.dir[lineAddr]
	}
	set := c.setFor(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

// Access performs a lookup for addr. write marks the target sector
// dirty (on hit immediately, on fill otherwise). token identifies the
// request; it is returned from the completing Fill for MissPrimary and
// MissMerged outcomes (bypass fetches complete with the token the
// caller attached to the fetch itself).
//
// Aliasing contract: a non-nil Writeback points at scratch owned by
// this cache and is valid only until the next Access, Fill, or
// WriteValidate on the *same* cache instance. Callers must read its
// fields before triggering any further access on this cache (the
// partition's writeback handlers consume LineAddr/DirtyBytes first,
// then recurse).
func (c *Cache) Access(addr uint64, write bool, token uint64) AccessResult {
	c.Stats.Accesses++
	if c.cfg.Perfect {
		c.Stats.Hits++
		return AccessResult{Outcome: Hit}
	}
	c.seq++
	lineAddr := c.lineAddr(addr)
	sector := c.sectorOf(addr)

	w := c.findWay(lineAddr)
	if w != nil && w.sectorValid[sector] {
		c.touchHit(w)
		if write {
			w.sectorDirty[sector] = true
		}
		c.Stats.Hits++
		return AccessResult{Outcome: Hit}
	}
	if c.dir == nil {
		c.duelMiss(c.setIdxFor(lineAddr))
	}

	// Miss. Classify primary vs secondary by in-flight state.
	fetch := AccessResult{Outcome: MissPrimary, NeedFetch: true, FetchBytes: c.fetchBytes()}
	e := c.mshrs[lineAddr]
	inFlight := e != nil && e.sectorPending[sector]
	switch {
	case inFlight && (c.cfg.Unlimited || c.cfg.MergeCap == 0 || e.merged < c.cfg.MergeCap):
		// A secondary miss merges while the entry has capacity.
		e.merged++
		e.wait(sector, token, write)
		c.Stats.MissesSecondary++
		return AccessResult{Outcome: MissMerged}
	case inFlight || e == nil && c.pendingBypass[c.unitKey(lineAddr, sector)] > 0:
		// A secondary miss that cannot merge (the entry's merge
		// capacity is spent, or no entry tracks the unit) refetches.
		c.Stats.MissesSecondary++
		c.Stats.MissesBypass++
		c.noteBypass(lineAddr, sector)
		fetch.Outcome, fetch.Bypass = MissBypass, true
		return fetch
	case e != nil:
		// Same line, new sector: track it in the same entry; it needs
		// its own fetch (a sector is the fetch unit).
		e.wait(sector, token, write)
		c.Stats.MissesPrimary++
		return fetch
	}

	// Primary miss to an idle unit.
	c.Stats.MissesPrimary++
	if !c.cfg.AllocOnFill && !c.cfg.Unlimited && w == nil {
		// Allocate-on-miss: the victim way is claimed (and written
		// back if dirty) now, with no sector valid yet.
		_, fetch.Writeback = c.claim(lineAddr)
	}
	switch {
	case c.cfg.Unlimited:
		// The large_mdc idealization has "only cold misses": entries
		// and merge capacity are unbounded, so no redundant fetch is
		// ever issued.
	case c.mshrFree > 0:
		c.mshrFree--
	default:
		c.noteBypass(lineAddr, sector)
		fetch.Bypass = true
		return fetch
	}
	e = c.newEntry(lineAddr)
	e.wait(sector, token, write)
	c.mshrs[lineAddr] = e
	return fetch
}

// wait adds a waiter for sector: the sector is in flight, token wakes
// on its fill, and a store makes that fill install dirty.
func (e *mshrEntry) wait(sector int, token uint64, write bool) {
	e.sectorPending[sector] = true
	e.tokens[sector] = append(e.tokens[sector], token)
	if write {
		e.sectorWrite[sector] = true
	}
}

func (c *Cache) noteBypass(lineAddr uint64, sector int) {
	c.pendingBypass[c.unitKey(lineAddr, sector)]++
}

// dirtyBytes computes the writeback size of a victim way.
func (c *Cache) dirtyBytes(w *way) int {
	if !c.cfg.Sectored {
		if w.sectorDirty[0] {
			return c.cfg.LineSize
		}
		return 0
	}
	n := 0
	for s := 0; s < SectorsPerLine; s++ {
		if w.sectorDirty[s] {
			n += c.cfg.LineSize / SectorsPerLine
		}
	}
	return n
}

// claim gives lineAddr the replacement policy's victim way in its set,
// with no sector valid, and returns it with the victim's writeback.
func (c *Cache) claim(lineAddr uint64) (*way, *Eviction) {
	setIdx := c.setIdxFor(lineAddr)
	set := c.set(setIdx)
	w := &set[c.pickVictim(set)]
	var ev *Eviction
	if w.valid {
		ev = c.evict(w)
	}
	*w = way{valid: true, tag: lineAddr}
	c.insertState(w, setIdx)
	return w, ev
}

// install places (lineAddr, sector) into the cache, evicting as
// needed, and returns any dirty victim. A line already present
// (another sector filled it, or a bypass raced) keeps its way.
func (c *Cache) install(lineAddr uint64, sector int, write bool) *Eviction {
	w := c.findWay(lineAddr)
	var ev *Eviction
	switch {
	case w == nil && c.dir != nil:
		w = &way{valid: true, tag: lineAddr}
		c.dir[lineAddr] = w
	case w == nil:
		w, ev = c.claim(lineAddr)
	}
	w.lastUse = c.seq
	w.sectorValid[sector] = true
	if write {
		w.sectorDirty[sector] = true
	}
	return ev
}

// Fill delivers the memory response for the unit containing addr.
// bypass must be true when the fetch was issued for a MissBypass (or
// MSHR-less primary miss); its completing token travels with the fetch
// and is not returned here.
//
// Aliasing contract: FillResult.Tokens and FillResult.Writeback point
// at scratch owned by this cache, valid only until the next
// Access/Fill/WriteValidate on the same instance. Callers consume them
// in the same dispatch (waking waiters, enqueueing the writeback)
// before anything else touches the cache.
func (c *Cache) Fill(addr uint64, bypass bool, write bool) FillResult {
	c.Stats.Fills++
	c.seq++
	lineAddr := c.lineAddr(addr)
	sector := c.sectorOf(addr)
	var res FillResult

	// Every fill installs its unit; one that an MSHR entry awaits also
	// hands back the entry's waiters and installs dirty for their
	// stores.
	if bypass {
		key := c.unitKey(lineAddr, sector)
		if c.pendingBypass[key] > 0 {
			c.pendingBypass[key]--
			if c.pendingBypass[key] == 0 {
				delete(c.pendingBypass, key)
			}
		}
	} else if e := c.mshrs[lineAddr]; e != nil && e.sectorPending[sector] {
		if len(e.tokens[sector]) > 0 {
			res.Tokens = append(c.tokScratch[:0], e.tokens[sector]...)
			c.tokScratch = res.Tokens[:0]
		}
		write = write || e.sectorWrite[sector]
		e.tokens[sector] = e.tokens[sector][:0]
		e.sectorPending[sector] = false
		e.sectorWrite[sector] = false
		// Retire the entry when no sector remains pending.
		if e.sectorPending == [SectorsPerLine]bool{} {
			delete(c.mshrs, lineAddr)
			if !c.cfg.Unlimited {
				c.mshrFree++
			}
			c.entryPool = append(c.entryPool, e)
		}
	}
	res.Writeback = c.install(lineAddr, sector, write)
	return res
}

// WriteValidate services a full-sector store without fetching: if the
// sector is present it is marked dirty (a write hit); otherwise the
// line is installed with just this sector valid and dirty. GPUs use
// this write-no-fetch policy for coalesced global stores, which is why
// store misses generate no read traffic. Returns the dirty victim, if
// any, and whether the store hit.
func (c *Cache) WriteValidate(addr uint64) (*Eviction, bool) {
	c.Stats.Accesses++
	if c.cfg.Perfect {
		c.Stats.Hits++
		return nil, true
	}
	c.seq++
	lineAddr := c.lineAddr(addr)
	sector := c.sectorOf(addr)
	if w := c.findWay(lineAddr); w != nil && w.sectorValid[sector] {
		c.touchHit(w)
		w.sectorDirty[sector] = true
		c.Stats.Hits++
		return nil, true
	}
	c.Stats.MissesPrimary++
	return c.install(lineAddr, sector, true), false
}

// Present reports whether the unit containing addr is resident.
func (c *Cache) Present(addr uint64) bool {
	if c.cfg.Perfect {
		return true
	}
	w := c.findWay(c.lineAddr(addr))
	if w == nil {
		return false
	}
	return w.sectorValid[c.sectorOf(addr)]
}

// MSHRsInUse reports how many MSHR entries are currently allocated —
// the probe timeline's occupancy gauge. In Unlimited mode (no entry
// budget) it is simply the number of lines in flight.
func (c *Cache) MSHRsInUse() int { return len(c.mshrs) }

// PendingFills reports how many fetch units are currently in flight
// (MSHR-tracked sectors plus untracked bypass fetches) — used by the
// simulator's stall diagnostics.
func (c *Cache) PendingFills() int {
	n := 0
	for _, e := range c.mshrs {
		for s := 0; s < SectorsPerLine; s++ {
			if e.sectorPending[s] {
				n++
			}
		}
	}
	for _, cnt := range c.pendingBypass {
		n += cnt
	}
	return n
}

// AuditLeaks checks the cache's internal accounting invariants: MSHR
// free-list conservation, no phantom MSHR entries (an entry with no
// pending sector should have been retired by Fill), and no
// non-positive bypass counts. It returns nil when the books balance.
// The checks are O(entries in flight); the simulator runs them only
// when auditing is enabled.
func (c *Cache) AuditLeaks() error {
	if c.mshrFree < 0 {
		return fmt.Errorf("cache %s: mshrFree %d negative", c.cfg.Name, c.mshrFree)
	}
	if !c.cfg.Unlimited && !c.cfg.Perfect && c.cfg.NumMSHRs > 0 {
		if c.mshrFree+len(c.mshrs) != c.cfg.NumMSHRs {
			return fmt.Errorf("cache %s: MSHR leak: %d free + %d live != %d total",
				c.cfg.Name, c.mshrFree, len(c.mshrs), c.cfg.NumMSHRs)
		}
	}
	for lineAddr, e := range c.mshrs {
		live := false
		for s := 0; s < SectorsPerLine; s++ {
			if e.sectorPending[s] {
				live = true
			} else if len(e.tokens[s]) != 0 {
				return fmt.Errorf("cache %s: MSHR %#x sector %d holds %d tokens with no pending fill",
					c.cfg.Name, lineAddr, s, len(e.tokens[s]))
			}
		}
		if !live {
			return fmt.Errorf("cache %s: MSHR %#x has no pending sector (missed retirement)", c.cfg.Name, lineAddr)
		}
	}
	for key, n := range c.pendingBypass {
		if n <= 0 {
			return fmt.Errorf("cache %s: bypass count %d for unit %#x", c.cfg.Name, n, key)
		}
	}
	return nil
}

// InFlight reports whether the unit containing addr has a pending fill
// (via MSHR or bypass tracking).
func (c *Cache) InFlight(addr uint64) bool {
	lineAddr := c.lineAddr(addr)
	sector := c.sectorOf(addr)
	if e, ok := c.mshrs[lineAddr]; ok && e.sectorPending[sector] {
		return true
	}
	return c.pendingBypass[c.unitKey(lineAddr, sector)] > 0
}
