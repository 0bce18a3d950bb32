// Package faults provides deterministic, seeded fault injection for
// the cycle-level simulator — the active physical adversary of the
// paper's Section II-B threat model, expressed at cycle granularity.
//
// A Plan describes *what* the adversary does (which sites, at what
// rate, from which seed); an Injector executes it. Every injection
// decision is a pure function of (seed, site, per-site event counter,
// address), so a run with a given plan is exactly reproducible, a run
// with a nil plan is untouched, and a plan with Rate 0 is
// byte-identical to no plan at all (the simulator never perturbs
// timing on the no-fault path).
//
// The package carries no simulator dependencies: internal/sim,
// internal/icnt and internal/dram consume it behind nil checks, and
// the functional ground-truth experiment replays the same plan
// against internal/secmem's real engines.
//
// Concurrency and aliasing contract: an Injector is single-owner
// state — its per-site event counters advance in global simulation
// order, one goroutine at a time. The simulator's sharded cycle loop
// never calls Fire from a shard goroutine: partitions stage their
// opportunities during a window, and the coordinator draws them at the
// barrier in canonical merge order, so the counters advance in the
// same order at every shard count.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gpusecmem/internal/statecodec"
)

// Site identifies one class of injection point in the memory
// hierarchy.
type Site int

// Injection sites.
const (
	// SiteDRAMData flips bits in a DRAM-resident *data* line as it is
	// read (an active adversary rewriting the DIMM contents).
	SiteDRAMData Site = iota
	// SiteDRAMMeta flips bits in a DRAM-resident *metadata* line
	// (counter, MAC, or integrity-tree storage) as it is read.
	SiteDRAMMeta
	// SiteMetaFill corrupts a metadata-cache fill on the way into the
	// cache (a bus/row-hammer style disturbance between the DRAM pins
	// and the on-chip metadata cache).
	SiteMetaFill
	// SiteIcntDrop drops an in-flight message at an interconnect
	// queue (a lost response; the victim request never completes).
	SiteIcntDrop
	// SiteIcntDup duplicates an in-flight message at an interconnect
	// queue (a replayed response).
	SiteIcntDup
	// NumSites bounds the site space for per-site accounting arrays.
	NumSites
)

var siteNames = [NumSites]string{
	SiteDRAMData: "data",
	SiteDRAMMeta: "meta",
	SiteMetaFill: "metafill",
	SiteIcntDrop: "drop",
	SiteIcntDup:  "dup",
}

func (s Site) String() string {
	if s >= 0 && s < NumSites {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", int(s))
}

// SiteMask is a bit set of Sites.
type SiteMask uint32

// Mask returns the mask bit of a site.
func (s Site) Mask() SiteMask { return 1 << uint(s) }

// Has reports whether the mask includes site s.
func (m SiteMask) Has(s Site) bool { return m&s.Mask() != 0 }

// AllSites enables every injection site.
const AllSites SiteMask = 1<<uint(NumSites) - 1

// FlipSites are the bit-corruption sites (no drops/duplicates): the
// subset whose faults a MAC/tree design is supposed to *detect*
// rather than merely survive.
const FlipSites = SiteMask(1<<uint(SiteDRAMData) | 1<<uint(SiteDRAMMeta) | 1<<uint(SiteMetaFill))

func (m SiteMask) String() string {
	if m == 0 {
		return "none"
	}
	var parts []string
	for s := Site(0); s < NumSites; s++ {
		if m.Has(s) {
			parts = append(parts, s.String())
		}
	}
	return strings.Join(parts, ",")
}

// ParseSites parses a comma-separated site list ("data,meta,drop").
// The special names "all" and "flips" expand to AllSites and
// FlipSites.
func ParseSites(spec string) (SiteMask, error) {
	var m SiteMask
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		switch tok {
		case "all":
			m |= AllSites
			continue
		case "flips":
			m |= FlipSites
			continue
		}
		found := false
		for s := Site(0); s < NumSites; s++ {
			if tok == siteNames[s] {
				m |= s.Mask()
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("faults: unknown site %q (known: %s,all,flips)", tok, AllSites.String())
		}
	}
	return m, nil
}

// Plan is a deterministic fault-injection campaign: a seed, a per-
// opportunity rate, and the set of sites the adversary attacks. The
// zero value (and a nil *Plan) injects nothing. Plan is a plain value
// struct so it participates in the canonical JSON memo key of a
// simulator Config.
type Plan struct {
	// Seed selects the deterministic fault stream.
	Seed uint64
	// Rate is the probability an opportunity at an enabled site
	// faults, in [0,1]. 1 faults every opportunity.
	Rate float64
	// Sites selects which injection points are active.
	Sites SiteMask
}

// Enabled reports whether the plan can ever inject a fault.
func (p *Plan) Enabled() bool {
	return p != nil && p.Rate > 0 && p.Sites != 0
}

// Validate reports malformed plans.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if p.Rate < 0 || p.Rate > 1 {
		return fmt.Errorf("faults: rate %v outside [0,1]", p.Rate)
	}
	if p.Sites&^AllSites != 0 {
		return fmt.Errorf("faults: unknown site bits %#x", uint32(p.Sites&^AllSites))
	}
	return nil
}

// String renders the plan in the -faults CLI syntax.
func (p *Plan) String() string {
	if p == nil {
		return "none"
	}
	return fmt.Sprintf("seed=%d,rate=%g,sites=%s", p.Seed, p.Rate, p.Sites)
}

// ParsePlan parses the -faults CLI syntax:
// "seed=N,rate=F,sites=a,b,c" (sites consumes the rest of the spec;
// keys may appear in any order before it). An empty spec is a nil
// plan.
func ParsePlan(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	p := &Plan{Sites: FlipSites, Rate: 1e-3}
	rest := spec
	for rest != "" {
		var kv string
		if i := strings.Index(rest, ","); i >= 0 {
			kv, rest = rest[:i], rest[i+1:]
		} else {
			kv, rest = rest, ""
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("faults: malformed %q (want key=value)", kv)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", v, err)
			}
			p.Seed = n
		case "rate":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad rate %q: %v", v, err)
			}
			p.Rate = f
		case "sites":
			// sites consumes the remainder: site lists are themselves
			// comma-separated.
			if rest != "" {
				v = v + "," + rest
				rest = ""
			}
			m, err := ParseSites(v)
			if err != nil {
				return nil, err
			}
			p.Sites = m
		default:
			return nil, fmt.Errorf("faults: unknown key %q (want seed/rate/sites)", k)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Stats counts injections per site.
type Stats struct {
	Injected [NumSites]uint64
}

// Total sums injections over all sites.
func (s Stats) Total() uint64 {
	var t uint64
	for _, v := range s.Injected {
		t += v
	}
	return t
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	for i := range s.Injected {
		s.Injected[i] += other.Injected[i]
	}
}

// splitmix64 is the same deterministic mixer internal/trace uses for
// irregular access patterns.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Injector executes a Plan. One injector serves one single-threaded
// simulator instance (one GPU); two injectors built from the same
// plan make identical decisions given identical event streams.
type Injector struct {
	seed      uint64
	threshold uint64 // Fire iff hash < threshold
	sites     SiteMask
	// events counts opportunities per site; it is part of the
	// deterministic decision input, so the n-th opportunity at a site
	// always resolves the same way for a given seed.
	events [NumSites]uint64
	stats  Stats
}

// NewInjector builds an injector for p, or nil when the plan cannot
// inject (nil, rate 0, or no sites) — callers gate every hook on a
// nil check so the no-fault path costs nothing.
func NewInjector(p *Plan) *Injector {
	if !p.Enabled() {
		return nil
	}
	thr := uint64(p.Rate * float64(1<<63) * 2)
	if p.Rate >= 1 {
		thr = ^uint64(0)
	}
	return &Injector{seed: splitmix64(p.Seed ^ 0xfa017), threshold: thr, sites: p.Sites}
}

// Fire decides whether the current opportunity at site faults. addr
// folds the affected address into the decision so campaigns spread
// over the address space rather than clustering on event parity.
// Deterministic: the decision depends only on the plan and the
// sequence of prior Fire calls for the same site.
func (in *Injector) Fire(site Site, addr uint64) bool {
	if !in.sites.Has(site) {
		return false
	}
	n := in.events[site]
	in.events[site]++
	h := splitmix64(in.seed ^ uint64(site)<<56 ^ n*0x9e3779b97f4a7c15 ^ splitmix64(addr))
	if in.threshold != ^uint64(0) && h >= in.threshold {
		return false
	}
	in.stats.Injected[site]++
	return true
}

// Stats reports the injections performed so far.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// Walk encodes or decodes the injector's run state for a checkpoint
// (internal/statecodec): the per-site opportunity counters, then the
// per-site injection counts. The plan itself is the machine's
// configuration. Decoding expects an injector built from the same
// plan and refuses opportunities at a site the plan does not attack
// (Fire never counts them) and more injections than opportunities.
func (in *Injector) Walk(c *statecodec.Codec) {
	c.FixedU64s(in.events[:], "fault sites")
	c.FixedU64s(in.stats.Injected[:], "fault sites")
	if !c.Decoding() {
		return
	}
	for s := Site(0); s < NumSites; s++ {
		switch {
		case !in.sites.Has(s) && in.events[s] != 0:
			c.Fail("%d opportunities at fault site %s, which the plan does not attack", in.events[s], s)
		case in.stats.Injected[s] > in.events[s]:
			c.Fail("%d injections at fault site %s from %d opportunities", in.stats.Injected[s], s, in.events[s])
		}
	}
}

// FlipAddrs derives n deterministic byte addresses (with a bit index
// each) inside [0, limit) from the plan's seed — the functional
// ground-truth experiments replay the same campaign against a real
// secmem engine by flipping exactly these bits in its backing store.
// Addresses are returned sorted and deduplicated, so n is an upper
// bound.
func (p *Plan) FlipAddrs(n int, limit uint64) []BitFlip {
	if p == nil || n <= 0 || limit == 0 {
		return nil
	}
	seen := make(map[uint64]bool, n)
	var out []BitFlip
	base := splitmix64(p.Seed ^ 0xb17f11b5)
	for i := 0; len(out) < n && i < 4*n+16; i++ {
		h := splitmix64(base + uint64(i)*0x9e3779b97f4a7c15)
		addr := h % limit
		if seen[addr] {
			continue
		}
		seen[addr] = true
		out = append(out, BitFlip{Addr: addr, Bit: uint(h >> 56 & 7)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// BitFlip is one byte-granular corruption: flip bit Bit of the byte
// at Addr.
type BitFlip struct {
	Addr uint64
	Bit  uint
}
