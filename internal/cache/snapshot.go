package cache

// Checkpointing (DESIGN.md §14). Walk visits everything that
// determines a cache's future behavior: the live part of the tag array
// with replacement state, MSHR entries with their merged tokens, the
// bypass-tracking table, the LRU sequence counter, the DIP/BRRIP policy
// counters, and the statistics. Scratch (the entry pool, token scratch,
// eviction scratch) is left out: it only recycles capacity and never
// carries behavior, which is also why a restored cache is behaviorally
// identical to one that never stopped.
//
// The tag array is sparse: only ways that differ from the zero way are
// listed, by flat index set*assoc+way. A way is never invalidated once
// filled (claim, the only code that retags a way, sets it valid, and
// RRIP ages only full sets), so in a short run most ways were never
// touched, and an unlisted way is exactly the zero way a decode leaves
// behind when it clears the array. Maps are walked in ascending key order, so the same
// cache always encodes to the same bytes.

import "gpusecmem/internal/statecodec"

// Minimum encoded sizes, one byte per walked field.
const (
	minLine   = 6 // index, tag, valid, lastUse, rrpv, sectors
	minDirWay = 5 // tag, valid, lastUse, rrpv, sectors
	minMSHR   = 7 // line, sectors, SectorsPerLine token lists, merged
	minBypass = 2 // unit, count
)

// walk visits a way's fields after its tag, which the caller walks:
// whole for a tag-array line, as a key for a directory line.
func (w *way) walk(c *statecodec.Codec) {
	c.Bool(&w.valid)
	c.U64(&w.lastUse)
	c.Byte(&w.rrpv)
	c.Sectors(&w.sectorValid, &w.sectorDirty)
}

// Walk encodes or decodes the cache's state (see statecodec). Decoding
// expects a cache built from the same Config and refuses a foreign
// shape, a line index outside the tag array, a listed zero way and a
// directory in a set-associative cache; on error the cache is unusable.
func (c *Cache) Walk(sc *statecodec.Codec) {
	name := c.cfg.Name
	numSets, assoc := c.numSets, c.assoc
	sc.Int(&numSets)
	sc.Int(&assoc)
	if sc.Decoding() && (numSets != c.numSets || assoc != c.assoc) {
		sc.Fail("cache %s: snapshot has %d sets of %d ways, cache has %d of %d", name, numSets, assoc, c.numSets, c.assoc)
	}

	n := 0
	if !sc.Decoding() {
		for i := range c.ways {
			if c.ways[i] != (way{}) {
				n++
			}
		}
	} else {
		clear(c.ways)
	}
	sc.Len(&n, minLine)
	var idx statecodec.KeySeq
	var k uint64
	for i := 0; i < n; i, k = i+1, k+1 {
		if !sc.Decoding() {
			for c.ways[k] == (way{}) {
				k++
			}
		}
		sc.Key(&idx, &k)
		if sc.Decoding() && k >= uint64(len(c.ways)) {
			sc.Fail("cache %s: line index %d outside the %d x %d tag array", name, k, c.numSets, c.assoc)
		}
		if sc.Err() != nil {
			return
		}
		w := &c.ways[k]
		sc.U64(&w.tag)
		w.walk(sc)
		if sc.Decoding() && *w == (way{}) {
			sc.Fail("cache %s: snapshot lists the zero way %d", name, k)
		}
	}

	n, keys := statecodec.MapLen(sc, &c.dir, minDirWay)
	var tags statecodec.KeySeq
	for i := 0; i < n; i++ {
		var w *way
		var tag uint64
		if !sc.Decoding() {
			tag = keys[i]
			w = c.dir[tag]
		} else {
			w = new(way)
		}
		sc.Key(&tags, &tag)
		w.walk(sc)
		if sc.Decoding() {
			w.tag = tag
			c.dir[tag] = w
		}
	}

	sc.U64(&c.seq)
	n, keys = statecodec.MapLen(sc, &c.mshrs, minMSHR)
	var entries []mshrEntry // decoded entries, one array for the table
	if sc.Decoding() && n > 0 {
		entries = c.slab(n)
	}
	var lines statecodec.KeySeq
	for i := 0; i < n; i++ {
		var e *mshrEntry
		var line uint64
		if !sc.Decoding() {
			line = keys[i]
			e = c.mshrs[line]
		} else {
			e = &entries[i]
		}
		sc.Key(&lines, &line)
		sc.Sectors(&e.sectorPending, &e.sectorWrite)
		for s := range e.tokens {
			sc.U64s(&e.tokens[s])
		}
		sc.Int(&e.merged)
		if sc.Decoding() {
			e.lineAddr = line
			c.mshrs[line] = e
		}
	}
	sc.Int(&c.mshrFree)

	n, keys = statecodec.MapLen(sc, &c.pendingBypass, minBypass)
	var units statecodec.KeySeq
	for i := 0; i < n; i++ {
		var unit uint64
		if !sc.Decoding() {
			unit = keys[i]
		}
		sc.Key(&units, &unit)
		count := c.pendingBypass[unit]
		sc.Int(&count)
		if sc.Decoding() {
			c.pendingBypass[unit] = count
		}
	}
	sc.Int(&c.psel)
	sc.U64(&c.brripTick)
	c.Stats.Walk(sc)
}

// Walk encodes or decodes the counters in declaration order, for a
// cache's checkpoint and a stored Result's L1 and L2 totals alike.
func (s *Stats) Walk(c *statecodec.Codec) {
	for _, p := range [...]*uint64{&s.Accesses, &s.Hits, &s.MissesPrimary, &s.MissesSecondary,
		&s.MissesBypass, &s.Fills, &s.Evictions, &s.Writebacks} {
		c.U64(p)
	}
}
