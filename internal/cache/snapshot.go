package cache

// Checkpoint snapshot/restore. A State is a deep copy of everything
// that determines a cache's future behavior: the live part of the tag
// array with replacement state, MSHR entries with their merged tokens,
// the bypass-tracking table, the LRU sequence counter, the DIP/BRRIP
// policy counters, and the statistics. Scratch (the entry pool, token
// scratch, eviction scratch) is deliberately excluded: it only
// recycles capacity and never carries behavior, so Restore simply
// resets it — which is also why a restored cache is behaviorally
// identical to one that never stopped.
//
// The tag array is sparse: only ways that differ from the zero way are
// listed, by flat index. A way is never invalidated once filled
// (install and reserve only set valid, and RRIP ages only full sets),
// so in a short run most ways were never touched, and an unlisted way
// is exactly the zero way Restore leaves behind when it clears the
// array.
//
// Maps are serialized as slices in strictly ascending key order (the
// keys are sorted, then looked up) so the same machine state always
// encodes to the same bytes and a duplicated key is a detectable
// forgery. Restore rejects anything a Snapshot cannot produce: a
// foreign shape, a listed zero way, an out-of-range or unordered line
// index, and unordered or duplicate keys.

import (
	"fmt"
	"slices"
)

// WayState mirrors one way of a set (or one unlimited-directory line).
type WayState struct {
	Valid       bool
	Tag         uint64
	LastUse     uint64
	RRPV        uint8
	SectorValid [SectorsPerLine]bool
	SectorDirty [SectorsPerLine]bool
}

// LineState is one live way of a set-associative tag array.
type LineState struct {
	// Index is the way's flat position, set*Assoc + way.
	Index int
	WayState
}

// MSHRState mirrors one in-flight MSHR entry.
type MSHRState struct {
	LineAddr      uint64
	SectorPending [SectorsPerLine]bool
	SectorWrite   [SectorsPerLine]bool
	Tokens        [SectorsPerLine][]uint64
	Merged        int
}

// BypassState is one pendingBypass table entry.
type BypassState struct {
	Key   uint64
	Count int
}

// State is a complete, detached snapshot of a Cache.
type State struct {
	// NumSets and Assoc are a set-associative cache's shape and Lines
	// its non-zero ways in ascending Index order; every unlisted way is
	// the zero way. Unlimited/Perfect caches have no shape and carry
	// Dir instead (sorted by tag).
	NumSets, Assoc int
	Lines          []LineState
	Dir            []WayState

	Seq           uint64
	MSHRs         []MSHRState // sorted by LineAddr
	MSHRFree      int
	PendingBypass []BypassState // sorted by Key
	PSel          int
	BRRIPTick     uint64
	Stats         Stats
}

func wayState(w *way) WayState {
	return WayState{
		Valid:       w.valid,
		Tag:         w.tag,
		LastUse:     w.lastUse,
		RRPV:        w.rrpv,
		SectorValid: w.sectorValid,
		SectorDirty: w.sectorDirty,
	}
}

func (ws *WayState) toWay() way {
	return way{
		valid:       ws.Valid,
		tag:         ws.Tag,
		lastUse:     ws.LastUse,
		rrpv:        ws.RRPV,
		sectorValid: ws.SectorValid,
		sectorDirty: ws.SectorDirty,
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Snapshot captures the cache's full behavioral state. The result
// shares no memory with the cache.
func (c *Cache) Snapshot() *State {
	st := &State{
		Seq:       c.seq,
		MSHRFree:  c.mshrFree,
		PSel:      c.psel,
		BRRIPTick: c.brripTick,
		Stats:     c.Stats,
	}
	if c.dir != nil {
		st.Dir = make([]WayState, 0, len(c.dir))
		for _, tag := range sortedKeys(c.dir) {
			st.Dir = append(st.Dir, wayState(c.dir[tag]))
		}
	} else {
		st.NumSets, st.Assoc = c.numSets, c.assoc
		for i := range c.ways {
			if c.ways[i] != (way{}) {
				st.Lines = append(st.Lines, LineState{Index: i, WayState: wayState(&c.ways[i])})
			}
		}
	}
	if len(c.mshrs) > 0 {
		st.MSHRs = make([]MSHRState, 0, len(c.mshrs))
		for _, lineAddr := range sortedKeys(c.mshrs) {
			e := c.mshrs[lineAddr]
			m := MSHRState{
				LineAddr:      lineAddr,
				SectorPending: e.sectorPending,
				SectorWrite:   e.sectorWrite,
				Merged:        e.merged,
			}
			for s := 0; s < SectorsPerLine; s++ {
				if len(e.tokens[s]) > 0 {
					m.Tokens[s] = append([]uint64(nil), e.tokens[s]...)
				}
			}
			st.MSHRs = append(st.MSHRs, m)
		}
	}
	if len(c.pendingBypass) > 0 {
		st.PendingBypass = make([]BypassState, 0, len(c.pendingBypass))
		for _, k := range sortedKeys(c.pendingBypass) {
			st.PendingBypass = append(st.PendingBypass, BypassState{Key: k, Count: c.pendingBypass[k]})
		}
	}
	return st
}

// unordered returns the first of n keys that does not strictly exceed
// its predecessor, or -1 when the keys are strictly ascending, as
// Snapshot leaves them.
func unordered(n int, key func(i int) uint64) int {
	for i := 1; i < n; i++ {
		if key(i) <= key(i-1) {
			return i
		}
	}
	return -1
}

// Restore replaces the cache's state with a snapshot taken from a
// cache of identical configuration. The shape is validated against the
// receiver (a snapshot from a differently shaped cache is rejected),
// as is everything Snapshot guarantees: live lines only, in range and
// in ascending index order, and strictly ascending directory tags,
// MSHR line addresses and bypass keys. Scratch and pools are reset.
// On error the cache must be considered unusable — restore into a
// freshly constructed instance.
func (c *Cache) Restore(st *State) error {
	name := c.cfg.Name
	if i := unordered(len(st.MSHRs), func(i int) uint64 { return st.MSHRs[i].LineAddr }); i >= 0 {
		return fmt.Errorf("cache %s: snapshot MSHR %d (line %#x) is out of order or duplicated", name, i, st.MSHRs[i].LineAddr)
	}
	if i := unordered(len(st.PendingBypass), func(i int) uint64 { return st.PendingBypass[i].Key }); i >= 0 {
		return fmt.Errorf("cache %s: snapshot bypass entry %d (unit %#x) is out of order or duplicated", name, i, st.PendingBypass[i].Key)
	}
	if c.dir != nil {
		if st.NumSets != 0 || st.Assoc != 0 || st.Lines != nil {
			return fmt.Errorf("cache %s: snapshot has a tag array but the cache is unlimited/perfect", name)
		}
		if i := unordered(len(st.Dir), func(i int) uint64 { return st.Dir[i].Tag }); i >= 0 {
			return fmt.Errorf("cache %s: snapshot directory line %d (tag %#x) is out of order or duplicated", name, i, st.Dir[i].Tag)
		}
		dir := make(map[uint64]*way, len(st.Dir))
		for i := range st.Dir {
			w := st.Dir[i].toWay()
			dir[w.tag] = &w
		}
		c.dir = dir
	} else {
		switch {
		case st.Dir != nil:
			return fmt.Errorf("cache %s: snapshot has a directory but the cache is set-associative", name)
		case st.NumSets != c.numSets || st.Assoc != c.assoc:
			return fmt.Errorf("cache %s: snapshot has %d sets of %d ways, cache has %d of %d",
				name, st.NumSets, st.Assoc, c.numSets, c.assoc)
		}
		clear(c.ways)
		prev := -1
		for i := range st.Lines {
			l := &st.Lines[i]
			switch {
			case l.Index <= prev || l.Index >= len(c.ways):
				return fmt.Errorf("cache %s: snapshot line %d has index %d, want %d..%d", name, i, l.Index, prev+1, len(c.ways)-1)
			case l.WayState == WayState{}:
				return fmt.Errorf("cache %s: snapshot lists the empty way %d", name, l.Index)
			}
			c.ways[l.Index] = l.toWay()
			prev = l.Index
		}
	}
	c.seq = st.Seq
	c.mshrFree = st.MSHRFree
	c.psel = st.PSel
	c.brripTick = st.BRRIPTick
	c.Stats = st.Stats
	c.mshrs = make(map[uint64]*mshrEntry, len(st.MSHRs))
	for i := range st.MSHRs {
		m := &st.MSHRs[i]
		e := &mshrEntry{
			lineAddr:      m.LineAddr,
			sectorPending: m.SectorPending,
			sectorWrite:   m.SectorWrite,
			merged:        m.Merged,
		}
		for s := 0; s < SectorsPerLine; s++ {
			if len(m.Tokens[s]) > 0 {
				e.tokens[s] = append([]uint64(nil), m.Tokens[s]...)
			}
		}
		c.mshrs[m.LineAddr] = e
	}
	c.pendingBypass = make(map[uint64]int, len(st.PendingBypass))
	for _, b := range st.PendingBypass {
		c.pendingBypass[b.Key] = b.Count
	}
	c.entryPool = nil
	c.tokScratch = nil
	c.evScratch = Eviction{}
	return nil
}
