package cache

// Checkpoint snapshot/restore. A State is a deep copy of everything
// that determines a cache's future behavior: tag arrays with
// replacement state, MSHR entries with their merged tokens, the
// bypass-tracking table, the LRU sequence counter, the DIP/BRRIP
// policy counters, and the statistics. Scratch (the entry pool, token
// scratch, eviction scratch) is deliberately excluded: it only
// recycles capacity and never carries behavior, so Restore simply
// resets it — which is also why a restored cache is behaviorally
// identical to one that never stopped.
//
// Maps are serialized as slices sorted by key so the same machine
// state always encodes to the same bytes (checkpoint digests are
// compared across runs).

import (
	"cmp"
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
	// Sets is the tag array for set-associative caches (numSets rows of
	// assoc ways); nil for Unlimited/Perfect caches, which carry Dir
	// instead (sorted by tag).
	Sets [][]WayState
	Dir  []WayState

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
		for _, w := range c.dir {
			st.Dir = append(st.Dir, wayState(w))
		}
		slices.SortFunc(st.Dir, func(a, b WayState) int { return cmp.Compare(a.Tag, b.Tag) })
	} else {
		st.Sets = make([][]WayState, c.numSets)
		for i := range st.Sets {
			set := c.set(i)
			row := make([]WayState, len(set))
			for j := range set {
				row[j] = wayState(&set[j])
			}
			st.Sets[i] = row
		}
	}
	if len(c.mshrs) > 0 {
		st.MSHRs = make([]MSHRState, 0, len(c.mshrs))
		for _, e := range c.mshrs {
			m := MSHRState{
				LineAddr:      e.lineAddr,
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
		slices.SortFunc(st.MSHRs, func(a, b MSHRState) int { return cmp.Compare(a.LineAddr, b.LineAddr) })
	}
	if len(c.pendingBypass) > 0 {
		st.PendingBypass = make([]BypassState, 0, len(c.pendingBypass))
		for k, n := range c.pendingBypass {
			st.PendingBypass = append(st.PendingBypass, BypassState{Key: k, Count: n})
		}
		slices.SortFunc(st.PendingBypass, func(a, b BypassState) int { return cmp.Compare(a.Key, b.Key) })
	}
	return st
}

// Restore replaces the cache's state with a snapshot taken from a
// cache of identical configuration. Geometry is validated against the
// receiver (a snapshot from a differently shaped cache is rejected);
// scratch and pools are reset. On error the cache must be considered
// unusable — restore into a freshly constructed instance.
func (c *Cache) Restore(st *State) error {
	if c.dir != nil {
		if st.Sets != nil {
			return fmt.Errorf("cache %s: snapshot has a tag array but the cache is unlimited/perfect", c.cfg.Name)
		}
		dir := make(map[uint64]*way, len(st.Dir))
		for i := range st.Dir {
			w := st.Dir[i].toWay()
			dir[w.tag] = &w
		}
		c.dir = dir
	} else {
		if len(st.Sets) != c.numSets {
			return fmt.Errorf("cache %s: snapshot has %d sets, cache has %d", c.cfg.Name, len(st.Sets), c.numSets)
		}
		for i, row := range st.Sets {
			if len(row) != c.assoc {
				return fmt.Errorf("cache %s: snapshot set %d has %d ways, cache has %d", c.cfg.Name, i, len(row), c.assoc)
			}
			set := c.set(i)
			for j := range row {
				set[j] = row[j].toWay()
			}
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
