package dram

// Checkpointing (DESIGN.md §14). Tombstoned queue entries are left
// out: the FR-FCFS scheduler and NextEvent skip dead entries and count
// only live ones against the scan window, so a queue rebuilt from the
// live entries in order behaves identically to the original
// (compaction thresholds differ, but compaction is invisible to
// scheduling). The completion heap is walked in raw heap layout so
// equal-time completions keep their pop order (see eventq.Queue.Heap).

import (
	"slices"

	"gpusecmem/internal/statecodec"
)

// Walk encodes or decodes the channel's state (see statecodec).
// Decoding expects a channel built from the same Config and refuses a
// foreign bank count, a request of no bytes or more than maxBytes, and
// a traffic kind outside [0, kinds); on error the channel is unusable.
func (d *DRAM) Walk(c *statecodec.Codec, kinds, maxBytes int) {
	n := d.live
	c.Len(&n, 5) // addr, bytes, write, token, kind
	if c.Decoding() {
		d.queue = slices.Grow(d.queue[:0], n)[:n]
		clear(d.queue)
		d.head, d.live = 0, n
	}
	for i := d.head; i < len(d.queue); i++ {
		p := &d.queue[i]
		if p.dead {
			continue
		}
		r := &p.req
		c.U64(&r.Addr)
		c.Int(&r.Bytes)
		c.Bool(&r.Write)
		c.U64(&r.Token)
		c.Int(&r.Kind)
		if c.Decoding() {
			switch {
			case r.Bytes <= 0 || r.Bytes > maxBytes:
				c.Fail("dram: queued request of %d bytes, want 1..%d", r.Bytes, maxBytes)
			case r.Kind < 0 || r.Kind >= kinds:
				c.Fail("dram: queued request of kind %d, want 0..%d", r.Kind, kinds-1)
			}
			*p = d.pendingFor(*r)
		}
	}
	c.FixedU64s(d.bankBusy3, "bank busy times")
	c.FixedU64s(d.bankRow, "open rows")
	c.U64(&d.busFree3)
	compl := d.compl.Heap()
	statecodec.Slice(c, compl, 2)
	for i := range *compl {
		e := &(*compl)[i]
		c.U64(&e.at3)
		c.U64(&e.token)
	}
	s := &d.Stats
	for _, p := range [...]*uint64{&s.Reads, &s.Writes, &s.BytesRead, &s.BytesWrite, &s.RowHits, &s.RowMisses} {
		c.U64(p)
	}
	c.U64s(&s.RequestsByKind)
	c.U64s(&s.BytesByKind)
	if c.Decoding() && (len(s.RequestsByKind) != len(s.BytesByKind) || len(s.RequestsByKind) > kinds) {
		c.Fail("dram: %d request and %d byte counters for %d kinds", len(s.RequestsByKind), len(s.BytesByKind), kinds)
	}
	c.Int(&s.PeakQueue)
}
