package dram

// Checkpointing (DESIGN.md §14). The waiting requests are walked in
// age order, the FR-FCFS window first and then the backlog; a decode
// rebuilds the queue from them at the array's front and recounts the
// window's banks (inWin), derived state the wire does not carry. The
// completion heap is walked in raw heap layout so equal-time
// completions keep their pop order (see eventq.Queue.Heap).

import (
	"slices"

	"gpusecmem/internal/statecodec"
)

// Walk encodes or decodes the channel's state (see statecodec).
// Decoding expects a channel built from the same Config and refuses a
// foreign bank count, a request of no bytes or more than maxBytes, and
// a traffic kind outside [0, kinds); on error the channel is unusable.
func (d *DRAM) Walk(c *statecodec.Codec, kinds, maxBytes int) {
	n := d.QueueLen()
	c.Len(&n, 5) // addr, bytes, write, token, kind
	if c.Decoding() {
		d.queue = slices.Grow(d.queue[:0], n)[:n]
		clear(d.queue)
		d.head = 0
		clear(d.inWin)
	}
	for i := d.head; i < len(d.queue); i++ {
		p := &d.queue[i]
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
			if i < scanDepth {
				d.inWin[p.bank]++
			}
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
