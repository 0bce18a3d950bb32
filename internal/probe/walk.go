package probe

// The probe's walks over internal/statecodec. A timeline Sample has one
// wire form, walked by stored results and checkpoints alike. State.Walk
// carries a run's live instruments in a checkpoint, so a probed run
// resumes with the histograms, span records and timeline windows it
// had, and reports what the uninterrupted run reports.

import (
	"math"
	"slices"

	"gpusecmem/internal/statecodec"
)

// MinSampleBytes is the fewest bytes a walked Sample takes: fifteen
// numbers and two map presence bytes.
const MinSampleBytes = 17

// Minimum encoded sizes of the other variable-length elements, one
// byte per walked field.
const (
	minCount  = 2                  // key, value
	minRecord = 3 + int(NumStages) // kind, part, start, stages
)

// Walk encodes or decodes s (see internal/statecodec). Its maps are a
// presence byte, then, when present, their entries in strictly
// ascending key order: a nil map stays nil and an empty one empty.
func (s *Sample) Walk(c *statecodec.Codec) {
	c.U64(&s.Cycle)
	c.U64(&s.Instructions)
	c.F64(&s.IPC)
	c.U64(&s.DRAMReads)
	c.U64(&s.DRAMWrites)
	c.F64(&s.RowHitRate)
	walkCounts(c, &s.Bytes)
	walkCounts(c, &s.Requests)
	for _, p := range [...]*float64{&s.CtrMissRate, &s.MACMissRate, &s.TreeMissRate} {
		c.F64(p)
	}
	for _, p := range [...]*int{&s.MetaMSHRs, &s.L2MSHRs, &s.DRAMQueue, &s.BusyBanks, &s.OutstandingLoads, &s.BlockedWarps} {
		c.Int(p)
	}
}

// walkCounts walks a per-kind counter map: whether it is nil, then its
// entries in strictly ascending key order. A decoder refuses any other
// order, which would give the map a second encoding.
func walkCounts(c *statecodec.Codec, m *map[string]uint64) {
	some := *m != nil
	c.Bool(&some)
	if !some {
		return
	}
	n := len(*m)
	c.Len(&n, minCount)
	if !c.Decoding() {
		keys := make([]string, 0, n)
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			v := (*m)[k]
			c.String(&k)
			c.U64(&v)
		}
		return
	}
	*m = make(map[string]uint64, n)
	var prev string
	for i := 0; i < n; i++ {
		var k string
		var v uint64
		c.String(&k)
		c.U64(&v)
		if i > 0 && k <= prev {
			c.Fail("counter key %q is out of order or duplicated", k)
		}
		prev = k
		(*m)[k] = v
	}
}

// Walk encodes or decodes the live instruments for a checkpoint: the
// span collector's section when spans are collected, then the
// timeline's when it samples. Decoding expects a State that NewState
// built from the same Config, at machine cycle now, and checks every
// value against it.
func (s *State) Walk(c *statecodec.Codec, now uint64) {
	if s.Spans != nil {
		s.Spans.walk(c, now)
	}
	if s.Timeline != nil {
		s.Timeline.walk(c, now)
	}
}

// walk encodes or decodes one histogram. A decoder refuses buckets
// that do not hold Count observations.
func (h *Hist) walk(c *statecodec.Codec) {
	c.FixedU64s(h.Buckets[:], "histogram buckets")
	c.U64(&h.Count)
	c.U64(&h.Sum)
	c.U64(&h.Max)
	if !c.Decoding() {
		return
	}
	var n uint64
	for _, b := range h.Buckets {
		n += b
	}
	if n != h.Count {
		c.Fail("histogram buckets hold %d observations, its count is %d", n, h.Count)
	}
}

// walk encodes or decodes the collector: per kind its latency
// histogram, stage histograms and stage cycles; the span, unbalanced
// and dropped counts; then the retained records in recording order.
func (sc *SpanCollector) walk(c *statecodec.Codec, now uint64) {
	c.FixedLen(len(sc.kinds), "span kinds")
	if c.Err() != nil {
		return
	}
	var perKind uint64
	for k := range sc.kinds {
		sc.latency[k].walk(c)
		for st := range sc.stageHist[k] {
			sc.stageHist[k][st].walk(c)
		}
		c.FixedU64s(sc.stageCycles[k][:], "span stages")
		perKind += sc.latency[k].Count
	}
	c.U64(&sc.spans)
	c.U64(&sc.unbalanced)
	c.U64(&sc.dropped)
	if c.Decoding() && perKind != sc.spans {
		c.Fail("per-kind span counts sum to %d, the collector counts %d spans", perKind, sc.spans)
	}

	n := len(sc.records)
	c.Len(&n, minRecord)
	if c.Decoding() {
		if n > sc.traceCap {
			c.Fail("%d span records, the trace cap is %d", n, sc.traceCap)
			n = 0
		}
		sc.records = make([]SpanRecord, n)
	}
	for i := range sc.records {
		r := &sc.records[i]
		part := uint64(r.Part)
		c.Byte(&r.Kind)
		c.U64(&part)
		c.U64(&r.Start)
		for st := range r.Stages {
			d := uint64(r.Stages[st])
			c.U64(&d)
			if c.Decoding() {
				if d > math.MaxUint32 {
					c.Fail("span record stage of %d cycles overflows its field", d)
				}
				r.Stages[st] = uint32(d)
			}
		}
		if !c.Decoding() {
			continue
		}
		switch {
		case int(r.Kind) >= len(sc.kinds):
			c.Fail("span record of kind %d, the collector has %d", r.Kind, len(sc.kinds))
		case part > math.MaxUint16:
			c.Fail("span record for partition %d overflows its field", part)
		case r.Start > now:
			c.Fail("span record starts at cycle %d, after the machine's cycle %d", r.Start, now)
		}
		r.Part = uint16(part)
	}
	// Once the cap is reached every later span is dropped instead of
	// recorded, so the records and drops account for every span.
	switch {
	case !c.Decoding():
	case sc.traceCap == 0 && sc.dropped != 0:
		c.Fail("%d span records dropped by a collector that keeps none", sc.dropped)
	case sc.traceCap > 0 && uint64(len(sc.records))+sc.dropped != sc.spans:
		c.Fail("%d span records and %d dropped, the collector counts %d spans", len(sc.records), sc.dropped, sc.spans)
	}
}

// walk encodes or decodes the timeline: its retained samples in
// chronological order, the evicted-window count, then, once a window
// has closed, the totals the next window is differenced against. The
// ring's rotation is not encoded: a decoded ring starts at head 0,
// which orders the same samples the same way.
func (t *Timeline) walk(c *statecodec.Codec, now uint64) {
	n := len(t.samples)
	c.Len(&n, MinSampleBytes)
	if c.Decoding() {
		if n > t.capacity {
			c.Fail("%d timeline samples, the ring holds %d", n, t.capacity)
			n = 0
		}
		t.samples, t.head = make([]Sample, n), 0
	}
	var last uint64
	for i := range n {
		s := &t.samples[(t.head+i)%n]
		s.Walk(c)
		if !c.Decoding() {
			continue
		}
		switch {
		case s.Cycle <= last:
			c.Fail("timeline sample at cycle %d does not follow cycle %d", s.Cycle, last)
		case s.Cycle > now:
			c.Fail("timeline sample at cycle %d, after the machine's cycle %d", s.Cycle, now)
		}
		last = s.Cycle
	}
	c.U64(&t.dropped)
	if c.Decoding() && t.dropped > 0 && n < t.capacity {
		c.Fail("%d timeline windows evicted from a ring that is not full", t.dropped)
	}
	if n == 0 {
		return
	}
	p := &t.prev
	for _, v := range [...]*uint64{&p.Instructions, &p.DRAMReads, &p.DRAMWrites, &p.RowHits, &p.RowMisses} {
		c.U64(v)
	}
	if c.Decoding() {
		t.havePrev = true
		p.BytesByKind = make([]uint64, len(t.kinds))
		p.RequestsByKind = make([]uint64, len(t.kinds))
	}
	c.FixedU64s(p.BytesByKind, "timeline kinds")
	c.FixedU64s(p.RequestsByKind, "timeline kinds")
	c.FixedU64s(p.MetaAccesses[:], "timeline metadata kinds")
	c.FixedU64s(p.MetaMisses[:], "timeline metadata kinds")
}
