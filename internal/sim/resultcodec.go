package sim

// The stored form of a Result (DESIGN.md §12): one walk over
// internal/statecodec, like a checkpoint's, that serves both
// directions. internal/resultcache stores these bytes, so a disk-tier
// read is a flat decode with no reflection and no type engine to
// build.
//
// Everything a Result holds is walked except what no stored result
// keeps: a reuse profiler's access history (only its Hist, Cold and
// Total) and a probe report's retained trace spans. Floats travel as
// their IEEE 754 bits, so every value round-trips exactly. A nil
// pointer, slice or map stays nil and an empty one stays empty, since
// the JSON form renders them differently (null against [] or {}).
// Every value has one encoding, so a decoded result re-encodes to the
// bytes it came from.
//
// The wire format, in walk order (u = uvarint, i = zigzag varint,
// s = string, f = float64 bits as a uvarint, [..] = a length, then
// that many elements, ? = a presence byte, then the section when it
// is 1):
//
//	result  = "GSMRESULT" u:resultVersion s:benchmark u:cycles
//	          u:instructions [u:requests by kind] [u:bytes by kind]
//	          u:rowHits u:rowMisses cache-stats:L1 cache-stats:L2
//	          [u:accesses u:missesPrimary u:missesSecondary]
//	          u:metaCacheWritebacks ?reuse:counter ?reuse:mac
//	          u:peakBandwidthBytes faults ?probe
//	reuse   = [u:hist] u:cold u:total
//	faults  = [u:injected by site] u:detected u:silent u:dropped
//	          u:duplicated
//	probe   = ?spans ?[sample] u:timelineDropped
//	spans   = u:spans u:unbalanced u:dropped ?[kind]
//	kind    = s:kind u:spans u:totalCycles f:meanLatency u:p50 u:p95
//	          u:p99 u:maxLatency ?[s:stage u:cycles f:share]
//	sample  = u:cycle u:instructions f:ipc u:dramReads u:dramWrites
//	          f:rowHitRate ?[s:kind u:bytes] ?[s:kind u:requests]
//	          f:ctrMissRate f:macMissRate f:treeMissRate i:metaMSHRs
//	          i:l2MSHRs i:dramQueue i:busyBanks i:outstandingLoads
//	          i:blockedWarps
//
// cache-stats is cache.Stats.Walk, reuse is stats.ReuseProfiler
// .WalkCounts and sample is probe.Sample.Walk, the forms checkpoints
// walk too. The fixed-size arrays carry their length, so a result from
// a build with another number of traffic kinds, metadata kinds, reuse
// buckets or fault sites is refused. A sample's maps list their keys
// in strictly ascending order.

import (
	"fmt"

	"gpusecmem/internal/probe"
	"gpusecmem/internal/statecodec"
	"gpusecmem/internal/stats"
)

// resultVersion tags the stored-result wire format. Bump it, and
// resultcache.Schema, whenever the walk adds, drops or reorders a
// field or changes what one means.
const resultVersion = 1

const resultMagic = "GSMRESULT"

// Minimum encoded sizes of the variable-length elements, one byte per
// walked field.
const (
	minKindBreakdown = 9 // kind, seven numbers, stages
	minStageShare    = 3 // stage, cycles, share
)

// EncodeResult returns r's stored form.
func EncodeResult(r *Result) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("sim: encoding a nil result")
	}
	c := statecodec.NewEncoder(resultMagic, resultVersion)
	r.walk(c)
	return c.Finish()
}

// DecodeResult decodes a stored result. It refuses another magic or
// version, truncated, trailing or non-canonical bytes, and never
// panics.
func DecodeResult(b []byte) (*Result, error) {
	r := new(Result)
	c := statecodec.NewDecoder(b, resultMagic, resultVersion)
	if c.Err() == nil {
		r.walk(c)
	}
	if _, err := c.Finish(); err != nil {
		return nil, fmt.Errorf("sim: decoding result: %w", err)
	}
	return r, nil
}

// walk encodes or decodes r (see the wire format above). Decoding
// expects a zero Result.
func (r *Result) walk(c *statecodec.Codec) {
	c.String(&r.Benchmark)
	c.U64(&r.Cycles)
	c.U64(&r.Instructions)
	c.FixedU64s(r.RequestsByKind[:], "traffic kinds")
	c.FixedU64s(r.BytesByKind[:], "traffic kinds")
	c.U64(&r.RowHits)
	c.U64(&r.RowMisses)
	r.L1.Walk(c)
	r.L2.Walk(c)
	c.FixedLen(len(r.Meta), "metadata kinds")
	for i := range r.Meta {
		m := &r.Meta[i]
		c.U64(&m.Accesses)
		c.U64(&m.MissesPrimary)
		c.U64(&m.MissesSecondary)
	}
	c.U64(&r.MetaCacheWritebacks)
	walkPtr(c, &r.CounterReuse, walkReuse)
	walkPtr(c, &r.MACReuse, walkReuse)
	c.U64(&r.PeakBandwidthBytes)
	f := &r.Faults
	c.FixedU64s(f.Injected[:], "fault sites")
	for _, p := range [...]*uint64{&f.Detected, &f.Silent, &f.DroppedReplies, &f.DuplicatedReplies} {
		c.U64(p)
	}
	walkPtr(c, &r.Probe, walkProbe)
}

func walkReuse(c *statecodec.Codec, p *stats.ReuseProfiler) { p.WalkCounts(c) }

func walkProbe(c *statecodec.Codec, p *probe.Report) {
	walkPtr(c, &p.Spans, walkSpans)
	walkSlice(c, &p.Timeline, probe.MinSampleBytes)
	for i := range p.Timeline {
		p.Timeline[i].Walk(c)
	}
	c.U64(&p.TimelineDropped)
}

func walkSpans(c *statecodec.Codec, s *probe.SpansReport) {
	c.U64(&s.Spans)
	c.U64(&s.Unbalanced)
	c.U64(&s.Dropped)
	walkSlice(c, &s.Kinds, minKindBreakdown)
	for i := range s.Kinds {
		k := &s.Kinds[i]
		c.String(&k.Kind)
		c.U64(&k.Spans)
		c.U64(&k.TotalCycles)
		c.F64(&k.MeanLatency)
		for _, p := range [...]*uint64{&k.P50, &k.P95, &k.P99, &k.MaxLatency} {
			c.U64(p)
		}
		walkSlice(c, &k.Stages, minStageShare)
		for j := range k.Stages {
			st := &k.Stages[j]
			c.String(&st.Stage)
			c.U64(&st.Cycles)
			c.F64(&st.Share)
		}
	}
}

// walkPtr walks whether *p is set, then, when it is, its value with
// elem. A decoder allocates the value.
func walkPtr[T any](c *statecodec.Codec, p **T, elem func(*statecodec.Codec, *T)) {
	some := *p != nil
	c.Bool(&some)
	if !some {
		return
	}
	if c.Decoding() {
		*p = new(T)
	}
	elem(c, *p)
}

// walkSlice walks whether *s is nil, then, when it is not, its length,
// and sizes a decoded *s to it; the caller walks the elements.
func walkSlice[E any](c *statecodec.Codec, s *[]E, minElem int) {
	some := *s != nil
	c.Bool(&some)
	if !some {
		return
	}
	statecodec.Slice(c, s, minElem)
	if c.Decoding() && *s == nil {
		*s = []E{}
	}
}
