package sim

// The machine-state codec: EncodeState/DecodeState and the wire format
// of a MachineState (DESIGN.md §14).
//
// The format is flat, hand-written and reflection-free:
//
//	state   = magic version body
//	magic   = "GSMSTATE"
//	version = uvarint (MachineState.Version)
//	body    = every MachineState field in declaration order
//
// Inside the body a uint64 is a uvarint, an int a zigzag varint, a
// bool one byte (0 or 1), a uint8 one raw byte and a string or slice a
// uvarint length followed by its bytes or elements. Fixed-size arrays
// (MetaStats) carry no length. A nil-able cache state (a partition's
// Ctr, MAC and Tree) is preceded by a presence byte. A way's four
// SectorValid flags and four SectorDirty flags share one byte (valid in
// bits 0-3, dirty in bits 4-7), as do an MSHR's SectorPending and
// SectorWrite flags; other structs' bools are packed the same way,
// bit i for their i-th bool field.
//
// Keys are gap-coded. The elements of a key-sorted slice (Loads,
// Dests, Reads, MSHRs, PendingBypass, a directory's tags) and a tag
// array's line indices are strictly ascending, so each key is written
// as its distance from the smallest key it may take: the first key
// whole, each later one as key - previous - 1. A duplicated or
// unordered key has no encoding (EncodeState refuses it), and a gap
// mostly fits in one byte where an absolute token takes five or six. A
// cache's tag array is sparse: its shape (NumSets, Assoc), then only
// the ways that differ from the zero way, by flat index.
//
// Every value has exactly one encoding — varints are minimal, flag
// bytes have no unused bits set — so identical states encode to
// identical bytes and any input DecodeState accepts re-encodes to
// itself. Empty and nil slices encode alike and decode as nil.
//
// DecodeState fails closed. It checks the magic and the version before
// anything else (so a gob-encoded state from StateVersion 2 and the
// dense tag arrays of StateVersion 3 are refused up front), bounds
// every length by the bytes left (each element encodes to at least its
// zero value's size, so a forged length cannot allocate more than a
// small multiple of the input), refuses a key gap that overflows 64
// bits, a line index outside its cache's shape and a listed zero way,
// rejects trailing bytes and never panics.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"gpusecmem/internal/cache"
	"gpusecmem/internal/dram"
	"gpusecmem/internal/icnt"
	"gpusecmem/internal/smcore"
)

const stateMagic = "GSMSTATE"

// encodeBufs recycles EncodeState's scratch buffers, so an encode
// allocates only its exact-size result instead of growing a buffer
// through every power of two up to a megabyte-sized state.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// EncodeState serializes a MachineState in the flat format above,
// stamped with st.Version. Identical states encode to identical bytes:
// maps are key-sorted slices in the state, heaps are in raw layout, and
// the format has one encoding per value. It refuses a state whose keys
// or line indices are not strictly ascending, which Snapshot never
// produces and the format cannot represent.
func EncodeState(st *MachineState) ([]byte, error) {
	buf := encodeBufs.Get().(*[]byte)
	e := stateEncoder{b: append((*buf)[:0], stateMagic...)}
	e.uvarint(uint64(st.Version))
	e.machine(st)
	out := append([]byte(nil), e.b...)
	*buf = e.b
	encodeBufs.Put(buf)
	if e.err != nil {
		return nil, fmt.Errorf("sim: encoding machine state: %w", e.err)
	}
	return out, nil
}

// DecodeState deserializes a MachineState produced by EncodeState. It
// refuses any other magic or version, truncated or trailing bytes and
// non-canonical encodings.
func DecodeState(b []byte) (*MachineState, error) {
	if len(b) < len(stateMagic) || string(b[:len(stateMagic)]) != stateMagic {
		return nil, errors.New("sim: decoding machine state: not a machine state (bad magic)")
	}
	d := stateDecoder{b: b, off: len(stateMagic)}
	if v := d.uvarint(); d.err == nil && v != StateVersion {
		return nil, fmt.Errorf("sim: decoding machine state: snapshot version %d, want %d", v, StateVersion)
	}
	st := d.machine()
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	if d.err != nil {
		return nil, fmt.Errorf("sim: decoding machine state: %w", d.err)
	}
	st.Version = StateVersion
	return st, nil
}

// stateEncoder appends the wire form of a MachineState to b. err
// records the first unordered key; the encoding carries on regardless
// (writing the gap modulo 2^64), so tests can build such inputs.
type stateEncoder struct {
	b   []byte
	err error
}

func (e *stateEncoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *stateEncoder) int(v int)        { e.b = binary.AppendVarint(e.b, int64(v)) }
func (e *stateEncoder) byte(v byte)      { e.b = append(e.b, v) }
func (e *stateEncoder) len(n int)        { e.uvarint(uint64(n)) }

func (e *stateEncoder) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// keySeq is the running position in a gap-coded key sequence.
type keySeq struct {
	next uint64 // the smallest key the next element may take
	full bool   // the previous key was 2^64-1, so none may follow
}

// key writes k as its gap from the smallest key it may take.
func (e *stateEncoder) key(s *keySeq, k uint64) {
	if (s.full || k < s.next) && e.err == nil {
		e.err = fmt.Errorf("key %d is out of order or duplicated", k)
	}
	e.uvarint(k - s.next)
	s.next, s.full = k+1, k == math.MaxUint64
}

func (e *stateEncoder) uint64s(vs []uint64) {
	e.len(len(vs))
	for _, v := range vs {
		e.uvarint(v)
	}
}

func (e *stateEncoder) machine(st *MachineState) {
	e.len(len(st.Benchmark))
	e.b = append(e.b, st.Benchmark...)
	for _, v := range [...]uint64{st.Now, st.TokenSeq, st.Stepped, st.CompletedLoads,
		st.LastProgress, st.LastProgressAt, st.MaxProgressGap} {
		e.uvarint(v)
	}
	e.len(len(st.Loads))
	var toks keySeq
	for _, l := range st.Loads {
		e.key(&toks, l.Token)
		e.int(l.SM)
		e.int(l.Warp)
		e.bool(l.FillBypass)
	}
	e.uint64s(st.SMWake)
	e.uint64s(st.SMLastTick)
	e.uint64s(st.PartNext)
	e.len(len(st.ToL2Items))
	for _, q := range st.ToL2Items {
		e.uvarint(q.ReadyAt)
		e.uvarint(q.Addr)
		e.uvarint(q.Token)
		e.bool(q.Write)
	}
	e.icntStats(st.ToL2Stats)
	e.len(len(st.ToSMItems))
	for _, q := range st.ToSMItems {
		e.uvarint(q.ReadyAt)
		e.uvarint(q.Addr)
		e.uvarint(q.Token)
	}
	e.icntStats(st.ToSMStats)
	e.len(len(st.SMs))
	for _, sm := range st.SMs {
		e.sm(sm)
	}
	e.len(len(st.L1s))
	for _, c := range st.L1s {
		e.cache(c)
	}
	e.len(len(st.Parts))
	for _, p := range st.Parts {
		e.partition(p)
	}
}

func (e *stateEncoder) icntStats(s icnt.Stats) {
	e.uvarint(s.Pushed)
	e.uvarint(s.Delivered)
	e.uvarint(s.Dropped)
	e.uvarint(s.Duplicated)
}

func (e *stateEncoder) sm(st *smcore.State) {
	e.len(len(st.Warps))
	for i := range st.Warps {
		w := &st.Warps[i]
		e.int(w.Iter)
		e.int(w.Op.ComputeInstrs)
		e.int(w.Op.ComputeSpacing)
		e.uint64s(w.Op.Sectors)
		e.bool(w.Op.Write)
		e.int(w.Op.ActiveLanes)
		e.int(w.Phase)
		e.int(w.ComputeLeft)
		e.uvarint(w.ReadyAt)
		e.int(w.Outstanding)
		e.uvarint(w.LastIssued)
	}
	e.int(st.Greedy)
	e.uvarint(st.Instructions)
	e.uvarint(st.Stalls)
	e.uvarint(st.MemOps)
}

// way writes a way's fields after its tag, which the caller writes:
// whole for a tag-array line, gap-coded for a directory line.
func (e *stateEncoder) way(w *cache.WayState) {
	e.bool(w.Valid)
	e.uvarint(w.LastUse)
	e.byte(w.RRPV)
	e.byte(packSectors(w.SectorValid, w.SectorDirty))
}

func (e *stateEncoder) cache(st *cache.State) {
	e.int(st.NumSets)
	e.int(st.Assoc)
	e.len(len(st.Lines))
	var idx keySeq
	for i := range st.Lines {
		l := &st.Lines[i]
		e.key(&idx, uint64(l.Index))
		e.uvarint(l.Tag)
		e.way(&l.WayState)
	}
	e.len(len(st.Dir))
	var tags keySeq
	for i := range st.Dir {
		e.key(&tags, st.Dir[i].Tag)
		e.way(&st.Dir[i])
	}
	e.uvarint(st.Seq)
	e.len(len(st.MSHRs))
	var lines keySeq
	for i := range st.MSHRs {
		m := &st.MSHRs[i]
		e.key(&lines, m.LineAddr)
		e.byte(packSectors(m.SectorPending, m.SectorWrite))
		for _, toks := range m.Tokens {
			e.uint64s(toks)
		}
		e.int(m.Merged)
	}
	e.int(st.MSHRFree)
	e.len(len(st.PendingBypass))
	var units keySeq
	for _, pb := range st.PendingBypass {
		e.key(&units, pb.Key)
		e.int(pb.Count)
	}
	e.int(st.PSel)
	e.uvarint(st.BRRIPTick)
	s := &st.Stats
	for _, v := range [...]uint64{s.Accesses, s.Hits, s.MissesPrimary, s.MissesSecondary,
		s.MissesBypass, s.Fills, s.Evictions, s.Writebacks} {
		e.uvarint(v)
	}
}

func (e *stateEncoder) optCache(st *cache.State) {
	e.bool(st != nil)
	if st != nil {
		e.cache(st)
	}
}

func (e *stateEncoder) dram(st *dram.State) {
	e.len(len(st.Queue))
	for _, r := range st.Queue {
		e.uvarint(r.Addr)
		e.int(r.Bytes)
		e.bool(r.Write)
		e.uvarint(r.Token)
		e.int(r.Kind)
	}
	e.uint64s(st.BankBusy3)
	e.uint64s(st.BankRow)
	e.uvarint(st.BusFree3)
	e.len(len(st.Completions))
	for _, c := range st.Completions {
		e.uvarint(c.At3)
		e.uvarint(c.Token)
	}
	s := &st.Stats
	for _, v := range [...]uint64{s.Reads, s.Writes, s.BytesRead, s.BytesWrite, s.RowHits, s.RowMisses} {
		e.uvarint(v)
	}
	e.uint64s(s.RequestsByKind)
	e.uint64s(s.BytesByKind)
	e.int(s.PeakQueue)
}

func (e *stateEncoder) partition(st *PartitionState) {
	e.len(len(st.Banks))
	for _, b := range st.Banks {
		e.cache(b)
	}
	e.dram(st.DRAM)
	e.optCache(st.Ctr)
	e.optCache(st.MAC)
	e.optCache(st.Tree)
	e.bool(st.UnifiedAlias)
	e.uint64s(st.AESFree3)
	e.uvarint(st.MACFree3)
	e.len(len(st.Dests))
	var toks keySeq
	for _, d := range st.Dests {
		e.key(&toks, d.Token)
		e.int(d.Kind)
		e.uvarint(d.Addr)
		e.uvarint(d.ReadID)
		e.byte(packBools(d.Bypass, d.Write))
		e.uvarint(d.IssuedAt)
	}
	e.len(len(st.Reads))
	var ids keySeq
	for i := range st.Reads {
		r := &st.Reads[i]
		e.key(&ids, r.ID)
		e.uvarint(r.GlobalAddr)
		e.uvarint(r.LocalAddr)
		e.uvarint(r.L2Token)
		e.int(r.L2Bank)
		e.int(r.SharesLeft)
		e.byte(packBools(r.L2Bypass, r.DataDone, r.CtrDone, r.MacDone, r.Unprotected, r.Replied, r.Finished))
		for _, v := range [...]uint64{r.ArrivedAt, r.DataReady, r.CtrReady, r.MacReady} {
			e.uvarint(v)
		}
	}
	e.len(len(st.Replies))
	for _, ev := range st.Replies {
		e.uvarint(ev.At)
		e.uvarint(ev.ReadID)
	}
	for _, m := range st.MetaStats {
		e.uvarint(m.Accesses)
		e.uvarint(m.MissesPrimary)
		e.uvarint(m.MissesSecondary)
	}
	for _, v := range [...]uint64{st.FaultDetected, st.FaultSilent, st.LocalTok, st.LastKeyLine} {
		e.uvarint(v)
	}
}

// packSectors packs two per-sector flag arrays into one byte, lo in
// the low bits and hi above them.
func packSectors(lo, hi [cache.SectorsPerLine]bool) byte {
	var b byte
	for i := range lo {
		if lo[i] {
			b |= 1 << i
		}
		if hi[i] {
			b |= 1 << (i + cache.SectorsPerLine)
		}
	}
	return b
}

// packBools sets bit i for the i-th true flag (at most eight).
func packBools(flags ...bool) byte {
	var b byte
	for i, f := range flags {
		if f {
			b |= 1 << i
		}
	}
	return b
}

// stateDecoder reads the wire form back. The first error sticks and
// every later length reads as 0, so the decode runs to completion
// without allocating further and DecodeState reports that first error.
type stateDecoder struct {
	b   []byte
	off int
	err error
}

func (d *stateDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("byte %d: "+format, append([]any{d.off}, args...)...)
	}
}

// uvarint reads a minimally encoded uvarint. One-byte values, most of
// a state, take the inlined fast path.
func (d *stateDecoder) uvarint() uint64 {
	if d.off < len(d.b) && d.b[d.off] < 0x80 {
		d.off++
		return uint64(d.b[d.off-1])
	}
	return d.uvarintSlow()
}

func (d *stateDecoder) uvarintSlow() uint64 {
	var x uint64
	for i, s := 0, uint(0); ; i, s = i+1, s+7 {
		if d.off >= len(d.b) {
			d.fail("truncated")
			return 0
		}
		c := d.b[d.off]
		d.off++
		if c < 0x80 {
			switch {
			case i > 0 && c == 0:
				d.fail("non-minimal varint")
				return 0
			case i == binary.MaxVarintLen64-1 && c > 1:
				d.fail("varint overflows 64 bits")
				return 0
			}
			return x | uint64(c)<<s
		}
		if i == binary.MaxVarintLen64-1 {
			d.fail("varint overflows 64 bits")
			return 0
		}
		x |= uint64(c&0x7f) << s
	}
}

// key reads a gap-coded key, refusing a gap that carries it past
// 2^64-1.
func (d *stateDecoder) key(s *keySeq) uint64 {
	gap := d.uvarint()
	if s.full || gap > math.MaxUint64-s.next {
		d.fail("key gap %d overflows 64 bits", gap)
		return 0
	}
	k := s.next + gap
	s.next, s.full = k+1, k == math.MaxUint64
	return k
}

func (d *stateDecoder) int() int {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	if int64(int(v)) != v {
		d.fail("int %d out of range", v)
		return 0
	}
	return int(v)
}

func (d *stateDecoder) byte() byte {
	if d.off >= len(d.b) {
		d.fail("truncated")
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

func (d *stateDecoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("bool byte is not 0 or 1")
	return false
}

// flags unpacks a packBools byte of n flags, rejecting unused bits.
func (d *stateDecoder) flags(n int) [8]bool {
	b := d.byte()
	if b>>n != 0 {
		d.fail("flag byte %#x has unused bits set", b)
		return [8]bool{}
	}
	var f [8]bool
	for i := range f {
		f[i] = b&(1<<i) != 0
	}
	return f
}

// sectors unpacks a packSectors byte.
func (d *stateDecoder) sectors() (lo, hi [cache.SectorsPerLine]bool) {
	b := d.byte()
	for i := range lo {
		lo[i] = b&(1<<i) != 0
		hi[i] = b&(1<<(i+cache.SectorsPerLine)) != 0
	}
	return lo, hi
}

// len reads a slice length whose elements encode to at least minElem
// bytes each, and refuses one the remaining input cannot hold.
func (d *stateDecoder) len(minElem int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64((len(d.b)-d.off)/minElem) {
		d.fail("length %d exceeds the %d bytes left", n, len(d.b)-d.off)
		return 0
	}
	return int(n)
}

func (d *stateDecoder) uint64s() []uint64 {
	n := d.len(1)
	if n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = d.uvarint()
	}
	return vs
}

// Minimum encoded sizes of the variable-length elements, measured as
// the encoding of their zero value (every field's shortest form).
var (
	minSM        = encodedLen(func(e *stateEncoder) { e.sm(&smcore.State{}) })
	minWarp      = encodedLen(func(e *stateEncoder) { e.sm(&smcore.State{Warps: make([]smcore.WarpState, 1)}) }) - minSM
	minCache     = encodedLen(func(e *stateEncoder) { e.cache(&cache.State{}) })
	minLine      = encodedLen(func(e *stateEncoder) { e.cache(&cache.State{Lines: make([]cache.LineState, 1)}) }) - minCache
	minDirWay    = encodedLen(func(e *stateEncoder) { e.cache(&cache.State{Dir: make([]cache.WayState, 1)}) }) - minCache
	minMSHR      = encodedLen(func(e *stateEncoder) { e.cache(&cache.State{MSHRs: make([]cache.MSHRState, 1)}) }) - minCache
	minPartition = encodedLen(func(e *stateEncoder) { e.partition(&PartitionState{DRAM: &dram.State{}}) })
	minDest      = encodedLen(func(e *stateEncoder) {
		e.partition(&PartitionState{DRAM: &dram.State{}, Dests: make([]DestState, 1)})
	}) - minPartition
	minRead = encodedLen(func(e *stateEncoder) {
		e.partition(&PartitionState{DRAM: &dram.State{}, Reads: make([]ReadRecState, 1)})
	}) - minPartition
)

func encodedLen(enc func(*stateEncoder)) int {
	var e stateEncoder
	enc(&e)
	return len(e.b)
}

func (d *stateDecoder) machine() *MachineState {
	st := &MachineState{}
	if n := d.len(1); n > 0 {
		st.Benchmark = string(d.b[d.off : d.off+n])
		d.off += n
	}
	for _, p := range [...]*uint64{&st.Now, &st.TokenSeq, &st.Stepped, &st.CompletedLoads,
		&st.LastProgress, &st.LastProgressAt, &st.MaxProgressGap} {
		*p = d.uvarint()
	}
	if n := d.len(4); n > 0 {
		st.Loads = make([]LoadState, n)
		var toks keySeq
		for i := range st.Loads {
			l := &st.Loads[i]
			l.Token = d.key(&toks)
			l.SM = d.int()
			l.Warp = d.int()
			l.FillBypass = d.bool()
		}
	}
	st.SMWake = d.uint64s()
	st.SMLastTick = d.uint64s()
	st.PartNext = d.uint64s()
	if n := d.len(4); n > 0 {
		st.ToL2Items = make([]QueuedL2, n)
		for i := range st.ToL2Items {
			q := &st.ToL2Items[i]
			q.ReadyAt = d.uvarint()
			q.Addr = d.uvarint()
			q.Token = d.uvarint()
			q.Write = d.bool()
		}
	}
	st.ToL2Stats = d.icntStats()
	if n := d.len(3); n > 0 {
		st.ToSMItems = make([]QueuedReply, n)
		for i := range st.ToSMItems {
			q := &st.ToSMItems[i]
			q.ReadyAt = d.uvarint()
			q.Addr = d.uvarint()
			q.Token = d.uvarint()
		}
	}
	st.ToSMStats = d.icntStats()
	if n := d.len(minSM); n > 0 {
		st.SMs = make([]*smcore.State, n)
		for i := range st.SMs {
			st.SMs[i] = d.sm()
		}
	}
	if n := d.len(minCache); n > 0 {
		st.L1s = make([]*cache.State, n)
		for i := range st.L1s {
			st.L1s[i] = d.cache()
		}
	}
	if n := d.len(minPartition); n > 0 {
		st.Parts = make([]*PartitionState, n)
		for i := range st.Parts {
			st.Parts[i] = d.partition()
		}
	}
	return st
}

func (d *stateDecoder) icntStats() icnt.Stats {
	return icnt.Stats{Pushed: d.uvarint(), Delivered: d.uvarint(), Dropped: d.uvarint(), Duplicated: d.uvarint()}
}

func (d *stateDecoder) sm() *smcore.State {
	st := &smcore.State{}
	if n := d.len(minWarp); n > 0 {
		st.Warps = make([]smcore.WarpState, n)
		for i := range st.Warps {
			w := &st.Warps[i]
			w.Iter = d.int()
			w.Op.ComputeInstrs = d.int()
			w.Op.ComputeSpacing = d.int()
			w.Op.Sectors = d.uint64s()
			w.Op.Write = d.bool()
			w.Op.ActiveLanes = d.int()
			w.Phase = d.int()
			w.ComputeLeft = d.int()
			w.ReadyAt = d.uvarint()
			w.Outstanding = d.int()
			w.LastIssued = d.uvarint()
		}
	}
	st.Greedy = d.int()
	st.Instructions = d.uvarint()
	st.Stalls = d.uvarint()
	st.MemOps = d.uvarint()
	return st
}

// way reads the fields e.way writes.
func (d *stateDecoder) way(w *cache.WayState) {
	w.Valid = d.bool()
	w.LastUse = d.uvarint()
	w.RRPV = d.byte()
	w.SectorValid, w.SectorDirty = d.sectors()
}

func (d *stateDecoder) cache() *cache.State {
	st := &cache.State{NumSets: d.int(), Assoc: d.int()}
	// A tag array's shape is positive; a directory cache's is 0 x 0.
	if st.NumSets < 0 || st.Assoc < 0 || (st.NumSets == 0) != (st.Assoc == 0) {
		d.fail("tag-array shape %d x %d", st.NumSets, st.Assoc)
	}
	if n := d.len(minLine); n > 0 {
		st.Lines = make([]cache.LineState, n)
		var idx keySeq
		for i := range st.Lines {
			l := &st.Lines[i]
			k := d.key(&idx)
			if d.err == nil && (st.Assoc == 0 || k/uint64(st.Assoc) >= uint64(st.NumSets)) {
				d.fail("line index %d outside the %d x %d tag array", k, st.NumSets, st.Assoc)
			}
			l.Index = int(k)
			l.Tag = d.uvarint()
			d.way(&l.WayState)
			if d.err == nil && l.WayState == (cache.WayState{}) {
				d.fail("line index %d lists the zero way", l.Index)
			}
		}
	}
	if n := d.len(minDirWay); n > 0 {
		if st.NumSets > 0 {
			d.fail("a directory in a cache with a tag array")
		}
		st.Dir = make([]cache.WayState, n)
		var tags keySeq
		for i := range st.Dir {
			w := &st.Dir[i]
			w.Tag = d.key(&tags)
			d.way(w)
		}
	}
	st.Seq = d.uvarint()
	if n := d.len(minMSHR); n > 0 {
		st.MSHRs = make([]cache.MSHRState, n)
		var lines keySeq
		for i := range st.MSHRs {
			m := &st.MSHRs[i]
			m.LineAddr = d.key(&lines)
			m.SectorPending, m.SectorWrite = d.sectors()
			for s := range m.Tokens {
				m.Tokens[s] = d.uint64s()
			}
			m.Merged = d.int()
		}
	}
	st.MSHRFree = d.int()
	if n := d.len(2); n > 0 {
		st.PendingBypass = make([]cache.BypassState, n)
		var units keySeq
		for i := range st.PendingBypass {
			st.PendingBypass[i] = cache.BypassState{Key: d.key(&units), Count: d.int()}
		}
	}
	st.PSel = d.int()
	st.BRRIPTick = d.uvarint()
	s := &st.Stats
	for _, p := range [...]*uint64{&s.Accesses, &s.Hits, &s.MissesPrimary, &s.MissesSecondary,
		&s.MissesBypass, &s.Fills, &s.Evictions, &s.Writebacks} {
		*p = d.uvarint()
	}
	return st
}

func (d *stateDecoder) optCache() *cache.State {
	if d.bool() {
		return d.cache()
	}
	return nil
}

func (d *stateDecoder) dram() *dram.State {
	st := &dram.State{}
	if n := d.len(5); n > 0 {
		st.Queue = make([]dram.Request, n)
		for i := range st.Queue {
			r := &st.Queue[i]
			r.Addr = d.uvarint()
			r.Bytes = d.int()
			r.Write = d.bool()
			r.Token = d.uvarint()
			r.Kind = d.int()
		}
	}
	st.BankBusy3 = d.uint64s()
	st.BankRow = d.uint64s()
	st.BusFree3 = d.uvarint()
	if n := d.len(2); n > 0 {
		st.Completions = make([]dram.CompletionState, n)
		for i := range st.Completions {
			st.Completions[i] = dram.CompletionState{At3: d.uvarint(), Token: d.uvarint()}
		}
	}
	s := &st.Stats
	for _, p := range [...]*uint64{&s.Reads, &s.Writes, &s.BytesRead, &s.BytesWrite, &s.RowHits, &s.RowMisses} {
		*p = d.uvarint()
	}
	s.RequestsByKind = d.uint64s()
	s.BytesByKind = d.uint64s()
	s.PeakQueue = d.int()
	return st
}

func (d *stateDecoder) partition() *PartitionState {
	st := &PartitionState{}
	if n := d.len(minCache); n > 0 {
		st.Banks = make([]*cache.State, n)
		for i := range st.Banks {
			st.Banks[i] = d.cache()
		}
	}
	st.DRAM = d.dram()
	st.Ctr = d.optCache()
	st.MAC = d.optCache()
	st.Tree = d.optCache()
	st.UnifiedAlias = d.bool()
	st.AESFree3 = d.uint64s()
	st.MACFree3 = d.uvarint()
	if n := d.len(minDest); n > 0 {
		st.Dests = make([]DestState, n)
		var toks keySeq
		for i := range st.Dests {
			ds := &st.Dests[i]
			ds.Token = d.key(&toks)
			ds.Kind = d.int()
			ds.Addr = d.uvarint()
			ds.ReadID = d.uvarint()
			f := d.flags(2)
			ds.Bypass, ds.Write = f[0], f[1]
			ds.IssuedAt = d.uvarint()
		}
	}
	if n := d.len(minRead); n > 0 {
		st.Reads = make([]ReadRecState, n)
		var ids keySeq
		for i := range st.Reads {
			r := &st.Reads[i]
			r.ID = d.key(&ids)
			r.GlobalAddr = d.uvarint()
			r.LocalAddr = d.uvarint()
			r.L2Token = d.uvarint()
			r.L2Bank = d.int()
			r.SharesLeft = d.int()
			f := d.flags(7)
			r.L2Bypass, r.DataDone, r.CtrDone, r.MacDone, r.Unprotected, r.Replied, r.Finished =
				f[0], f[1], f[2], f[3], f[4], f[5], f[6]
			for _, p := range [...]*uint64{&r.ArrivedAt, &r.DataReady, &r.CtrReady, &r.MacReady} {
				*p = d.uvarint()
			}
		}
	}
	if n := d.len(2); n > 0 {
		st.Replies = make([]ReplyEventState, n)
		for i := range st.Replies {
			st.Replies[i] = ReplyEventState{At: d.uvarint(), ReadID: d.uvarint()}
		}
	}
	for i := range st.MetaStats {
		m := &st.MetaStats[i]
		m.Accesses = d.uvarint()
		m.MissesPrimary = d.uvarint()
		m.MissesSecondary = d.uvarint()
	}
	for _, p := range [...]*uint64{&st.FaultDetected, &st.FaultSilent, &st.LocalTok, &st.LastKeyLine} {
		*p = d.uvarint()
	}
	return st
}
