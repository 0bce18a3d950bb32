// Package statecodec is the wire format of simulator checkpoints and
// stored results, and the bidirectional walk that reads and writes
// them (DESIGN.md §12, §14). Each format starts with its own magic and
// version.
//
// Each stateful component, and a run's Result, has one walk method
// that visits its fields in a fixed order, handing each field's
// address to a Codec. An encoding Codec appends the field's value; a
// decoding Codec reads the value from its input straight into the
// field, so one walk serves both directions and a field is added to
// the format with one line. A checkpoint's walk checks what it decoded
// against the freshly built machine it fills, where the value lands,
// and calls Fail on anything that machine cannot hold.
//
// The format is flat and reflection-free. A uint64 is a uvarint, an
// int a zigzag varint, a bool one byte (0 or 1), a byte one raw byte,
// a slice or string a uvarint length followed by its elements. Bools
// are packed one bit each (Bools, Sectors) where a walk asks for it.
// Keys are gap-coded (Key): a strictly ascending sequence is written as
// its first key, then each later key's distance past its predecessor
// minus one, so a duplicated or unordered key has no encoding and most
// gaps fit in one byte. Every value has exactly one encoding — varints
// are minimal, flag bytes have no unused bits set — so identical
// states encode to identical bytes and any input a decoder accepts
// re-encodes to itself.
//
// Decoding fails closed and never panics. The first error sticks;
// after it every length reads as zero, so a walk runs to its end
// without allocating further. Every length is bounded by the bytes
// left (each element encodes to at least minElem bytes), so a forged
// length cannot allocate more than a small multiple of the input.
//
// Concurrency and aliasing contract: a Codec is single-owner state,
// used by one goroutine for one walk. An encoder borrows a pooled
// buffer that Finish returns; the bytes Finish hands back are a fresh
// copy owned by the caller. A decoder only reads its input, which must
// not change during the walk. The key slice MapLen returns is scratch
// owned by the Codec, valid until the next MapLen. The lists a decoder
// returns share one slab (see U64s) and stay valid after the walk.
package statecodec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// bufs recycles encoders' scratch buffers, so an encode allocates only
// its exact-size result instead of growing a buffer through every
// power of two up to a megabyte-sized state.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// Codec is one walk's cursor: an encoder appending to a buffer or a
// decoder reading an input.
type Codec struct {
	b    []byte
	off  int
	dec  bool
	err  error
	buf  *[]byte  // the pooled buffer an encoder borrowed
	keys []uint64 // MapLen's sorted-key scratch
	slab []uint64 // the unused tail of the decoder's list slab
}

// slabChunk is how many uint64s a decoder's list slab grows by: most
// decoded lists are a few elements long, so one chunk serves hundreds.
const slabChunk = 1024

// NewEncoder returns an encoder whose output starts with magic and
// version.
func NewEncoder(magic string, version uint64) *Codec {
	buf := bufs.Get().(*[]byte)
	c := &Codec{b: append((*buf)[:0], magic...), buf: buf}
	c.U64(&version)
	return c
}

// NewDecoder returns a decoder over b. It refuses, as its first error,
// an input that does not start with magic and version.
func NewDecoder(b []byte, magic string, version uint64) *Codec {
	c := &Codec{b: b, dec: true}
	if len(b) < len(magic) || string(b[:len(magic)]) != magic {
		c.err = fmt.Errorf("input does not start with %q (bad magic)", magic)
		return c
	}
	c.off = len(magic)
	var v uint64
	c.U64(&v)
	if c.err == nil && v != version {
		c.err = fmt.Errorf("%s version %d, want %d", magic, v, version)
	}
	return c
}

// Decoding reports whether the walk reads its fields rather than
// writing them.
func (c *Codec) Decoding() bool { return c.dec }

// Offset is how many bytes an encoder has written or a decoder has
// read, magic and version included.
func (c *Codec) Offset() int {
	if c.dec {
		return c.off
	}
	return len(c.b)
}

// Err is the walk's first error, or nil.
func (c *Codec) Err() error { return c.err }

// Fail records a decode error at the current input offset, unless an
// earlier one stuck.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("byte %d: "+format, append([]any{c.off}, args...)...)
	}
}

// Finish ends the walk. An encoder returns a copy of its output and
// gives its buffer back to the pool; a decoder refuses trailing bytes.
// Either returns the walk's first error.
func (c *Codec) Finish() ([]byte, error) {
	if !c.dec {
		out := append([]byte(nil), c.b...)
		*c.buf = c.b
		bufs.Put(c.buf)
		c.buf, c.b = nil, nil
		return out, c.err
	}
	if c.err == nil && c.off != len(c.b) {
		c.Fail("%d trailing bytes", len(c.b)-c.off)
	}
	return nil, c.err
}

// U64 walks a uint64 as a minimally encoded uvarint.
func (c *Codec) U64(p *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *p)
		return
	}
	// One-byte values, most of a state, take the inlined fast path.
	if c.off < len(c.b) && c.b[c.off] < 0x80 {
		*p = uint64(c.b[c.off])
		c.off++
		return
	}
	*p = c.uvarintSlow()
}

func (c *Codec) uvarintSlow() uint64 {
	var x uint64
	for i, s := 0, uint(0); ; i, s = i+1, s+7 {
		if c.off >= len(c.b) {
			c.Fail("truncated")
			return 0
		}
		b := c.b[c.off]
		c.off++
		if b < 0x80 {
			switch {
			case i > 0 && b == 0:
				c.Fail("non-minimal varint")
				return 0
			case i == binary.MaxVarintLen64-1 && b > 1:
				c.Fail("varint overflows 64 bits")
				return 0
			}
			return x | uint64(b)<<s
		}
		if i == binary.MaxVarintLen64-1 {
			c.Fail("varint overflows 64 bits")
			return 0
		}
		x |= uint64(b&0x7f) << s
	}
}

// Int walks an int as a zigzag varint.
func (c *Codec) Int(p *int) {
	if !c.dec {
		c.b = binary.AppendVarint(c.b, int64(*p))
		return
	}
	var u uint64
	c.U64(&u)
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	if int64(int(v)) != v {
		c.Fail("int %d out of range", v)
		v = 0
	}
	*p = int(v)
}

// F64 walks a float64 as its IEEE 754 bits, a uvarint, so every value
// round-trips exactly. Only a decoder writes the field: an encoder may
// walk values other goroutines share.
func (c *Codec) F64(p *float64) {
	b := math.Float64bits(*p)
	c.U64(&b)
	if c.dec {
		*p = math.Float64frombits(b)
	}
}

// Byte walks one raw byte.
func (c *Codec) Byte(p *byte) {
	if !c.dec {
		c.b = append(c.b, *p)
		return
	}
	if c.off >= len(c.b) {
		c.Fail("truncated")
		*p = 0
		return
	}
	*p = c.b[c.off]
	c.off++
}

// Bool walks a bool as one byte, 0 or 1.
func (c *Codec) Bool(p *bool) {
	var b byte
	if *p {
		b = 1
	}
	c.Byte(&b)
	if c.dec {
		if b > 1 {
			c.Fail("bool byte is not 0 or 1")
			b = 0
		}
		*p = b == 1
	}
}

// Bools walks up to eight bools as one byte, bit i for the i-th. A
// decoder refuses a byte with any higher bit set.
func (c *Codec) Bools(ps ...*bool) {
	var b byte
	for i, p := range ps {
		if *p {
			b |= 1 << i
		}
	}
	c.Byte(&b)
	if !c.dec {
		return
	}
	if b>>len(ps) != 0 {
		c.Fail("flag byte %#x has unused bits set", b)
		b = 0
	}
	for i, p := range ps {
		*p = b&(1<<i) != 0
	}
}

// Sectors walks two four-sector flag arrays as one byte: lo in bits
// 0-3, hi in bits 4-7.
func (c *Codec) Sectors(lo, hi *[4]bool) {
	var b byte
	for i := range lo {
		if lo[i] {
			b |= 1 << i
		}
		if hi[i] {
			b |= 1 << (i + 4)
		}
	}
	c.Byte(&b)
	if c.dec {
		for i := range lo {
			lo[i] = b&(1<<i) != 0
			hi[i] = b&(1<<(i+4)) != 0
		}
	}
}

// String walks a string.
func (c *Codec) String(p *string) {
	n := len(*p)
	c.Len(&n, 1)
	if !c.dec {
		c.b = append(c.b, *p...)
		return
	}
	*p = string(c.b[c.off : c.off+n])
	c.off += n
}

// Len walks a length. A decoder refuses one the bytes left cannot
// hold at minElem (at least 1) bytes an element.
func (c *Codec) Len(n *int, minElem int) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(*n))
		return
	}
	var u uint64
	c.U64(&u)
	left := len(c.b) - c.off
	if c.err == nil && u > uint64(left/minElem) {
		c.Fail("length %d exceeds the %d bytes left", u, left)
	}
	if c.err != nil {
		u = 0
	}
	*n = int(u)
}

// FixedLen walks the length of something whose size the machine fixes
// (a slice built by the configuration). A decoder refuses any other
// length.
func (c *Codec) FixedLen(n int, what string) {
	got := n
	c.Len(&got, 1)
	if c.dec && got != n && c.err == nil {
		c.Fail("%d %s, machine has %d", got, what, n)
	}
}

// Slice walks the length of a variable-length slice: an encoder writes
// len(*s); a decoder reads a length bounded as Len bounds it and
// resizes *s to that many zero elements, reusing its capacity. The
// caller then walks the elements in place.
func Slice[E any](c *Codec, s *[]E, minElem int) {
	n := len(*s)
	c.Len(&n, minElem)
	if c.dec {
		*s = slices.Grow((*s)[:0], n)[:n]
		clear(*s)
	}
}

// U64s walks a variable-length uint64 slice. A decoder carves it from
// the walk's slab, nil when empty, with its capacity capped at its
// length so that an append reallocates instead of writing into the
// next list.
func (c *Codec) U64s(p *[]uint64) {
	n := len(*p)
	c.Len(&n, 1)
	if c.dec {
		*p = nil
		if n > 0 {
			if len(c.slab) < n {
				c.slab = make([]uint64, max(n, slabChunk))
			}
			*p = c.slab[:n:n]
			c.slab = c.slab[n:]
		}
	}
	for i := range *p {
		c.U64(&(*p)[i])
	}
}

// FixedU64s walks a uint64 slice whose length the machine fixes, in
// place.
func (c *Codec) FixedU64s(vs []uint64, what string) {
	c.FixedLen(len(vs), what)
	if c.err != nil {
		return
	}
	for i := range vs {
		c.U64(&vs[i])
	}
}

// KeySeq is the running position in a gap-coded key sequence. The
// zero value starts a sequence.
type KeySeq struct {
	next uint64 // the smallest key the next element may take
	full bool   // the previous key was 2^64-1, so none may follow
}

// Key walks the next key of a strictly ascending sequence as its gap
// from the smallest key it may take. An encoder fails on a key that is
// not above its predecessor; a decoder on a gap that carries the key
// past 2^64-1.
func (c *Codec) Key(s *KeySeq, p *uint64) {
	if !c.dec {
		if (s.full || *p < s.next) && c.err == nil {
			c.err = fmt.Errorf("key %d is out of order or duplicated", *p)
		}
		c.b = binary.AppendUvarint(c.b, *p-s.next)
	} else {
		var gap uint64
		c.U64(&gap)
		if s.full || gap > math.MaxUint64-s.next {
			c.Fail("key gap %d overflows 64 bits", gap)
			gap = 0
		}
		*p = s.next + gap
	}
	s.next, s.full = *p+1, *p == math.MaxUint64
}

// MapLen walks the entry count of a uint64-keyed map whose entries the
// caller then walks in ascending key order, each key with Key. An
// encoder returns the keys sorted (Codec-owned scratch, valid until
// the next MapLen). A decoder empties *m for the entries to come and
// returns nil keys; it refuses entries for a nil map, which marks a
// structure the machine does not have.
func MapLen[V any](c *Codec, m *map[uint64]V, minElem int) (int, []uint64) {
	n := len(*m)
	c.Len(&n, minElem)
	if !c.dec {
		c.keys = c.keys[:0]
		for k := range *m {
			c.keys = append(c.keys, k)
		}
		slices.Sort(c.keys)
		return n, c.keys
	}
	switch {
	case *m == nil:
		if n > 0 {
			c.Fail("%d map entries where the machine keeps none", n)
		}
		return 0, nil
	case len(*m) == 0:
		*m = make(map[uint64]V, n)
	default:
		clear(*m)
	}
	return n, nil
}
