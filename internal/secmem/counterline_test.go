package secmem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"gpusecmem/internal/geometry"
)

func TestCounterLineRoundTrip(t *testing.T) {
	f := func(major uint64, seed uint8) bool {
		var cl CounterLine
		cl.Major = major
		for i := range cl.Minors {
			cl.Minors[i] = uint8(int(seed)+i*3) % 128
		}
		var buf [geometry.LineSize]byte
		EncodeCounterLine(&cl, buf[:])
		got := DecodeCounterLine(buf[:])
		if got.Major != cl.Major {
			return false
		}
		return got.Minors == cl.Minors
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCounterLinePackingExact: 16B major + 128x7bit = exactly 128B, so
// the top minor must land in the last byte and nothing overflows.
func TestCounterLinePackingExact(t *testing.T) {
	var cl CounterLine
	cl.Minors[127] = 127
	var buf [geometry.LineSize]byte
	EncodeCounterLine(&cl, buf[:])
	// Minor 127 occupies bits [889, 896) of the minors area, i.e. the
	// final byte of the line.
	if buf[geometry.LineSize-1] == 0 {
		t.Fatal("top minor counter did not reach the last byte")
	}
	got := DecodeCounterLine(buf[:])
	if got.Minors[127] != 127 {
		t.Fatalf("minor 127 = %d", got.Minors[127])
	}
	if got.Minors[126] != 0 {
		t.Fatalf("minor 126 contaminated: %d", got.Minors[126])
	}
}

// TestCounterLineMinorIsolation: setting one minor leaves every other
// minor and the major untouched.
func TestCounterLineMinorIsolation(t *testing.T) {
	for _, slot := range []int{0, 1, 63, 64, 126, 127} {
		var cl CounterLine
		cl.Major = 0xdeadbeef
		cl.Minors[slot] = 0x55 % 128
		var buf [geometry.LineSize]byte
		EncodeCounterLine(&cl, buf[:])
		got := DecodeCounterLine(buf[:])
		if got.Major != cl.Major {
			t.Fatalf("slot %d: major corrupted", slot)
		}
		for i := range got.Minors {
			want := uint8(0)
			if i == slot {
				want = 0x55 % 128
			}
			if got.Minors[i] != want {
				t.Fatalf("slot %d: minor %d = %d, want %d", slot, i, got.Minors[i], want)
			}
		}
	}
}

// TestCounterValueMonotone: bumping a minor or the major strictly
// increases the combined counter — the no-reuse invariant.
func TestCounterValueMonotone(t *testing.T) {
	var cl CounterLine
	prev := cl.CounterValue(5)
	for i := 0; i < geometry.MinorCounterMax; i++ {
		cl.Minors[5]++
		v := cl.CounterValue(5)
		if v <= prev {
			t.Fatalf("counter did not increase: %d -> %d", prev, v)
		}
		prev = v
	}
	// Overflow handling: major++ with minors reset still increases.
	cl.Major++
	cl.Minors[5] = 0
	if v := cl.CounterValue(5); v <= prev {
		t.Fatalf("major bump did not increase counter: %d -> %d", prev, v)
	}
}

// TestCounterValueUnique: distinct (major, minor) pairs give distinct
// combined counters.
func TestCounterValueUnique(t *testing.T) {
	seen := map[uint64]bool{}
	var cl CounterLine
	for major := uint64(0); major < 4; major++ {
		cl.Major = major
		for minor := uint8(0); minor < 128; minor++ {
			cl.Minors[0] = minor
			v := cl.CounterValue(0)
			if seen[v] {
				t.Fatalf("counter %d repeats at major=%d minor=%d", v, major, minor)
			}
			seen[v] = true
		}
	}
}

func TestBitsHelpers(t *testing.T) {
	buf := make([]byte, 16)
	putBits(buf, 3, 7, 0x55)
	if got := getBits(buf, 3, 7); got != 0x55 {
		t.Fatalf("getBits = %#x, want 0x55", got)
	}
	// Overwrite with a different value clears old bits.
	putBits(buf, 3, 7, 0x2a)
	if got := getBits(buf, 3, 7); got != 0x2a {
		t.Fatalf("after overwrite getBits = %#x, want 0x2a", got)
	}
	// Neighbours untouched.
	if got := getBits(buf, 0, 3); got != 0 {
		t.Fatalf("low neighbour contaminated: %#x", got)
	}
	if got := getBits(buf, 10, 7); got != 0 {
		t.Fatalf("high neighbour contaminated: %#x", got)
	}
}

// putBitsRef and getBitsRef are the codec's original bit-at-a-time
// loops, kept as the reference the word-level putBits and getBits must
// match.
func putBitsRef(buf []byte, off, width uint, v uint64) {
	for i := uint(0); i < width; i++ {
		bit := (v >> i) & 1
		idx := off + i
		if bit != 0 {
			buf[idx/8] |= 1 << (idx % 8)
		} else {
			buf[idx/8] &^= 1 << (idx % 8)
		}
	}
}

func getBitsRef(buf []byte, off, width uint) uint64 {
	var v uint64
	for i := uint(0); i < width; i++ {
		idx := off + i
		if buf[idx/8]&(1<<(idx%8)) != 0 {
			v |= 1 << i
		}
	}
	return v
}

// encodeCounterLineRef and decodeCounterLineRef are the codec as it
// was built on the reference loops.
func encodeCounterLineRef(cl *CounterLine, dst []byte) {
	clear(dst[:counterLineBytes])
	binary.BigEndian.PutUint64(dst[8:16], cl.Major)
	for i, m := range cl.Minors {
		putBitsRef(dst[16:counterLineBytes], uint(i)*7, 7, uint64(m&0x7f))
	}
}

func decodeCounterLineRef(src []byte) CounterLine {
	var cl CounterLine
	cl.Major = binary.BigEndian.Uint64(src[8:16])
	for i := range cl.Minors {
		cl.Minors[i] = uint8(getBitsRef(src[16:counterLineBytes], uint(i)*7, 7))
	}
	return cl
}

// TestBitsMatchReference checks putBits and getBits against the
// reference loops over seeded random buffers and values, at every field
// the codec uses (eight minors per 56-bit field of the 112-byte minors
// area, the last field ending in its final byte), at each single minor
// and at TestBitsHelpers' fields. A put must change the field's bits
// and no other bit.
func TestBitsMatchReference(t *testing.T) {
	type field struct{ off, width uint }
	fields := []field{{3, 7}, {0, 3}, {10, 7}}
	for i := uint(0); i < geometry.MinorCountersPerLine; i++ {
		fields = append(fields, field{i * minorBits, minorBits})
		if i%minorsPerWord == 0 {
			fields = append(fields, field{i * minorBits, minorsPerWord * minorBits})
		}
	}
	rng := rand.New(rand.NewSource(0xc0de))
	const area = counterLineBytes - 16
	for round := 0; round < 50; round++ {
		orig := make([]byte, area)
		rng.Read(orig)
		for _, f := range fields {
			if got, want := getBits(orig, f.off, f.width), getBitsRef(orig, f.off, f.width); got != want {
				t.Fatalf("getBits(off %d, width %d) = %#x, want %#x", f.off, f.width, got, want)
			}
			v := rng.Uint64() // bits above width must be ignored
			got := bytes.Clone(orig)
			want := bytes.Clone(orig)
			putBits(got, f.off, f.width, v)
			putBitsRef(want, f.off, f.width, v)
			if !bytes.Equal(got, want) {
				t.Fatalf("putBits(off %d, width %d, %#x) = %x, want %x", f.off, f.width, v, got, want)
			}
			for bit := uint(0); bit < area*8; bit++ {
				if bit >= f.off && bit < f.off+f.width {
					continue
				}
				if getBitsRef(got, bit, 1) != getBitsRef(orig, bit, 1) {
					t.Fatalf("putBits(off %d, width %d) changed neighbouring bit %d", f.off, f.width, bit)
				}
			}
		}
	}
}

// TestCounterLineCodecMatchesReference: for random counter lines the
// codec writes the reference's exact image, and for random images it
// decodes the reference's values.
func TestCounterLineCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7c1))
	for round := 0; round < 500; round++ {
		var cl CounterLine
		cl.Major = rng.Uint64()
		for i := range cl.Minors {
			cl.Minors[i] = uint8(rng.Intn(256)) // encode keeps the low 7 bits
		}
		var got, want [counterLineBytes]byte
		rng.Read(got[:]) // encode must overwrite every byte
		EncodeCounterLine(&cl, got[:])
		encodeCounterLineRef(&cl, want[:])
		if got != want {
			t.Fatalf("round %d: image %x, want %x", round, got, want)
		}
		var img [counterLineBytes]byte
		rng.Read(img[:])
		if got, want := DecodeCounterLine(img[:]), decodeCounterLineRef(img[:]); got != want {
			t.Fatalf("round %d: decode %+v, want %+v", round, got, want)
		}
	}
}

func TestEncodeDecodePanicOnShortBuffer(t *testing.T) {
	var cl CounterLine
	short := make([]byte, geometry.LineSize-1)
	for name, fn := range map[string]func(){
		"encode": func() { EncodeCounterLine(&cl, short) },
		"decode": func() { DecodeCounterLine(short) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}
