package secmem

import (
	"encoding/binary"

	"gpusecmem/internal/geometry"
)

// CounterLine is the in-engine view of one 128-byte counter line:
// one 128-bit major counter shared by a 16 KB data chunk plus 128
// 7-bit minor counters, one per 128 B data line. The packing is exact:
// 16 B major + 112 B of packed minors = 128 B, which is why one
// counter line covers precisely 16 KB (Table II).
type CounterLine struct {
	// Major is the shared major counter. 128 bits in hardware; 64 bits
	// of dynamic range is unreachable in simulation, so the top 64
	// bits are kept only in the serialized form.
	Major uint64
	// Minors holds the 128 per-line minor counters, each 0..127.
	Minors [geometry.MinorCountersPerLine]uint8
}

// counterLineBytes is the serialized size, equal to the cache-line size.
const counterLineBytes = geometry.LineSize

// minorBits is a minor counter's width. minorsPerWord minors fill one
// 56-bit field, so the codec moves the 112 bytes of minors as 16
// word-sized fields rather than 128 separate ones.
const (
	minorBits     = 7
	minorsPerWord = 8
)

// EncodeCounterLine packs the line into its 128-byte memory image.
func EncodeCounterLine(cl *CounterLine, dst []byte) {
	if len(dst) < counterLineBytes {
		panic("secmem: counter line buffer too small")
	}
	for i := range dst[:counterLineBytes] {
		dst[i] = 0
	}
	binary.BigEndian.PutUint64(dst[8:16], cl.Major) // low 64 bits of the 128-bit major
	// Pack 128 x 7-bit minors into dst[16:128], minor i at bit 7i.
	for g := 0; g < len(cl.Minors); g += minorsPerWord {
		var w uint64
		for j, m := range cl.Minors[g : g+minorsPerWord] {
			w |= uint64(m&0x7f) << (j * minorBits)
		}
		putBits(dst[16:counterLineBytes], uint(g)*minorBits, minorsPerWord*minorBits, w)
	}
}

// DecodeCounterLine unpacks a 128-byte memory image.
func DecodeCounterLine(src []byte) CounterLine {
	if len(src) < counterLineBytes {
		panic("secmem: counter line buffer too small")
	}
	var cl CounterLine
	cl.Major = binary.BigEndian.Uint64(src[8:16])
	for g := 0; g < len(cl.Minors); g += minorsPerWord {
		w := getBits(src[16:counterLineBytes], uint(g)*minorBits, minorsPerWord*minorBits)
		for j := range minorsPerWord {
			cl.Minors[g+j] = uint8(w>>(j*minorBits)) & 0x7f
		}
	}
	return cl
}

// CounterValue combines the major and a minor counter into the single
// logical counter fed to the OTP: ctr = major<<7 | minor. Incrementing
// the minor, or bumping the major on minor overflow, always yields a
// fresh value, which is the no-reuse invariant counter-mode security
// rests on.
func (cl *CounterLine) CounterValue(slot int) uint64 {
	return cl.Major<<7 | uint64(cl.Minors[slot])
}

// putBits writes the low `width` bits of v at bit offset off in buf
// (LSB-first within each byte, so bits run on little-endian across
// bytes). It loads the up to eight bytes holding the field as one
// word, replaces the field under a mask and stores the word back;
// bits outside the field keep their values. off%8+width must not
// exceed 64.
func putBits(buf []byte, off, width uint, v uint64) {
	b := buf[off/8:]
	shift := off % 8
	mask := (uint64(1)<<width - 1) << shift
	storeLE(b, loadLE(b)&^mask|v<<shift&mask)
}

// getBits reads `width` bits at bit offset off in buf, with putBits'
// bit order and limit.
func getBits(buf []byte, off, width uint) uint64 {
	return loadLE(buf[off/8:]) >> (off % 8) & (uint64(1)<<width - 1)
}

// loadLE reads the first eight bytes of b as a little-endian word; a
// shorter b reads as if zero-padded.
func loadLE(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var w uint64
	for i, c := range b {
		w |= uint64(c) << (8 * i)
	}
	return w
}

// storeLE writes w to the first eight bytes of b, little-endian; a
// shorter b takes only w's low len(b) bytes.
func storeLE(b []byte, w uint64) {
	if len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, w)
		return
	}
	for i := range b {
		b[i] = byte(w >> (8 * i))
	}
}
