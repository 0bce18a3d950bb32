package secmem

import (
	"bytes"
	"testing"

	"gpusecmem/internal/geometry"
)

// FuzzCounterLineCodec: decode(encode(x)) == x for arbitrary minor
// values, and encode(decode(y)) is stable for arbitrary 128-byte
// images modulo the 7-bit truncation.
func FuzzCounterLineCodec(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1<<40), []byte{1, 2, 3, 127, 128, 255})
	f.Fuzz(func(t *testing.T, major uint64, minors []byte) {
		var cl CounterLine
		cl.Major = major
		for i := range cl.Minors {
			if i < len(minors) {
				cl.Minors[i] = minors[i] & 0x7f
			}
		}
		var buf [geometry.LineSize]byte
		EncodeCounterLine(&cl, buf[:])
		got := DecodeCounterLine(buf[:])
		if got.Major != cl.Major || got.Minors != cl.Minors {
			t.Fatalf("round trip: %+v != %+v", got, cl)
		}
		// Re-encode is byte-stable.
		var buf2 [geometry.LineSize]byte
		EncodeCounterLine(&got, buf2[:])
		if buf != buf2 {
			t.Fatal("encode not canonical")
		}
	})
}

// FuzzEngineRoundTrip: arbitrary line contents written through either
// fully protected engine (counter mode with its BMT, or direct with
// MACs and its MT) read back identically, and a one-bit ciphertext
// flip is detected unless the flipped sector still matches its stored
// 16-bit MAC: the 2^-16 forgery chance a truncated tag leaves, which
// the third seed hits.
func FuzzEngineRoundTrip(f *testing.F) {
	f.Add(false, []byte("seed"), uint16(0), uint16(5))
	f.Add(true, []byte("seed"), uint16(0), uint16(5))
	f.Add(false, []byte("l"), uint16(0), uint16(3))
	f.Fuzz(func(t *testing.T, direct bool, data []byte, lineSel uint16, corrupt uint16) {
		const region = 32 * 1024
		var e Engine = MustCounterMode(region, testKeys(), FullProtection)
		if direct {
			e = MustDirect(region, testKeys(), FullProtection)
		}
		addr := uint64(lineSel) % (region / geometry.LineSize) * geometry.LineSize
		line := make([]byte, geometry.LineSize)
		copy(line, data)
		if err := e.WriteLine(addr, line); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, geometry.LineSize)
		if err := e.ReadLine(addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, line) {
			t.Fatal("round trip mismatch")
		}
		off := uint64(corrupt) % geometry.LineSize
		raw := e.Backing().Snapshot(addr+off, 1)
		e.Backing().Write(addr+off, []byte{raw[0] ^ 0x01})
		if err := e.ReadLine(addr, got); err == nil && !macCollides(e, addr+off) {
			t.Fatal("corruption undetected")
		}
	})
}

// macCollides reports whether the sector holding the byte at addr, as
// it now stands in the backing store, matches its stored MAC.
func macCollides(e Engine, addr uint64) bool {
	sa := addr / geometry.SectorSize * geometry.SectorSize
	sector := e.Backing().Snapshot(sa, geometry.SectorSize)
	stored := e.Backing().ReadUint16(e.Layout().MACSectorAddr(sa))
	switch e := e.(type) {
	case *CounterMode:
		img := e.backing.Snapshot(e.lay.CounterLineAddr(e.lay.CounterLine(sa)), geometry.LineSize)
		cl := DecodeCounterLine(img)
		return e.mac.StatefulMAC(sector, sa, cl.CounterValue(e.lay.CounterSlot(sa))) == stored
	case *Direct:
		return e.mac.AddressMAC(sector, sa) == stored
	}
	return false
}
