package secmem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"gpusecmem/internal/geometry"
)

const testRegion = 64 * 1024 // 4 counter lines; small but multi-leaf

func testKeys() Keys {
	var k Keys
	for i := range k.Encryption {
		k.Encryption[i] = byte(i + 1)
		k.MAC[i] = byte(i + 101)
		k.Tree[i] = byte(i + 201)
	}
	return k
}

func fillPattern(buf []byte, seed byte) {
	for i := range buf {
		buf[i] = seed ^ byte(i*7)
	}
}

func TestCounterModeRoundTrip(t *testing.T) {
	e := MustCounterMode(testRegion, testKeys(), FullProtection)
	want := make([]byte, geometry.LineSize)
	fillPattern(want, 0x3c)
	if err := e.WriteLine(0x400, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, geometry.LineSize)
	if err := e.ReadLine(0x400, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch")
	}
}

// TestCiphertextAtRest: the backing store must never contain the
// plaintext of a written line — the confidentiality property itself.
func TestCiphertextAtRest(t *testing.T) {
	e := MustCounterMode(testRegion, testKeys(), FullProtection)
	plain := make([]byte, geometry.LineSize)
	fillPattern(plain, 0x77)
	if err := e.WriteLine(0, plain); err != nil {
		t.Fatal(err)
	}
	raw := e.Backing().Snapshot(0, geometry.LineSize)
	if bytes.Equal(raw, plain) {
		t.Fatal("plaintext visible in untrusted memory")
	}
	if bytes.Contains(raw, plain[:16]) {
		t.Fatal("plaintext fragment visible in untrusted memory")
	}
}

// TestFreshCounterFreshCiphertext: writing the same plaintext to the
// same address twice must produce different ciphertexts, because the
// counter advances on every write. Identical ciphertexts would leak
// "the value was rewritten unchanged" and enable pad reuse.
func TestFreshCounterFreshCiphertext(t *testing.T) {
	e := MustCounterMode(testRegion, testKeys(), FullProtection)
	plain := make([]byte, geometry.LineSize)
	fillPattern(plain, 0x11)
	if err := e.WriteLine(0, plain); err != nil {
		t.Fatal(err)
	}
	ct1 := e.Backing().Snapshot(0, geometry.LineSize)
	if err := e.WriteLine(0, plain); err != nil {
		t.Fatal(err)
	}
	ct2 := e.Backing().Snapshot(0, geometry.LineSize)
	if bytes.Equal(ct1, ct2) {
		t.Fatal("counter reuse: identical ciphertext for rewrite")
	}
}

func TestReadUnwrittenLineIsZero(t *testing.T) {
	e := MustCounterMode(testRegion, testKeys(), FullProtection)
	got := make([]byte, geometry.LineSize)
	if err := e.ReadLine(0x2000, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
	// And subsequently the line is fully protected: tampering it is
	// detected.
	e.Backing().WriteUint16(0x2000, 0xffff)
	if err := e.ReadLine(0x2000, got); err == nil {
		t.Fatal("tamper after zero-init not detected")
	}
}

func TestAccessValidation(t *testing.T) {
	e := MustCounterMode(testRegion, testKeys(), FullProtection)
	buf := make([]byte, geometry.LineSize)
	var accessErr *AccessError
	cases := []struct {
		name string
		err  error
	}{
		{"misaligned write", e.WriteLine(3, buf)},
		{"out of range write", e.WriteLine(testRegion, buf)},
		{"misaligned read", e.ReadLine(3, buf)},
		{"short write", e.WriteLine(0, buf[:5])},
		{"short read", e.ReadLine(0, buf[:5])},
	}
	for _, tc := range cases {
		if tc.err == nil || !errors.As(tc.err, &accessErr) {
			t.Errorf("%s: got %v, want AccessError", tc.name, tc.err)
		}
	}
}

// TestMinorCounterOverflow: 128 writes to the same line overflow the
// 7-bit minor counter; the engine must bump the major counter,
// re-encrypt the 16KB region, and keep every line readable.
func TestMinorCounterOverflow(t *testing.T) {
	e := MustCounterMode(testRegion, testKeys(), FullProtection)
	// Populate two other lines in the same 16KB region.
	other1 := make([]byte, geometry.LineSize)
	fillPattern(other1, 0x01)
	other2 := make([]byte, geometry.LineSize)
	fillPattern(other2, 0x02)
	if err := e.WriteLine(0x080, other1); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteLine(0x100, other2); err != nil {
		t.Fatal(err)
	}
	hot := make([]byte, geometry.LineSize)
	for i := 0; i < 130; i++ {
		fillPattern(hot, byte(i))
		if err := e.WriteLine(0, hot); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if e.OverflowReencryptions == 0 {
		t.Fatal("no overflow re-encryption after 130 writes")
	}
	got := make([]byte, geometry.LineSize)
	if err := e.ReadLine(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, hot) {
		t.Fatal("hot line corrupted after overflow")
	}
	if err := e.ReadLine(0x080, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, other1) {
		t.Fatal("neighbour line 1 corrupted after region re-encryption")
	}
	if err := e.ReadLine(0x100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, other2) {
		t.Fatal("neighbour line 2 corrupted after region re-encryption")
	}
	// Major counter advanced, minors reset.
	cl := DecodeCounterLine(e.Backing().Snapshot(e.lay.CounterLineAddr(0), geometry.LineSize))
	if cl.Major == 0 {
		t.Fatal("major counter did not advance")
	}
}

// TestManyLinesRandomized: a randomized workload over the whole region
// with interleaved reads and writes stays consistent.
func TestManyLinesRandomized(t *testing.T) {
	e := MustCounterMode(testRegion, testKeys(), FullProtection)
	rng := rand.New(rand.NewSource(42))
	shadow := map[uint64][]byte{}
	for i := 0; i < 500; i++ {
		lineAddr := uint64(rng.Intn(testRegion/geometry.LineSize)) * geometry.LineSize
		if rng.Intn(2) == 0 {
			buf := make([]byte, geometry.LineSize)
			rng.Read(buf)
			if err := e.WriteLine(lineAddr, buf); err != nil {
				t.Fatal(err)
			}
			shadow[lineAddr] = buf
		} else {
			got := make([]byte, geometry.LineSize)
			if err := e.ReadLine(lineAddr, got); err != nil {
				t.Fatal(err)
			}
			want, ok := shadow[lineAddr]
			if !ok {
				want = make([]byte, geometry.LineSize)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("iteration %d: line %#x mismatch", i, lineAddr)
			}
		}
	}
}

// TestDistinctEnginesDistinctCiphertext: two engines with different
// keys produce different ciphertext for the same plaintext/address.
func TestDistinctEnginesDistinctCiphertext(t *testing.T) {
	k2 := testKeys()
	k2.Encryption[0] ^= 1
	e1 := MustCounterMode(testRegion, testKeys(), FullProtection)
	e2 := MustCounterMode(testRegion, k2, FullProtection)
	plain := make([]byte, geometry.LineSize)
	fillPattern(plain, 0x42)
	if err := e1.WriteLine(0, plain); err != nil {
		t.Fatal(err)
	}
	if err := e2.WriteLine(0, plain); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(e1.Backing().Snapshot(0, 128), e2.Backing().Snapshot(0, 128)) {
		t.Fatal("ciphertext independent of key")
	}
}

func TestNewCounterModeErrors(t *testing.T) {
	if _, err := NewCounterMode(1000, testKeys(), FullProtection); err == nil {
		t.Fatal("want error for unaligned region")
	}
}

func BenchmarkCounterModeWriteLine(b *testing.B) {
	e := MustCounterMode(1<<20, testKeys(), FullProtection)
	buf := make([]byte, geometry.LineSize)
	b.SetBytes(geometry.LineSize)
	for i := 0; i < b.N; i++ {
		addr := uint64(i%8192) * geometry.LineSize
		if err := e.WriteLine(addr, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCounterModeReadLine(b *testing.B) {
	e := MustCounterMode(1<<20, testKeys(), FullProtection)
	buf := make([]byte, geometry.LineSize)
	for a := uint64(0); a < 1<<20; a += geometry.LineSize {
		if err := e.WriteLine(a, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.SetBytes(geometry.LineSize)
	for i := 0; i < b.N; i++ {
		addr := uint64(i%8192) * geometry.LineSize
		if err := e.ReadLine(addr, buf); err != nil {
			b.Fatal(err)
		}
	}
}
