package secmem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"gpusecmem/internal/geometry"
)

func TestDirectRoundTrip(t *testing.T) {
	e := MustDirect(testRegion, testKeys(), FullProtection)
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

func TestDirectCiphertextAtRest(t *testing.T) {
	e := MustDirect(testRegion, testKeys(), FullProtection)
	plain := make([]byte, geometry.LineSize)
	fillPattern(plain, 0x77)
	if err := e.WriteLine(0, plain); err != nil {
		t.Fatal(err)
	}
	raw := e.Backing().Snapshot(0, geometry.LineSize)
	if bytes.Equal(raw, plain) || bytes.Contains(raw, plain[:16]) {
		t.Fatal("plaintext visible in untrusted memory")
	}
}

// TestDirectDeterministicCiphertext: unlike counter mode, direct
// encryption is deterministic — rewriting the same plaintext yields
// the same ciphertext. This is the information leak counter-mode
// avoids, and a documented property of the design.
func TestDirectDeterministicCiphertext(t *testing.T) {
	e := MustDirect(testRegion, testKeys(), FullProtection)
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
	if !bytes.Equal(ct1, ct2) {
		t.Fatal("direct encryption should be deterministic per (addr, plaintext)")
	}
}

// TestDirectConfidentialityWithoutIntegrity: with all integrity
// disabled, data still round-trips and is still ciphertext at rest —
// "with direct encryption, confidentiality does not necessarily
// require integrity protection" (Section II-C).
func TestDirectConfidentialityWithoutIntegrity(t *testing.T) {
	e := MustDirect(testRegion, testKeys(), Protection{})
	plain := make([]byte, geometry.LineSize)
	fillPattern(plain, 0x66)
	if err := e.WriteLine(0x800, plain); err != nil {
		t.Fatal(err)
	}
	raw := e.Backing().Snapshot(0x800, geometry.LineSize)
	if bytes.Equal(raw, plain) {
		t.Fatal("plaintext at rest")
	}
	got := make([]byte, geometry.LineSize)
	if err := e.ReadLine(0x800, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatal("round trip mismatch")
	}
}

func TestDirectTreeRequiresMAC(t *testing.T) {
	if _, err := NewDirect(testRegion, testKeys(), Protection{MAC: false, Tree: true}); err == nil {
		t.Fatal("MT without MACs must be rejected")
	}
}

func TestDirectReadUnwrittenLineIsZero(t *testing.T) {
	e := MustDirect(testRegion, testKeys(), FullProtection)
	got := make([]byte, geometry.LineSize)
	if err := e.ReadLine(0x2000, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestDirectAccessValidation(t *testing.T) {
	e := MustDirect(testRegion, testKeys(), FullProtection)
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

func TestDirectRandomizedConsistency(t *testing.T) {
	e := MustDirect(testRegion, testKeys(), FullProtection)
	rng := rand.New(rand.NewSource(7))
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

// TestEnginesInteroperability: both engines satisfy Engine and behave
// identically at the API level for a simple workload.
func TestEnginesInteroperability(t *testing.T) {
	engines := map[string]Engine{
		"counter-mode": MustCounterMode(testRegion, testKeys(), FullProtection),
		"direct":       MustDirect(testRegion, testKeys(), FullProtection),
	}
	data := make([]byte, 2*geometry.LineSize)
	fillPattern(data, 0x99)
	for name, e := range engines {
		for off := 0; off < len(data); off += geometry.LineSize {
			if err := e.WriteLine(0x1000+uint64(off), data[off:off+geometry.LineSize]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		got := make([]byte, len(data))
		for off := 0; off < len(got); off += geometry.LineSize {
			if err := e.ReadLine(0x1000+uint64(off), got[off:off+geometry.LineSize]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: span mismatch", name)
		}
	}
}

// TestReadLineAllocs: reading a written line allocates only the AES
// block that each CMAC, pad or XEX call hands to the cipher.Block
// interface: one per tree hash on the way to the root (the leaf and
// every level), one per sector MAC and one per sector decryption. The
// line, counter-line and tree-node buffers stay on the stack.
func TestReadLineAllocs(t *testing.T) {
	for name, e := range map[string]Engine{
		"counter-mode": MustCounterMode(testRegion, testKeys(), FullProtection),
		"direct":       MustDirect(testRegion, testKeys(), FullProtection),
	} {
		buf := make([]byte, geometry.LineSize)
		fillPattern(buf, 0x21)
		if err := e.WriteLine(0x400, buf); err != nil {
			t.Fatal(err)
		}
		bound := float64(1 + e.Layout().TreeLevels() + 2*geometry.SectorsPerLine)
		n := testing.AllocsPerRun(100, func() {
			if err := e.ReadLine(0x400, buf); err != nil {
				t.Fatal(err)
			}
		})
		if n > bound {
			t.Errorf("%s: ReadLine allocates %v objects, want at most %v", name, n, bound)
		}
	}
}

func BenchmarkDirectWriteLine(b *testing.B) {
	e := MustDirect(1<<20, testKeys(), FullProtection)
	buf := make([]byte, geometry.LineSize)
	b.SetBytes(geometry.LineSize)
	for i := 0; i < b.N; i++ {
		addr := uint64(i%8192) * geometry.LineSize
		if err := e.WriteLine(addr, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDirectReadLine(b *testing.B) {
	e := MustDirect(1<<20, testKeys(), FullProtection)
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
