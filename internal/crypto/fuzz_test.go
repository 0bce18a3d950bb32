package crypto

import (
	stdaes "crypto/aes"
	"testing"
)

// FuzzAESAgainstStdlib: Cipher must agree with crypto/aes on arbitrary
// keys and blocks, both directions.
func FuzzAESAgainstStdlib(f *testing.F) {
	f.Add(make([]byte, 16), make([]byte, 16))
	f.Add([]byte("0123456789abcdef"), []byte("fedcba9876543210"))
	f.Fuzz(func(t *testing.T, key, block []byte) {
		if len(key) != 16 || len(block) != 16 {
			t.Skip()
		}
		ours := MustCipher(key)
		std, err := stdaes.NewCipher(key)
		if err != nil {
			t.Skip()
		}
		var a, b [16]byte
		ours.Encrypt(a[:], block)
		std.Encrypt(b[:], block)
		if a != b {
			t.Fatalf("encrypt mismatch: %x vs %x", a, b)
		}
		var da [16]byte
		ours.Decrypt(da[:], a[:])
		for i := range da {
			if da[i] != block[i] {
				t.Fatal("decrypt does not invert")
			}
		}
	})
}

// FuzzCMACDeterministic: tags are deterministic and sensitive to the
// last byte.
func FuzzCMACDeterministic(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte("message"))
	f.Fuzz(func(t *testing.T, key, msg []byte) {
		if len(key) != 16 {
			t.Skip()
		}
		m := MustCMAC(key)
		t1 := m.Sum(msg)
		t2 := m.Sum(msg)
		if t1 != t2 {
			t.Fatal("nondeterministic")
		}
		if len(msg) > 0 {
			alt := append([]byte(nil), msg...)
			alt[len(alt)-1] ^= 1
			if m.Sum(alt) == t1 {
				t.Fatal("insensitive to last byte")
			}
		}
	})
}

// FuzzDirectCipherRoundTrip: the XEX construction inverts for
// arbitrary sector contents and addresses.
func FuzzDirectCipherRoundTrip(f *testing.F) {
	f.Add(make([]byte, 32), uint64(0))
	f.Fuzz(func(t *testing.T, sector []byte, addr uint64) {
		if len(sector) == 0 || len(sector)%16 != 0 || len(sector) > 512 {
			t.Skip()
		}
		d := MustDirectCipher(make([]byte, 16), append(make([]byte, 15), 1))
		orig := append([]byte(nil), sector...)
		d.Encrypt(sector, addr)
		d.Decrypt(sector, addr)
		for i := range orig {
			if sector[i] != orig[i] {
				t.Fatal("round trip mismatch")
			}
		}
	})
}
