package crypto

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// TestFIPS197Vector checks the AES-128 example vector from FIPS-197
// Appendix B.
func TestFIPS197Vector(t *testing.T) {
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	pt := mustHex(t, "3243f6a8885a308d313198a2e0370734")
	want := mustHex(t, "3925841d02dc09fbdc118597196a0b32")
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	c.Encrypt(got, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("encrypt = %x, want %x", got, want)
	}
	dec := make([]byte, 16)
	c.Decrypt(dec, got)
	if !bytes.Equal(dec, pt) {
		t.Fatalf("decrypt = %x, want %x", dec, pt)
	}
}

// TestFIPS197AppendixC covers the AES-128 known-answer test from
// FIPS-197 Appendix C.1.
func TestFIPS197AppendixC(t *testing.T) {
	key := mustHex(t, "000102030405060708090a0b0c0d0e0f")
	pt := mustHex(t, "00112233445566778899aabbccddeeff")
	want := mustHex(t, "69c4e0d86a7b0430d8cdb78070b4c55a")
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	c.Encrypt(got, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("encrypt = %x, want %x", got, want)
	}
}

func TestNewCipherBadKey(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 24, 32} {
		if _, err := NewCipher(make([]byte, n)); err == nil {
			t.Errorf("NewCipher with %d-byte key: want error", n)
		}
	}
}

func TestMustCipherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCipher with bad key did not panic")
		}
	}()
	MustCipher(make([]byte, 3))
}

// TestEncryptDecryptRoundTrip is a property test: Decrypt(Encrypt(x)) == x
// for random keys and blocks.
func TestEncryptDecryptRoundTrip(t *testing.T) {
	f := func(key [16]byte, block [16]byte) bool {
		c := MustCipher(key[:])
		var ct, pt [16]byte
		c.Encrypt(ct[:], block[:])
		c.Decrypt(pt[:], ct[:])
		return pt == block
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAgainstStdlib cross-checks Cipher against crypto/aes on random
// inputs: identical ciphertexts for identical keys and blocks.
func TestAgainstStdlib(t *testing.T) {
	f := func(key [16]byte, block [16]byte) bool {
		ours := MustCipher(key[:])
		std, err := stdaes.NewCipher(key[:])
		if err != nil {
			return false
		}
		var a, b [16]byte
		ours.Encrypt(a[:], block[:])
		std.Encrypt(b[:], block[:])
		if a != b {
			return false
		}
		var da, db [16]byte
		ours.Decrypt(da[:], a[:])
		std.Decrypt(db[:], b[:])
		return da == db && da == block
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptInPlace(t *testing.T) {
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	pt := mustHex(t, "3243f6a8885a308d313198a2e0370734")
	want := mustHex(t, "3925841d02dc09fbdc118597196a0b32")
	c := MustCipher(key)
	buf := append([]byte(nil), pt...)
	c.Encrypt(buf, buf)
	if !bytes.Equal(buf, want) {
		t.Fatalf("in-place encrypt = %x, want %x", buf, want)
	}
	c.Decrypt(buf, buf)
	if !bytes.Equal(buf, pt) {
		t.Fatalf("in-place decrypt = %x, want %x", buf, pt)
	}
}

// TestAvalanche checks a weak avalanche property: flipping one
// plaintext bit changes at least 30 of the 128 ciphertext bits.
func TestAvalanche(t *testing.T) {
	key := mustHex(t, "000102030405060708090a0b0c0d0e0f")
	c := MustCipher(key)
	base := make([]byte, 16)
	var ct0 [16]byte
	c.Encrypt(ct0[:], base)
	for bit := 0; bit < 128; bit += 13 {
		alt := make([]byte, 16)
		alt[bit/8] = 1 << (bit % 8)
		var ct1 [16]byte
		c.Encrypt(ct1[:], alt)
		diff := 0
		for i := range ct0 {
			x := ct0[i] ^ ct1[i]
			for ; x != 0; x &= x - 1 {
				diff++
			}
		}
		if diff < 30 {
			t.Fatalf("bit %d: only %d output bits changed", bit, diff)
		}
	}
}

func BenchmarkAESEncrypt(b *testing.B) {
	c := MustCipher(make([]byte, 16))
	var buf [16]byte
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(buf[:], buf[:])
	}
}

func BenchmarkAESDecrypt(b *testing.B) {
	c := MustCipher(make([]byte, 16))
	var buf [16]byte
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Decrypt(buf[:], buf[:])
	}
}
