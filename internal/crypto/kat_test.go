package crypto

import (
	"encoding/hex"
	"fmt"
	"testing"
)

// TestKnownAnswers pins the exact output bytes of every construction
// this package builds on top of AES-128. The round-trip, distinctness
// and RFC 4493 tests would all still pass if, say, the MAC's metadata
// layout or the XEX tweak derivation changed, and the fault table's
// 16-bit tags could hide such a change; these vectors would not.
func TestKnownAnswers(t *testing.T) {
	key := []byte("0123456789abcdef")
	sector := make([]byte, 32)
	for i := range sector {
		sector[i] = byte(i * 7)
	}
	child := make([]byte, 128)
	for i := range child {
		child[i] = byte(255 - i)
	}
	m := MustCMAC(key)

	cases := []struct {
		name string
		got  func() string
		want string
	}{
		{"CMAC.StatefulMAC", func() string {
			return fmt.Sprintf("%04x", m.StatefulMAC(sector, 0x1240, 7))
		}, "7585"},
		{"CMAC.AddressMAC", func() string {
			return fmt.Sprintf("%04x", m.AddressMAC(sector, 0x1240))
		}, "3991"},
		{"CMAC.NodeHash", func() string {
			return fmt.Sprintf("%016x", m.NodeHash(child, 5))
		}, "9563ac69b5172bcf"},
		{"DirectCipher.Encrypt", func() string {
			buf := append([]byte(nil), sector...)
			MustDirectCipher(key, []byte("fedcba9876543210")).Encrypt(buf, 0x1240)
			return hex.EncodeToString(buf)
		}, "5ca6733f6ca8a2e86b982c48acc399732c82af5704dff6bbab338c38f845548e"},
		{"OTP.Pad", func() string {
			var p [32]byte
			MustOTP(make([]byte, 16)).Pad(p[:], 0x80, 1)
			return hex.EncodeToString(p[:])
		}, "e265e2bd42d19460e3a85b1c015f0aee09d19cf50b6638738eae15774606b3b3"},
		{"OTP.XORPad", func() string {
			buf := append([]byte(nil), sector...)
			MustOTP(key).XORPad(buf, 0x1240, 7)
			return hex.EncodeToString(buf)
		}, "27c2cf8baf12f5196c5c5dc84c24920867ee4338fa53cce6c34d9da367624d34"},
	}
	for _, tc := range cases {
		if got := tc.got(); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestConstructionAllocs: the data MACs, the node hash, the pad XOR and
// the XEX cipher build their inputs on the stack and work lane by
// lane, so each call allocates at most one object (the AES block,
// which escapes through the cipher.Block interface). A heap-built
// input, a whole-sector pad or a fresh tweak per lane would add more.
func TestConstructionAllocs(t *testing.T) {
	key := []byte("0123456789abcdef")
	m := MustCMAC(key)
	o := MustOTP(key)
	d := MustDirectCipher(key, key)
	sector := make([]byte, 32)
	child := make([]byte, 128)
	for name, fn := range map[string]func(){
		"CMAC.StatefulMAC":     func() { m.StatefulMAC(sector, 0x1240, 7) },
		"CMAC.AddressMAC":      func() { m.AddressMAC(sector, 0x1240) },
		"CMAC.NodeHash":        func() { m.NodeHash(child, 5) },
		"OTP.XORPad":           func() { o.XORPad(sector, 0x1240, 7) },
		"DirectCipher.Encrypt": func() { d.Encrypt(sector, 0x1240) },
		"DirectCipher.Decrypt": func() { d.Decrypt(sector, 0x1240) },
	} {
		if n := testing.AllocsPerRun(100, fn); n > 1 {
			t.Errorf("%s allocates %v objects per call, want at most 1", name, n)
		}
	}
}
