package crypto

import (
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"
)

// RFC 4493 test vectors (AES-128 key 2b7e1516...).
var rfc4493Key = "2b7e151628aed2a6abf7158809cf4f3c"

var rfc4493Cases = []struct {
	msg  string
	want string
}{
	{"", "bb1d6929e95937287fa37d129b756746"},
	{"6bc1bee22e409f96e93d7e117393172a", "070a16b46b4d4144f79bdd9dd04a287c"},
	{"6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411", "dfa66747de9ae63030ca32611497c827"},
	{"6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710", "51f0bebf7e3b9d92fc49741779363cfe"},
}

func TestCMACVectors(t *testing.T) {
	key := mustHex(t, rfc4493Key)
	m, err := NewCMAC(key)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range rfc4493Cases {
		msg := mustHex(t, tc.msg)
		want := mustHex(t, tc.want)
		got := m.Sum(msg)
		if hex.EncodeToString(got[:]) != hex.EncodeToString(want) {
			t.Errorf("case %d: Sum = %x, want %x", i, got, want)
		}
	}
}

func TestCMACSubkeys(t *testing.T) {
	// RFC 4493 section 4: K1 and K2 for the standard key.
	key := mustHex(t, rfc4493Key)
	m := MustCMAC(key)
	wantK1 := "fbeed618357133667c85e08f7236a8de"
	wantK2 := "f7ddac306ae266ccf90bc11ee46d513b"
	if hex.EncodeToString(m.k1[:]) != wantK1 {
		t.Errorf("K1 = %x, want %s", m.k1, wantK1)
	}
	if hex.EncodeToString(m.k2[:]) != wantK2 {
		t.Errorf("K2 = %x, want %s", m.k2, wantK2)
	}
}

func TestCMACBadKey(t *testing.T) {
	if _, err := NewCMAC(make([]byte, 7)); err == nil {
		t.Fatal("want error for short key")
	}
}

func TestMustCMACPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	MustCMAC(nil)
}

// TestCMACDeterministic: identical inputs yield identical tags, and a
// single flipped bit yields a different tag (with overwhelming
// probability; the vectors pin exact values, this pins sensitivity).
func TestCMACSensitivity(t *testing.T) {
	m := MustCMAC(make([]byte, 16))
	msg := make([]byte, 48)
	base := m.Sum(msg)
	for i := 0; i < len(msg); i += 5 {
		alt := append([]byte(nil), msg...)
		alt[i] ^= 0x01
		if m.Sum(alt) == base {
			t.Fatalf("flipping byte %d did not change the tag", i)
		}
	}
	if m.Sum(msg) != base {
		t.Fatal("CMAC is not deterministic")
	}
}

// TestCMACLengthExtension: messages that are prefixes of each other
// must not collide (CMAC domain separation via K1/K2).
func TestCMACPrefixDistinct(t *testing.T) {
	m := MustCMAC(make([]byte, 16))
	msg := make([]byte, 32)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	seen := map[[16]byte]int{}
	for n := 0; n <= 32; n++ {
		tag := m.Sum(msg[:n])
		if prev, dup := seen[tag]; dup {
			t.Fatalf("length %d collides with length %d", n, prev)
		}
		seen[tag] = n
	}
}

func TestTruncations(t *testing.T) {
	m := MustCMAC(make([]byte, 16))
	msg := []byte("gpusecmem")
	full := m.Sum(msg)
	if got := m.Sum64(msg); got != uint64(full[0])<<56|uint64(full[1])<<48|uint64(full[2])<<40|uint64(full[3])<<32|uint64(full[4])<<24|uint64(full[5])<<16|uint64(full[6])<<8|uint64(full[7]) {
		t.Fatalf("Sum64 does not match the tag prefix: %x vs %x", got, full[:8])
	}
	if got := m.Sum16(msg); got != uint16(full[0])<<8|uint16(full[1]) {
		t.Fatalf("Sum16 does not match the tag prefix: %x vs %x", got, full[:2])
	}
}

// TestStatefulMACBindsAll: the stateful MAC must change when any of
// ciphertext, address, or counter changes — this is the property the
// paper relies on for data integrity without covering data with the
// tree.
func TestStatefulMACBindsAll(t *testing.T) {
	m := MustCMAC(make([]byte, 16))
	ct := make([]byte, 32)
	base := m.StatefulMAC(ct, 0x1000, 7)
	alt := append([]byte(nil), ct...)
	alt[3] ^= 1
	if m.StatefulMAC(alt, 0x1000, 7) == base {
		t.Error("MAC did not bind ciphertext")
	}
	if m.StatefulMAC(ct, 0x1020, 7) == base {
		t.Error("MAC did not bind address")
	}
	if m.StatefulMAC(ct, 0x1000, 8) == base {
		t.Error("MAC did not bind counter")
	}
	if m.StatefulMAC(ct, 0x1000, 7) != base {
		t.Error("MAC not deterministic")
	}
}

func TestAddressMACBindsAddress(t *testing.T) {
	m := MustCMAC(make([]byte, 16))
	ct := make([]byte, 32)
	if m.AddressMAC(ct, 0) == m.AddressMAC(ct, 32) {
		t.Error("AddressMAC did not bind address")
	}
}

// TestNodeHashBindsPosition: identical child bytes at different node
// indexes must hash differently.
func TestNodeHashBindsPosition(t *testing.T) {
	m := MustCMAC(make([]byte, 16))
	child := make([]byte, 128)
	if m.NodeHash(child, 1) == m.NodeHash(child, 2) {
		t.Error("NodeHash did not bind the node index")
	}
}

// TestOTPInvolution: XORPad applied twice is the identity (encrypt ==
// decrypt in counter mode).
func TestOTPInvolution(t *testing.T) {
	f := func(key [16]byte, data [32]byte, addr uint64, ctr uint64) bool {
		o := MustOTP(key[:])
		buf := data
		o.XORPad(buf[:], addr, ctr)
		if buf == data {
			return false // pad must not be all-zero
		}
		o.XORPad(buf[:], addr, ctr)
		return buf == data
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestOTPCounterUniqueness: every 16-byte lane pad must differ across
// counters, addresses and lanes — pad reuse is exactly what breaks
// counter-mode encryption (Section VI-B), so distinctness here is the
// crypto-level invariant. Comparing whole 32-byte sector pads would
// miss a lane of one write reusing a lane of another.
func TestOTPCounterUniqueness(t *testing.T) {
	o := MustOTP(make([]byte, 16))
	pads := map[[16]byte]string{}
	for addr := uint64(0); addr < 4; addr++ {
		for ctr := uint64(0); ctr < 4; ctr++ {
			var p [32]byte
			o.Pad(p[:], addr*32, ctr)
			for lane := 0; lane < 2; lane++ {
				var lp [16]byte
				copy(lp[:], p[16*lane:])
				at := fmt.Sprintf("(addr=%d,ctr=%d,lane=%d)", addr*32, ctr, lane)
				if prev, dup := pads[lp]; dup {
					t.Fatalf("pad for %s reuses the pad for %s", at, prev)
				}
				pads[lp] = at
			}
		}
	}
}

func TestOTPLaneDistinct(t *testing.T) {
	o := MustOTP(make([]byte, 16))
	var p [32]byte
	o.Pad(p[:], 0x80, 3)
	var lane0, lane1 [16]byte
	copy(lane0[:], p[:16])
	copy(lane1[:], p[16:])
	if lane0 == lane1 {
		t.Fatal("the two 16B lanes of a sector pad are identical")
	}
}

func TestOTPPanicsOnRagged(t *testing.T) {
	o := MustOTP(make([]byte, 16))
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	o.Pad(make([]byte, 17), 0, 0)
}

// TestDirectCipherRoundTrip: Decrypt(Encrypt(x)) == x for the
// address-tweaked direct cipher, and the tweak binds the address.
func TestDirectCipherRoundTrip(t *testing.T) {
	f := func(dk, tk [16]byte, data [32]byte, addr uint64) bool {
		d := MustDirectCipher(dk[:], tk[:])
		buf := data
		d.Encrypt(buf[:], addr)
		ct := buf
		d.Decrypt(buf[:], addr)
		return buf == data && ct != data
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectCipherAddressTweak(t *testing.T) {
	d := MustDirectCipher(make([]byte, 16), append(make([]byte, 15), 1))
	a := make([]byte, 32)
	b := make([]byte, 32)
	d.Encrypt(a, 0x00)
	d.Encrypt(b, 0x20)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("identical plaintext at different addresses produced identical ciphertext")
	}
}

func TestDirectCipherBadKeys(t *testing.T) {
	if _, err := NewDirectCipher(make([]byte, 16), make([]byte, 5)); err == nil {
		t.Fatal("want error for bad tweak key")
	}
	if _, err := NewDirectCipher(make([]byte, 5), make([]byte, 16)); err == nil {
		t.Fatal("want error for bad data key")
	}
}

func TestDirectCipherPanicsOnRagged(t *testing.T) {
	d := MustDirectCipher(make([]byte, 16), make([]byte, 16))
	for _, fn := range []func(){
		func() { d.Encrypt(make([]byte, 15), 0) },
		func() { d.Decrypt(make([]byte, 15), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkCMAC128B(b *testing.B) {
	m := MustCMAC(make([]byte, 16))
	msg := make([]byte, 128)
	b.SetBytes(128)
	for i := 0; i < b.N; i++ {
		m.Sum(msg)
	}
}

func BenchmarkOTPSector(b *testing.B) {
	o := MustOTP(make([]byte, 16))
	buf := make([]byte, 32)
	b.SetBytes(32)
	for i := 0; i < b.N; i++ {
		o.XORPad(buf, uint64(i)*32, uint64(i))
	}
}
