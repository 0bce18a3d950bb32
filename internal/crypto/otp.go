package crypto

import (
	"crypto/subtle"
	"encoding/binary"
)

// OTP implements the counter-mode one-time-pad construction used by
// the paper's counter-mode encryption: pad = AES_K(addr || counter),
// extended across a 32-byte sector by seeding each 16-byte lane with
// its own byte address. The plaintext is recovered as C XOR pad, which
// takes one cycle in hardware once the pad is available — this is how
// counter mode hides the decryption latency behind the memory fetch.
type OTP struct {
	c *Cipher
}

// NewOTP builds the pad generator over an AES-128 key.
func NewOTP(key []byte) (*OTP, error) {
	c, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &OTP{c: c}, nil
}

// MustOTP is like NewOTP but panics on error.
func MustOTP(key []byte) *OTP {
	o, err := NewOTP(key)
	if err != nil {
		panic(err)
	}
	return o
}

// Pad fills dst with pad bytes for the sector at addr encrypted under
// counter. len(dst) must be a multiple of 16. Lane i is seeded with
// (addr+16*i, counter), so a 32-byte sector consumes two AES
// invocations (matching the 16 B/cycle pipelined-engine throughput
// model) and no two (lane address, counter) pairs share a pad.
// Folding the lane index into the counter instead would give lane 1
// under counter c the pad of lane 0 under counter c^1, reusing a pad
// across consecutive writes to the same sector.
func (o *OTP) Pad(dst []byte, addr uint64, counter uint64) {
	if len(dst)%BlockSize != 0 {
		panic("crypto: OTP pad length not a multiple of the block size")
	}
	for off := 0; off < len(dst); off += BlockSize {
		o.lane(dst[off:off+BlockSize], addr+uint64(off), counter)
	}
}

// lane fills the 16-byte dst with the pad of the lane at laneAddr:
// AES_K(laneAddr || counter), encrypted in place.
func (o *OTP) lane(dst []byte, laneAddr, counter uint64) {
	binary.BigEndian.PutUint64(dst[0:8], laneAddr)
	binary.BigEndian.PutUint64(dst[8:16], counter)
	o.c.Encrypt(dst, dst)
}

// XORPad encrypts or decrypts buf in place with the pad for (addr,
// counter). Encryption and decryption are the same operation. Each
// lane's pad is XORed in as it is made, so no buffer of the whole
// pad is built.
func (o *OTP) XORPad(buf []byte, addr uint64, counter uint64) {
	if len(buf)%BlockSize != 0 {
		panic("crypto: OTP pad length not a multiple of the block size")
	}
	var pad [BlockSize]byte
	for off := 0; off < len(buf); off += BlockSize {
		o.lane(pad[:], addr+uint64(off), counter)
		subtle.XORBytes(buf[off:off+BlockSize], buf[off:off+BlockSize], pad[:])
	}
}

// DirectCipher implements the direct-encryption data path: each 16-byte
// lane of a sector is encrypted with AES under an address-derived tweak
// (an XEX/XTS-style construction). Unlike counter mode the cipher must
// run after the ciphertext arrives from memory, exposing its latency on
// the read critical path — the property Section VI evaluates.
type DirectCipher struct {
	c     *Cipher
	tweak *Cipher
}

// NewDirectCipher builds a direct cipher from a data key and a tweak
// key. Both must be 16 bytes.
func NewDirectCipher(dataKey, tweakKey []byte) (*DirectCipher, error) {
	c, err := NewCipher(dataKey)
	if err != nil {
		return nil, err
	}
	t, err := NewCipher(tweakKey)
	if err != nil {
		return nil, err
	}
	return &DirectCipher{c: c, tweak: t}, nil
}

// MustDirectCipher is like NewDirectCipher but panics on error.
func MustDirectCipher(dataKey, tweakKey []byte) *DirectCipher {
	d, err := NewDirectCipher(dataKey, tweakKey)
	if err != nil {
		panic(err)
	}
	return d
}

// Encrypt encrypts buf (length a multiple of 16) in place, tweaked by
// the sector address.
func (d *DirectCipher) Encrypt(buf []byte, addr uint64) { d.xex(buf, addr, d.c.Encrypt) }

// Decrypt decrypts buf (length a multiple of 16) in place, tweaked by
// the sector address.
func (d *DirectCipher) Decrypt(buf []byte, addr uint64) { d.xex(buf, addr, d.c.Decrypt) }

// xex runs block, one direction of the data cipher, over each 16-byte
// lane of buf, whitened before and after by the lane's tweak
// AES_T(addr || lane). The AES calls work on one scratch array, so buf
// never reaches the cipher.Block interface and stays where the caller
// put it.
func (d *DirectCipher) xex(buf []byte, addr uint64, block func(dst, src []byte)) {
	if len(buf)%BlockSize != 0 {
		panic("crypto: DirectCipher input not a multiple of the block size")
	}
	var scratch [2 * BlockSize]byte
	tw, b := scratch[:BlockSize], scratch[BlockSize:]
	for off := 0; off < len(buf); off += BlockSize {
		clear(tw)
		binary.BigEndian.PutUint64(tw, addr)
		tw[8] = byte(off / BlockSize)
		d.tweak.Encrypt(tw, tw)
		lane := buf[off : off+BlockSize]
		subtle.XORBytes(b, lane, tw)
		block(b, b)
		subtle.XORBytes(lane, b, tw)
	}
}
