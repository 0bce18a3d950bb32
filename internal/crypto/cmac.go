package crypto

import "encoding/binary"

// CMAC computes AES-CMAC (RFC 4493) tags. It is used as the MAC
// function for data blocks (stateful MACs over ciphertext, address and
// counter) and as the keyed hash for Merkle/Bonsai-Merkle tree nodes.
//
// A CMAC value is stateless with respect to messages: each call to Sum
// is independent. The struct is safe for concurrent use.
type CMAC struct {
	c  *Cipher
	k1 [BlockSize]byte
	k2 [BlockSize]byte
}

// NewCMAC builds a CMAC instance over an AES-128 key.
func NewCMAC(key []byte) (*CMAC, error) {
	c, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	m := &CMAC{c: c}
	var l [BlockSize]byte
	c.Encrypt(l[:], l[:])
	m.k1 = dbl(l)
	m.k2 = dbl(m.k1)
	return m, nil
}

// MustCMAC is like NewCMAC but panics on error.
func MustCMAC(key []byte) *CMAC {
	m, err := NewCMAC(key)
	if err != nil {
		panic(err)
	}
	return m
}

// dbl doubles a 128-bit value in GF(2^128) with the CMAC polynomial.
func dbl(in [BlockSize]byte) [BlockSize]byte {
	var out [BlockSize]byte
	carry := byte(0)
	for i := BlockSize - 1; i >= 0; i-- {
		out[i] = in[i]<<1 | carry
		carry = in[i] >> 7
	}
	if carry != 0 {
		out[BlockSize-1] ^= 0x87
	}
	return out
}

// Sum returns the 16-byte CMAC tag of msg.
func (m *CMAC) Sum(msg []byte) [BlockSize]byte {
	var x [BlockSize]byte
	n := len(msg)
	full := n / BlockSize
	rem := n % BlockSize
	last := full
	complete := rem == 0 && n > 0
	if complete {
		last = full - 1
	}
	for i := 0; i < last; i++ {
		for j := 0; j < BlockSize; j++ {
			x[j] ^= msg[i*BlockSize+j]
		}
		m.c.Encrypt(x[:], x[:])
	}
	var final [BlockSize]byte
	if complete {
		copy(final[:], msg[last*BlockSize:])
		for j := 0; j < BlockSize; j++ {
			final[j] ^= m.k1[j]
		}
	} else {
		copy(final[:], msg[last*BlockSize:])
		final[rem] = 0x80
		for j := 0; j < BlockSize; j++ {
			final[j] ^= m.k2[j]
		}
	}
	for j := 0; j < BlockSize; j++ {
		x[j] ^= final[j]
	}
	m.c.Encrypt(x[:], x[:])
	return x
}

// Sum64 returns the tag truncated to 64 bits, the per-128B-block MAC
// width used throughout the paper (8 B per 128 B data block).
func (m *CMAC) Sum64(msg []byte) uint64 {
	t := m.Sum(msg)
	return binary.BigEndian.Uint64(t[:8])
}

// Sum16 returns the tag truncated to 16 bits, the per-32B-sector MAC
// width ("truncated MAC, i.e., 16-bit MAC for each 32B sector").
func (m *CMAC) Sum16(msg []byte) uint16 {
	t := m.Sum(msg)
	return binary.BigEndian.Uint16(t[:2])
}

// macInputBytes is the stack room for a MAC or node-hash input: a
// 128-byte tree node and its 8-byte index fit, and so does a 32-byte
// sector with its address and counter. A longer input spills to the
// heap through append and is hashed the same.
const macInputBytes = 128 + 16

// StatefulMAC computes the paper's stateful data MAC: a tag over the
// ciphertext sector, its address, and the counter value that encrypted
// it. Including the counter makes replayed (ciphertext, MAC) pairs
// detectable without covering data with the integrity tree.
func (m *CMAC) StatefulMAC(ciphertext []byte, addr uint64, counter uint64) uint16 {
	var in [macInputBytes]byte
	buf := append(in[:0], ciphertext...)
	buf = binary.BigEndian.AppendUint64(buf, addr)
	buf = binary.BigEndian.AppendUint64(buf, counter)
	return m.Sum16(buf)
}

// AddressMAC computes the direct-encryption data MAC: a tag over the
// ciphertext sector and its address (no counter exists).
func (m *CMAC) AddressMAC(ciphertext []byte, addr uint64) uint16 {
	var in [macInputBytes]byte
	buf := append(in[:0], ciphertext...)
	buf = binary.BigEndian.AppendUint64(buf, addr)
	return m.Sum16(buf)
}

// NodeHash computes the 64-bit keyed hash of a tree node's child
// content used for Merkle/BMT interior nodes. The node index is mixed
// in so identical child content at different tree positions hashes
// differently (defeats node-relocation attacks).
func (m *CMAC) NodeHash(childData []byte, nodeIndex uint64) uint64 {
	var in [macInputBytes]byte
	buf := append(in[:0], childData...)
	buf = binary.BigEndian.AppendUint64(buf, nodeIndex)
	return m.Sum64(buf)
}
