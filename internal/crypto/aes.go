// Package crypto holds the cryptographic constructions used by the
// secure-memory engines: AES-CMAC (RFC 4493), the paper's counter-mode
// one-time pad (OTP), the XEX-style direct cipher, and keyed tree-node
// hashes.
//
// The AES-128 block cipher and SHA-256 come from the Go standard
// library (crypto/aes, crypto/sha256). Cipher only narrows crypto/aes
// to the 128-bit keys the paper models. CMAC, OTP, DirectCipher and
// the node hashes are this package's own, because the standard library
// has none of them. Correctness is established in the tests against
// the FIPS-197 and RFC 4493 vectors and against known answers for each
// construction.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = aes.BlockSize

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

// Cipher is an AES-128 block cipher with a fixed expanded key.
// It is safe for concurrent use: all methods are read-only with
// respect to the receiver.
type Cipher struct {
	b cipher.Block
}

// NewCipher expands key into an AES-128 cipher. The key must be
// exactly 16 bytes; crypto/aes would also accept AES-192 and AES-256
// keys, which the modelled engines do not have.
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("crypto: invalid AES-128 key size %d (want %d)", len(key), KeySize)
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &Cipher{b: b}, nil
}

// MustCipher is like NewCipher but panics on a bad key length. Intended
// for package-internal construction from fixed-size arrays.
func MustCipher(key []byte) *Cipher {
	c, err := NewCipher(key)
	if err != nil {
		panic(err)
	}
	return c
}

// Encrypt encrypts one 16-byte block from src into dst. dst and src may
// overlap entirely. Both must be at least BlockSize bytes; only the
// first BlockSize bytes are used.
func (c *Cipher) Encrypt(dst, src []byte) { c.b.Encrypt(dst, src) }

// Decrypt decrypts one 16-byte block from src into dst. dst and src may
// overlap entirely.
func (c *Cipher) Decrypt(dst, src []byte) { c.b.Decrypt(dst, src) }

// EncryptBlocks encrypts len(src)/16 consecutive blocks. len(src) must
// be a multiple of BlockSize and len(dst) >= len(src).
func (c *Cipher) EncryptBlocks(dst, src []byte) {
	if len(src)%BlockSize != 0 {
		panic("crypto: EncryptBlocks input not a multiple of the block size")
	}
	for i := 0; i < len(src); i += BlockSize {
		c.b.Encrypt(dst[i:i+BlockSize], src[i:i+BlockSize])
	}
}

// DecryptBlocks decrypts len(src)/16 consecutive blocks.
func (c *Cipher) DecryptBlocks(dst, src []byte) {
	if len(src)%BlockSize != 0 {
		panic("crypto: DecryptBlocks input not a multiple of the block size")
	}
	for i := 0; i < len(src); i += BlockSize {
		c.b.Decrypt(dst[i:i+BlockSize], src[i:i+BlockSize])
	}
}
