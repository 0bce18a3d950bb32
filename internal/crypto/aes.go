// Package crypto holds the cryptographic constructions used by the
// secure-memory engines: AES-CMAC (RFC 4493), which also serves as the
// keyed integrity-tree node hash, the paper's counter-mode one-time
// pad (OTP), and the XEX-style direct cipher.
//
// The AES-128 block cipher comes from the Go standard library
// (crypto/aes). Cipher only narrows crypto/aes to the 128-bit keys the
// paper models. CMAC, OTP and DirectCipher are this package's own,
// because the standard library has none of them. Correctness is
// established in the tests against the FIPS-197 and RFC 4493 vectors
// and against known answers for each construction.
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
