package crypto

import (
	"crypto/sha256"
	"encoding/binary"
)

// The secure-memory engines can hash integrity-tree nodes with either
// AES-CMAC (keyed, the default) or keyed SHA-256 (hash-tree style, as
// in the original Merkle-tree secure processors); this file provides
// the latter.

// NodeHasher computes the 64-bit position-bound hash of an
// integrity-tree node. CMAC satisfies it (the default engine
// configuration); SHA256Hasher provides the hash-tree alternative.
type NodeHasher interface {
	NodeHash(childData []byte, nodeIndex uint64) uint64
}

// SHA256Hasher hashes tree nodes with keyed SHA-256: the 16-byte key
// is prepended (secret-prefix keying is sound here because messages
// are fixed-length node images, closing the length-extension door).
type SHA256Hasher struct {
	key [16]byte
}

// NewSHA256Hasher builds a hasher over a 16-byte key.
func NewSHA256Hasher(key []byte) *SHA256Hasher {
	h := &SHA256Hasher{}
	copy(h.key[:], key)
	return h
}

// NodeHash implements NodeHasher.
func (h *SHA256Hasher) NodeHash(childData []byte, nodeIndex uint64) uint64 {
	buf := make([]byte, 0, 16+len(childData)+8)
	buf = append(buf, h.key[:]...)
	buf = append(buf, childData...)
	buf = binary.BigEndian.AppendUint64(buf, nodeIndex)
	d := sha256.Sum256(buf)
	return binary.BigEndian.Uint64(d[:8])
}

var _ NodeHasher = (*CMAC)(nil)
var _ NodeHasher = (*SHA256Hasher)(nil)
