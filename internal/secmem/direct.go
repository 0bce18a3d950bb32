package secmem

import (
	"gpusecmem/internal/crypto"
	"gpusecmem/internal/geometry"
)

// Direct is the functional direct-encryption secure-memory engine
// (Section VI): each sector is encrypted with an address-tweaked AES
// construction, optionally MACed per sector, and the MAC lines are
// optionally covered by a full Merkle Tree whose root lives in a
// trusted register.
//
// Unlike counter mode, confidentiality here does not depend on any
// integrity metadata — dropping the MT (or even the MACs) weakens
// tamper/replay detection but never exposes plaintext. The engine's
// tests demonstrate both sides: with the MT, replayed (ciphertext,
// MAC) pairs are detected; with MACs alone they are not.
type Direct struct {
	engine
	cipher *crypto.DirectCipher
}

// NewDirect builds a direct-encryption engine protecting dataBytes
// (a positive multiple of 16 KB). Protection.Tree requires
// Protection.MAC since MAC lines are the tree leaves.
func NewDirect(dataBytes uint64, keys Keys, prot Protection) (*Direct, error) {
	if prot.Tree && !prot.MAC {
		return nil, &AccessError{Op: "configure", Addr: 0, Why: "MT requires MACs (MAC lines are the tree leaves)"}
	}
	core, err := newEngine(dataBytes, geometry.MT, keys, prot)
	if err != nil {
		return nil, err
	}
	// The tweak key is derived from the encryption key by a fixed
	// xor-constant; independent keys would also do.
	tweakKey := keys.Encryption
	for i := range tweakKey {
		tweakKey[i] ^= 0x5c
	}
	return &Direct{engine: core, cipher: crypto.MustDirectCipher(keys.Encryption[:], tweakKey[:])}, nil
}

// MustDirect is like NewDirect but panics on error.
func MustDirect(dataBytes uint64, keys Keys, prot Protection) *Direct {
	e, err := NewDirect(dataBytes, keys, prot)
	if err != nil {
		panic(err)
	}
	return e
}

// macLineImage returns the 128-byte MAC line with index line, the
// tree leaf that covers its data lines.
func (e *Direct) macLineImage(line uint64) (img [geometry.LineSize]byte) {
	e.backing.Read(e.lay.MACLineAddr(line), img[:])
	return img
}

// verifyMACLine authenticates the MAC line covering addr through the
// MT before its MACs are trusted ("every newly fetched MAC block must
// be authenticated").
func (e *Direct) verifyMACLine(addr uint64) error {
	if !e.prot.Tree {
		return nil
	}
	line := e.lay.MACLine(addr)
	leaf := e.macLineImage(line)
	return e.tree.verifyLeaf(line, leaf[:], addr)
}

// WriteLine encrypts and stores one 128-byte data line, refreshes its
// sector MACs, and (if enabled) updates the MT chain for the MAC line.
func (e *Direct) WriteLine(addr uint64, plaintext []byte) error {
	if err := e.checkLine("write", addr, plaintext); err != nil {
		return err
	}
	var ct [geometry.LineSize]byte
	copy(ct[:], plaintext)
	for s := 0; s < geometry.SectorsPerLine; s++ {
		sa := addr + uint64(s)*geometry.SectorSize
		sector := ct[s*geometry.SectorSize : (s+1)*geometry.SectorSize]
		e.cipher.Encrypt(sector, sa)
		if e.prot.MAC {
			tag := e.mac.AddressMAC(sector, sa)
			e.backing.WriteUint16(e.lay.MACSectorAddr(sa), tag)
		}
	}
	e.backing.Write(addr, ct[:])
	if e.prot.Tree {
		line := e.lay.MACLine(addr)
		leaf := e.macLineImage(line)
		e.tree.updateLeaf(line, leaf[:])
	}
	e.touched[addr/geometry.LineSize] = true
	return nil
}

// ReadLine verifies and decrypts one 128-byte data line into dst.
func (e *Direct) ReadLine(addr uint64, dst []byte) error {
	if err := e.checkRead(addr, dst, e.WriteLine); err != nil {
		return err
	}
	if err := e.verifyMACLine(addr); err != nil {
		return err
	}
	var ct [geometry.LineSize]byte
	e.backing.Read(addr, ct[:])
	for s := 0; s < geometry.SectorsPerLine; s++ {
		sa := addr + uint64(s)*geometry.SectorSize
		sector := ct[s*geometry.SectorSize : (s+1)*geometry.SectorSize]
		if e.prot.MAC {
			want := e.backing.ReadUint16(e.lay.MACSectorAddr(sa))
			got := e.mac.AddressMAC(sector, sa)
			if got != want {
				return &IntegrityError{Kind: "mac", Addr: sa, Detail: "sector MAC mismatch"}
			}
		}
		e.cipher.Decrypt(sector, sa)
	}
	copy(dst, ct[:])
	return nil
}

// scrubLine checks one written line without decrypting it: a failed
// MAC-line authentication is its one violation, and otherwise every
// sector whose MAC mismatches the stored ciphertext is one.
func (e *Direct) scrubLine(addr uint64, vs []*IntegrityError) []*IntegrityError {
	if ie, ok := e.verifyMACLine(addr).(*IntegrityError); ok {
		return append(vs, ie)
	}
	if !e.prot.MAC {
		return vs
	}
	var ct [geometry.LineSize]byte
	e.backing.Read(addr, ct[:])
	for s := 0; s < geometry.SectorsPerLine; s++ {
		sa := addr + uint64(s)*geometry.SectorSize
		sector := ct[s*geometry.SectorSize : (s+1)*geometry.SectorSize]
		want := e.backing.ReadUint16(e.lay.MACSectorAddr(sa))
		if got := e.mac.AddressMAC(sector, sa); got != want {
			vs = append(vs, &IntegrityError{Kind: "mac", Addr: sa, Detail: "sector MAC mismatch (scrub)"})
		}
	}
	return vs
}
