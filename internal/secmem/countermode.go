package secmem

import (
	"gpusecmem/internal/crypto"
	"gpusecmem/internal/geometry"
)

// CounterMode is the functional counter-mode secure-memory engine
// (Section V): split-counter OTP encryption, stateful sector MACs, and
// a BMT over the counter lines with its root in a trusted register.
//
// Data lines are protected from their first write (or first read,
// which zero-initializes through the full secure path).
type CounterMode struct {
	engine
	otp *crypto.OTP
	// OverflowReencryptions counts re-encryptions triggered by
	// minor-counter overflow.
	OverflowReencryptions int
}

// NewCounterMode builds an engine protecting dataBytes of memory
// (a positive multiple of 16 KB). Construction materializes the
// counter region and the BMT, so it is O(dataBytes/16KB).
func NewCounterMode(dataBytes uint64, keys Keys, prot Protection) (*CounterMode, error) {
	core, err := newEngine(dataBytes, geometry.BMT, keys, prot)
	if err != nil {
		return nil, err
	}
	return &CounterMode{engine: core, otp: crypto.MustOTP(keys.Encryption[:])}, nil
}

// MustCounterMode is like NewCounterMode but panics on error.
func MustCounterMode(dataBytes uint64, keys Keys, prot Protection) *CounterMode {
	e, err := NewCounterMode(dataBytes, keys, prot)
	if err != nil {
		panic(err)
	}
	return e
}

func (e *CounterMode) storeCounterLine(line uint64, cl *CounterLine) {
	var buf [geometry.LineSize]byte
	EncodeCounterLine(cl, buf[:])
	e.backing.Write(e.lay.CounterLineAddr(line), buf[:])
	if e.prot.Tree {
		e.tree.updateLeaf(line, buf[:])
	}
}

// verifyCounterLine checks the counter line against the BMT before its
// counters are trusted for decryption or MAC verification.
func (e *CounterMode) verifyCounterLine(line uint64, dataAddr uint64) (CounterLine, error) {
	var buf [geometry.LineSize]byte
	e.backing.Read(e.lay.CounterLineAddr(line), buf[:])
	if e.prot.Tree {
		if err := e.tree.verifyLeaf(line, buf[:], dataAddr); err != nil {
			return CounterLine{}, err
		}
	}
	return DecodeCounterLine(buf[:]), nil
}

// encryptLineWith encrypts 128 B of plaintext into the backing store
// at addr under the given counter value and refreshes the sector MACs.
func (e *CounterMode) encryptLineWith(addr uint64, plaintext []byte, ctr uint64) {
	var ct [geometry.LineSize]byte
	copy(ct[:], plaintext)
	for s := 0; s < geometry.SectorsPerLine; s++ {
		sa := addr + uint64(s)*geometry.SectorSize
		sector := ct[s*geometry.SectorSize : (s+1)*geometry.SectorSize]
		e.otp.XORPad(sector, sa, ctr)
		if e.prot.MAC {
			tag := e.mac.StatefulMAC(sector, sa, ctr)
			e.backing.WriteUint16(e.lay.MACSectorAddr(sa), tag)
		}
	}
	e.backing.Write(addr, ct[:])
}

// WriteLine encrypts and stores one 128-byte data line. The line's
// minor counter is incremented first (counters must never be reused);
// a minor-counter overflow bumps the shared major counter and
// re-encrypts the whole 16 KB region under fresh counters.
func (e *CounterMode) WriteLine(addr uint64, plaintext []byte) error {
	if err := e.checkLine("write", addr, plaintext); err != nil {
		return err
	}
	line := e.lay.CounterLine(addr)
	slot := e.lay.CounterSlot(addr)
	cl, err := e.verifyCounterLine(line, addr)
	if err != nil {
		return err
	}
	if cl.Minors[slot] == geometry.MinorCounterMax {
		if err := e.reencryptRegion(line, &cl); err != nil {
			return err
		}
	}
	cl.Minors[slot]++
	e.encryptLineWith(addr, plaintext, cl.CounterValue(slot))
	e.storeCounterLine(line, &cl)
	e.touched[addr/geometry.LineSize] = true
	return nil
}

// reencryptRegion handles minor-counter overflow: it decrypts every
// touched line in the 16 KB region under the old counters, bumps the
// major counter, resets all minors, and re-encrypts.
func (e *CounterMode) reencryptRegion(line uint64, cl *CounterLine) error {
	base := line * geometry.CounterCoverage
	var plains [geometry.MinorCountersPerLine][]byte
	for i := 0; i < geometry.MinorCountersPerLine; i++ {
		la := base + uint64(i)*geometry.LineSize
		if !e.touched[la/geometry.LineSize] {
			continue
		}
		buf := make([]byte, geometry.LineSize)
		if err := e.decryptLine(la, cl, i, buf); err != nil {
			return err
		}
		plains[i] = buf
	}
	cl.Major++
	for i := range cl.Minors {
		cl.Minors[i] = 0
	}
	e.OverflowReencryptions++
	for i, p := range plains {
		if p == nil {
			continue
		}
		la := base + uint64(i)*geometry.LineSize
		e.encryptLineWith(la, p, cl.CounterValue(i))
	}
	return nil
}

// decryptLine reads ciphertext at addr, verifies sector MACs, and
// decrypts into dst using the counter from cl/slot.
func (e *CounterMode) decryptLine(addr uint64, cl *CounterLine, slot int, dst []byte) error {
	ctr := cl.CounterValue(slot)
	var ct [geometry.LineSize]byte
	e.backing.Read(addr, ct[:])
	for s := 0; s < geometry.SectorsPerLine; s++ {
		sa := addr + uint64(s)*geometry.SectorSize
		sector := ct[s*geometry.SectorSize : (s+1)*geometry.SectorSize]
		if e.prot.MAC {
			want := e.backing.ReadUint16(e.lay.MACSectorAddr(sa))
			got := e.mac.StatefulMAC(sector, sa, ctr)
			if got != want {
				return &IntegrityError{Kind: "mac", Addr: sa, Detail: "sector MAC mismatch"}
			}
		}
		e.otp.XORPad(sector, sa, ctr)
	}
	copy(dst, ct[:])
	return nil
}

// ReadLine verifies and decrypts one 128-byte data line into dst.
func (e *CounterMode) ReadLine(addr uint64, dst []byte) error {
	if err := e.checkRead(addr, dst, e.WriteLine); err != nil {
		return err
	}
	return e.open(addr, dst)
}

// open authenticates the line's counter through the BMT, then verifies
// the sector MACs and decrypts the line into dst.
func (e *CounterMode) open(addr uint64, dst []byte) error {
	line := e.lay.CounterLine(addr)
	cl, err := e.verifyCounterLine(line, addr)
	if err != nil {
		return err
	}
	return e.decryptLine(addr, &cl, e.lay.CounterSlot(addr), dst)
}

// scrubLine checks one written line as a read would, without returning
// its data, and appends the first violation found.
func (e *CounterMode) scrubLine(addr uint64, vs []*IntegrityError) []*IntegrityError {
	var buf [geometry.LineSize]byte
	if ie, ok := e.open(addr, buf[:]).(*IntegrityError); ok {
		vs = append(vs, ie)
	}
	return vs
}
