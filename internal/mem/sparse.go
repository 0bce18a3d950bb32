// Package mem provides the functional backing store that plays the
// role of the untrusted off-chip GPU DRAM. It is byte-addressable over
// the full protected range (4 GB by default) but only allocates pages
// that are actually touched, so tests and examples can address the
// whole space cheaply.
//
// Because the store models *untrusted* memory, it deliberately exposes
// raw access (Read/Write with no protection): the secure-memory engines
// in internal/secmem layer confidentiality and integrity on top, and
// the tamper tests use the raw interface to play the attacker.
//
// Concurrency and aliasing contract: a Sparse store is single-owner —
// no
// internal locking; concurrent readers and writers must synchronize
// externally. Read copies into the caller's buffer and Write copies
// out of it, so callers may reuse their buffers immediately.
package mem

import "fmt"

// PageSize is the sparse-allocation granularity. It is an
// implementation detail (not an architectural parameter) chosen to
// amortize map overhead.
const PageSize = 4096

// Sparse is a sparse byte-addressable memory. The zero value is not
// usable; use NewSparse. Sparse is not safe for concurrent mutation.
type Sparse struct {
	size  uint64
	pages map[uint64]*[PageSize]byte
}

// NewSparse creates a memory of the given byte size. Size must be a
// positive multiple of PageSize.
func NewSparse(size uint64) *Sparse {
	if size == 0 || size%PageSize != 0 {
		panic(fmt.Sprintf("mem: size %d must be a positive multiple of %d", size, PageSize))
	}
	return &Sparse{size: size, pages: make(map[uint64]*[PageSize]byte)}
}

// Size returns the addressable size in bytes.
func (s *Sparse) Size() uint64 { return s.size }

// AllocatedPages returns how many pages have been materialized.
func (s *Sparse) AllocatedPages() int { return len(s.pages) }

func (s *Sparse) check(addr uint64, n int) {
	if n < 0 || addr > s.size || uint64(n) > s.size-addr {
		panic(fmt.Sprintf("mem: access [%#x, %#x) outside memory of size %#x", addr, addr+uint64(n), s.size))
	}
}

// Read copies len(dst) bytes starting at addr into dst. Untouched
// memory reads as zero.
func (s *Sparse) Read(addr uint64, dst []byte) {
	s.check(addr, len(dst))
	for len(dst) > 0 {
		pageID := addr / PageSize
		off := addr % PageSize
		n := PageSize - off
		if uint64(len(dst)) < n {
			n = uint64(len(dst))
		}
		if page, ok := s.pages[pageID]; ok {
			copy(dst[:n], page[off:off+n])
		} else {
			for i := uint64(0); i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += n
	}
}

// Write copies src into memory starting at addr, materializing pages
// as needed.
func (s *Sparse) Write(addr uint64, src []byte) {
	s.check(addr, len(src))
	for len(src) > 0 {
		pageID := addr / PageSize
		off := addr % PageSize
		n := PageSize - off
		if uint64(len(src)) < n {
			n = uint64(len(src))
		}
		page, ok := s.pages[pageID]
		if !ok {
			page = new([PageSize]byte)
			s.pages[pageID] = page
		}
		copy(page[off:off+n], src[:n])
		src = src[n:]
		addr += n
	}
}

// ReadUint64 reads an 8-byte big-endian word at addr.
func (s *Sparse) ReadUint64(addr uint64) uint64 {
	var b [8]byte
	s.Read(addr, b[:])
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// WriteUint64 writes an 8-byte big-endian word at addr.
func (s *Sparse) WriteUint64(addr uint64, v uint64) {
	b := [8]byte{byte(v >> 56), byte(v >> 48), byte(v >> 40), byte(v >> 32),
		byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	s.Write(addr, b[:])
}

// ReadUint16 reads a 2-byte big-endian half-word at addr.
func (s *Sparse) ReadUint16(addr uint64) uint16 {
	var b [2]byte
	s.Read(addr, b[:])
	return uint16(b[0])<<8 | uint16(b[1])
}

// WriteUint16 writes a 2-byte big-endian half-word at addr.
func (s *Sparse) WriteUint16(addr uint64, v uint16) {
	b := [2]byte{byte(v >> 8), byte(v)}
	s.Write(addr, b[:])
}

// Snapshot copies n bytes at addr; a convenience for replay attacks in
// tests (the attacker records old memory content to play back later).
func (s *Sparse) Snapshot(addr uint64, n int) []byte {
	buf := make([]byte, n)
	s.Read(addr, buf)
	return buf
}
