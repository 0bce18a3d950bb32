package secmem

import (
	"gpusecmem/internal/crypto"
	"gpusecmem/internal/geometry"
	"gpusecmem/internal/mem"
)

// Keys holds the three independent on-chip secret keys of an engine.
type Keys struct {
	// Encryption is the AES-128 data encryption key (OTP generation
	// for counter mode, block cipher for direct mode).
	Encryption [16]byte
	// MAC keys the per-sector data MACs.
	MAC [16]byte
	// Tree keys the integrity-tree node hashes.
	Tree [16]byte
}

// Protection selects which integrity mechanisms an engine enables,
// matching the design points of Table VIII (ctr, ctr_bmt,
// ctr_mac_bmt, direct, direct_mac, direct_mac_mt).
type Protection struct {
	// MAC enables per-sector data MACs.
	MAC bool
	// Tree enables the integrity tree (BMT over counters for counter
	// mode, MT over MAC lines for direct encryption; requires MAC for
	// direct mode since MAC lines are the leaves).
	Tree bool
}

// FullProtection is encryption + MACs + tree: the complete secure
// memory design.
var FullProtection = Protection{MAC: true, Tree: true}

// Engine is the interface both functional engines satisfy; the
// examples and the root-package API accept either.
type Engine interface {
	ReadLine(addr uint64, dst []byte) error
	WriteLine(addr uint64, src []byte) error
	Backing() *mem.Sparse
	Layout() *geometry.Layout
	// VerifyAll scrubs the whole protected region offline, reporting
	// every MAC or tree violation without returning data.
	VerifyAll() *ScrubReport
}

var (
	_ Engine = (*CounterMode)(nil)
	_ Engine = (*Direct)(nil)
)

// zeroLine is the plaintext a line holds before its first write and
// the image of every tree leaf in a fresh engine (all counters and
// MACs start at zero). Nothing writes it.
var zeroLine [geometry.LineSize]byte

// engine is the state and plumbing both functional engines embed: the
// untrusted backing store laid out for one tree kind, the data-MAC
// key, the integrity tree, the enabled protection, and the set of
// lines written through the engine. CounterMode and Direct add only
// their own encryption, MACs and choice of tree leaf.
type engine struct {
	lay     *geometry.Layout
	backing *mem.Sparse
	mac     *crypto.CMAC
	tree    integrityTree
	prot    Protection
	// touched tracks data lines that have been written through the
	// engine (and are therefore covered by MACs).
	touched map[uint64]bool
}

// newEngine lays out dataBytes (a positive multiple of 16 KB) for the
// tree kind, sizes the backing store in whole pages and, when the tree
// is enabled, builds it over zero leaves. Construction materializes
// the tree, so it is O(dataBytes/16KB).
func newEngine(dataBytes uint64, kind geometry.TreeKind, keys Keys, prot Protection) (engine, error) {
	lay, err := geometry.NewLayout(dataBytes, kind)
	if err != nil {
		return engine{}, err
	}
	backing := mem.NewSparse((lay.TotalBytes + mem.PageSize - 1) / mem.PageSize * mem.PageSize)
	e := engine{
		lay:     lay,
		backing: backing,
		mac:     crypto.MustCMAC(keys.MAC[:]),
		tree:    integrityTree{lay: lay, hash: crypto.MustCMAC(keys.Tree[:]), backing: backing},
		prot:    prot,
		touched: make(map[uint64]bool),
	}
	if prot.Tree {
		e.tree.init(func(uint64) []byte { return zeroLine[:] })
	}
	return e, nil
}

// Backing exposes the untrusted store; tests use it to play the
// physical attacker (snoop, tamper, replay).
func (e *engine) Backing() *mem.Sparse { return e.backing }

// Layout exposes the metadata geometry.
func (e *engine) Layout() *geometry.Layout { return e.lay }

// checkLine rejects any access but one whole line: addr must be
// 128-byte aligned and inside the protected region, and buf exactly
// 128 bytes long.
func (e *engine) checkLine(op string, addr uint64, buf []byte) error {
	var why string
	switch {
	case addr%geometry.LineSize != 0:
		why = "not 128B-aligned"
	case addr >= e.lay.DataBytes:
		why = "outside protected region"
	case len(buf) != geometry.LineSize:
		why = "buffer must be exactly 128B"
	default:
		return nil
	}
	return &AccessError{Op: op, Addr: addr, Why: why}
}

// checkRead checks a read of dst at addr. A line never written through
// the engine is first zero-initialized by write, the engine's full
// secure path, so every line a caller has observed is covered by MACs
// and the tree.
func (e *engine) checkRead(addr uint64, dst []byte, write func(addr uint64, plaintext []byte) error) error {
	if err := e.checkLine("read", addr, dst); err != nil {
		return err
	}
	if e.touched[addr/geometry.LineSize] {
		return nil
	}
	return write(addr, zeroLine[:])
}
