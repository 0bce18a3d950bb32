package secmem

import (
	"encoding/binary"
	"fmt"

	"gpusecmem/internal/crypto"
	"gpusecmem/internal/geometry"
	"gpusecmem/internal/mem"
)

// integrityTree maintains a 16-ary hash tree over metadata leaves
// (counter lines for the BMT, MAC lines for the MT). Interior nodes
// are stored in the untrusted backing memory; only the 64-bit hash of
// the root node lives in a trusted on-chip register. Every leaf
// verification therefore walks the full chain to the register, and
// every leaf update rewrites the chain — the functional equivalent of
// the paper's tree traversal (caching of that traversal is a timing
// concern modelled in internal/sim).
type integrityTree struct {
	lay     *geometry.Layout
	hash    *crypto.CMAC
	backing *mem.Sparse
	// root is the trusted on-chip register: the hash of the level-0
	// node.
	root uint64
}

// leafFlat gives leaves their own index space, disjoint from stored
// node flat indices, for position-binding hashes.
func (t *integrityTree) leafFlat(leaf uint64) uint64 {
	return t.lay.TreeNodes() + leaf
}

func (t *integrityTree) leafHash(leaf uint64, content []byte) uint64 {
	return t.hash.NodeHash(content, t.leafFlat(leaf))
}

func (t *integrityTree) nodeHash(level int, idx uint64, content []byte) uint64 {
	return t.hash.NodeHash(content, t.lay.NodeFlatIndex(level, idx))
}

func (t *integrityTree) readNode(level int, idx uint64, dst []byte) {
	t.backing.Read(t.lay.TreeNodeAddr(level, idx), dst[:geometry.LineSize])
}

func (t *integrityTree) writeNode(level int, idx uint64, src []byte) {
	t.backing.Write(t.lay.TreeNodeAddr(level, idx), src[:geometry.LineSize])
}

// init builds the whole tree from leaf content and sets the root
// register. leafContent must return the 128-byte image of leaf i.
func (t *integrityTree) init(leafContent func(leaf uint64) []byte) {
	// Fill the lowest interior level from leaf hashes.
	lowest := t.lay.TreeLevels() - 1
	var node [geometry.LineSize]byte
	numLeaves := t.lay.NumLeaves()
	for n := uint64(0); n < t.lay.LevelNodes[lowest]; n++ {
		for i := range node {
			node[i] = 0
		}
		for s := 0; s < geometry.TreeArity; s++ {
			leaf := n*geometry.TreeArity + uint64(s)
			if leaf >= numLeaves {
				break
			}
			h := t.leafHash(leaf, leafContent(leaf))
			binary.BigEndian.PutUint64(node[s*geometry.HashBytes:], h)
		}
		t.writeNode(lowest, n, node[:])
	}
	// Fill each level above from the hashes of the level below.
	for level := lowest - 1; level >= 0; level-- {
		var child [geometry.LineSize]byte
		for n := uint64(0); n < t.lay.LevelNodes[level]; n++ {
			for i := range node {
				node[i] = 0
			}
			for s := 0; s < geometry.TreeArity; s++ {
				ci := n*geometry.TreeArity + uint64(s)
				if ci >= t.lay.LevelNodes[level+1] {
					break
				}
				t.readNode(level+1, ci, child[:])
				h := t.nodeHash(level+1, ci, child[:])
				binary.BigEndian.PutUint64(node[s*geometry.HashBytes:], h)
			}
			t.writeNode(level, n, node[:])
		}
	}
	var rootNode [geometry.LineSize]byte
	t.readNode(0, 0, rootNode[:])
	t.root = t.nodeHash(0, 0, rootNode[:])
}

// updateLeaf recomputes the hash chain from leaf to the root register
// after the leaf content changed.
func (t *integrityTree) updateLeaf(leaf uint64, content []byte) {
	h := t.leafHash(leaf, content)
	level, idx, slot := t.lay.LeafParent(leaf)
	var node [geometry.LineSize]byte
	for {
		t.readNode(level, idx, node[:])
		binary.BigEndian.PutUint64(node[slot*geometry.HashBytes:], h)
		t.writeNode(level, idx, node[:])
		h = t.nodeHash(level, idx, node[:])
		plevel, pidx, pslot, ok := t.lay.Parent(level, idx)
		if !ok {
			t.root = h
			return
		}
		level, idx, slot = plevel, pidx, pslot
	}
}

// verifyLeaf walks the chain from leaf content to the root register
// and reports the first mismatch. dataAddr is only for error
// reporting.
func (t *integrityTree) verifyLeaf(leaf uint64, content []byte, dataAddr uint64) error {
	h := t.leafHash(leaf, content)
	level, idx, slot := t.lay.LeafParent(leaf)
	var node [geometry.LineSize]byte
	for {
		t.readNode(level, idx, node[:])
		stored := binary.BigEndian.Uint64(node[slot*geometry.HashBytes:])
		if stored != h {
			return &IntegrityError{
				Kind: "tree", Addr: dataAddr,
				Detail: fmt.Sprintf("%s level %d node %d slot %d: stored hash %#x != computed %#x",
					t.lay.Kind, level, idx, slot, stored, h),
			}
		}
		h = t.nodeHash(level, idx, node[:])
		plevel, pidx, pslot, ok := t.lay.Parent(level, idx)
		if !ok {
			if h != t.root {
				return &IntegrityError{
					Kind: "root", Addr: dataAddr,
					Detail: fmt.Sprintf("%s root register %#x != computed %#x", t.lay.Kind, t.root, h),
				}
			}
			return nil
		}
		level, idx, slot = plevel, pidx, pslot
	}
}
