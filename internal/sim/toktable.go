package sim

import "slices"

// tokTable maps nonzero tokens to values: the cycle loop's in-flight
// bookkeeping (GPU.loads, partition.dests, partition.reads). Tokens
// come from counters, so the live ones form a nearly contiguous window
// and their low bits index the slot array directly, with no hash
// function: a token's home slot is tok & mask and collisions probe
// linearly. Probe runs are kept in Robin Hood order (each entry sits
// at most one slot farther from its home than the entry before it), so
// a lookup stops at the first entry closer to its home than the probe
// is, and a deletion shifts the rest of the run back only up to the
// next entry that sits at its home. A window of in-order tokens is
// one long run of entries at their homes, and both stay O(1) on it.
// The array doubles before an insert would take it past 7/8 load and
// never shrinks, so its size follows the live count's high-water
// mark, not the worst case.
//
// Token 0 is reserved: it marks an empty slot, put refuses it, and
// every lookup of it misses, as the metadata wake paths' "no waiter"
// sentinel must.
type tokTable[V any] struct {
	slots []tokSlot[V]
	n     int
}

type tokSlot[V any] struct {
	tok uint64 // 0 = empty
	val V
}

// tokTableMin is the slot count of a table's first allocation.
const tokTableMin = 16

func (t *tokTable[V]) len() int { return t.n }

// find returns the index of tok's slot, or -1.
func (t *tokTable[V]) find(tok uint64) int {
	if tok == 0 || t.n == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i, d := tok&mask, uint64(0); ; i, d = (i+1)&mask, d+1 {
		s := t.slots[i].tok
		if s == tok {
			return int(i)
		}
		if s == 0 || (i-s)&mask < d {
			return -1
		}
	}
}

// get returns tok's value and whether tok is present.
func (t *tokTable[V]) get(tok uint64) (V, bool) {
	if i := t.find(tok); i >= 0 {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// put sets tok's value, inserting tok if absent. It panics on token 0.
func (t *tokTable[V]) put(tok uint64, v V) {
	if tok == 0 {
		panic("sim: token 0 is reserved")
	}
	if (t.n+1)*8 > len(t.slots)*7 {
		t.resize(max(2*len(t.slots), tokTableMin))
	}
	t.insert(tokSlot[V]{tok: tok, val: v})
}

// insert places e, or overwrites e.tok's value, in a table with a free
// slot. Where e is farther from its home than a slot's occupant, e
// takes the slot and the occupant moves on (Robin Hood); e.tok cannot
// lie past such a slot.
func (t *tokTable[V]) insert(e tokSlot[V]) {
	mask := uint64(len(t.slots) - 1)
	for i, d := e.tok&mask, uint64(0); ; i, d = (i+1)&mask, d+1 {
		s := &t.slots[i]
		switch {
		case s.tok == 0:
			*s = e
			t.n++
			return
		case s.tok == e.tok:
			s.val = e.val
			return
		}
		if sd := (i - s.tok) & mask; sd < d {
			e, *s = *s, e
			d = sd
		}
	}
}

// take removes tok and returns its value and whether it was present.
func (t *tokTable[V]) take(tok uint64) (V, bool) {
	i := t.find(tok)
	if i < 0 {
		var zero V
		return zero, false
	}
	v := t.slots[i].val
	t.removeAt(uint64(i))
	return v, true
}

// removeAt empties slot i, shifting each following entry of its run
// back one slot until an empty slot or an entry at its home.
func (t *tokTable[V]) removeAt(i uint64) {
	mask := uint64(len(t.slots) - 1)
	for {
		j := (i + 1) & mask
		s := t.slots[j]
		if s.tok == 0 || s.tok&mask == j {
			break
		}
		t.slots[i] = s
		i = j
	}
	t.slots[i] = tokSlot[V]{}
	t.n--
}

// resize rehashes the entries into size slots, a power of two above
// the live count.
func (t *tokTable[V]) resize(size int) {
	old := t.slots
	t.slots = make([]tokSlot[V], size)
	t.n = 0
	for _, s := range old {
		if s.tok != 0 {
			t.insert(s)
		}
	}
}

// reset empties the table and sizes it for n entries, as few slots as
// the 7/8 load bound allows.
func (t *tokTable[V]) reset(n int) {
	size := 0
	if n > 0 {
		size = tokTableMin
	}
	for n*8 > size*7 {
		size *= 2
	}
	if len(t.slots) == size {
		clear(t.slots)
	} else {
		t.slots = make([]tokSlot[V], size)
	}
	t.n = 0
}

// each calls f with every entry's value, in slot order.
func (t *tokTable[V]) each(f func(tok uint64, v *V)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.tok != 0 {
			f(s.tok, &s.val)
		}
	}
}

// sortedKeys appends the live tokens to dst[:0] in ascending order.
func (t *tokTable[V]) sortedKeys(dst []uint64) []uint64 {
	dst = dst[:0]
	for i := range t.slots {
		if tok := t.slots[i].tok; tok != 0 {
			dst = append(dst, tok)
		}
	}
	slices.Sort(dst)
	return dst
}
