package sim

import (
	"slices"
	"testing"
)

// tokMix is splitmix64's finalizer, the seeded source of the lockstep
// scripts below.
func tokMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// tokLockstep drives a token table and a Go map through the same
// operations and fails the test as soon as they disagree.
type tokLockstep struct {
	t    *testing.T
	tab  tokTable[uint64]
	want map[uint64]uint64
}

func newTokLockstep(t *testing.T) *tokLockstep {
	return &tokLockstep{t: t, want: map[uint64]uint64{}}
}

func (l *tokLockstep) put(tok, v uint64) {
	l.tab.put(tok, v)
	l.want[tok] = v
	l.check(tok)
}

func (l *tokLockstep) take(tok uint64) {
	l.t.Helper()
	got, gotOK := l.tab.take(tok)
	want, wantOK := l.want[tok]
	delete(l.want, tok)
	if got != want || gotOK != wantOK {
		l.t.Fatalf("take(%d) = %d, %v; map says %d, %v", tok, got, gotOK, want, wantOK)
	}
	l.check(tok)
}

func (l *tokLockstep) get(tok uint64) {
	l.t.Helper()
	got, gotOK := l.tab.get(tok)
	want, wantOK := l.want[tok]
	if got != want || gotOK != wantOK {
		l.t.Fatalf("get(%d) = %d, %v; map says %d, %v", tok, got, gotOK, want, wantOK)
	}
}

// check compares the whole table with the map after an operation on
// tok: the live count, every entry, token 0's miss, the sorted keys,
// the 7/8 load bound and the probe invariants: no empty slot between
// an entry's home slot and its slot, and Robin Hood order (each entry
// of a run at most one slot farther from its home than the one
// before).
func (l *tokLockstep) check(tok uint64) {
	l.t.Helper()
	tab := &l.tab
	if tab.len() != len(l.want) {
		l.t.Fatalf("after %d: %d entries, map has %d", tok, tab.len(), len(l.want))
	}
	if _, ok := tab.get(0); ok {
		l.t.Fatalf("after %d: token 0 found", tok)
	}
	if tab.len()*8 > len(tab.slots)*7 {
		l.t.Fatalf("after %d: %d entries in %d slots", tok, tab.len(), len(tab.slots))
	}
	for k := range l.want {
		l.get(k)
	}
	want := make([]uint64, 0, len(l.want))
	for k := range l.want {
		want = append(want, k)
	}
	slices.Sort(want)
	if got := tab.sortedKeys(nil); !slices.Equal(got, want) {
		l.t.Fatalf("after %d: sorted keys %v, map has %v", tok, got, want)
	}
	seen := 0
	tab.each(func(k uint64, v *uint64) {
		seen++
		if *v != l.want[k] {
			l.t.Fatalf("after %d: each gives %d = %d, map says %d", tok, k, *v, l.want[k])
		}
	})
	if seen != len(l.want) {
		l.t.Fatalf("after %d: each visited %d of %d entries", tok, seen, len(l.want))
	}
	mask := uint64(len(tab.slots) - 1)
	for i, s := range tab.slots {
		if s.tok == 0 {
			continue
		}
		for j := s.tok & mask; j != uint64(i); j = (j + 1) & mask {
			if tab.slots[j].tok == 0 {
				l.t.Fatalf("after %d: token %d sits in slot %d past an empty slot %d", tok, s.tok, i, j)
			}
		}
		prev := tab.slots[(uint64(i)-1)&mask].tok
		if d := (uint64(i) - s.tok) & mask; d > 0 && (prev == 0 || (uint64(i)-1-prev)&mask+1 < d) {
			l.t.Fatalf("after %d: token %d sits %d slots from home after a token %d slots from its own",
				tok, s.tok, d, (uint64(i)-1-prev)&mask)
		}
	}
}

// The table must behave exactly like a Go map under seeded random
// put, take and get over a sliding window of live tokens with random
// gaps and stragglers, so entries collide, wrap around the slot array
// and survive growth and deletion in any interleaving.
func TestTokTableMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		l := newTokLockstep(t)
		next := uint64(1)
		var live []uint64
		for op := uint64(0); op < 3000; op++ {
			h := tokMix(seed<<32 | op)
			switch r := h % 16; {
			case r < 7: // issue a fresh token, sometimes far ahead
				next += 1 + h>>8%3
				if h>>12%50 == 0 {
					next += h >> 16 % 5000
				}
				l.put(next, h)
				live = append(live, next)
			case r < 12 && len(live) > 0: // retire a live token, mostly old ones
				i := int(h >> 8 % uint64(min(len(live), 1+int(h>>20%64))))
				l.take(live[i])
				live = slices.Delete(live, i, i+1)
			case r < 13 && len(live) > 0: // overwrite
				l.put(live[h>>8%uint64(len(live))], h>>1)
			case r < 14: // take a token that is absent, or token 0
				l.take(h >> 8 % (next + 2))
			default:
				l.get(h >> 8 % (next + 2))
				l.get(0)
			}
		}
	}
}

// Tokens exactly one capacity apart share a home slot, so their probe
// runs wrap around the end of the array; deleting from the middle of a
// run, then growing, must keep every survivor reachable.
func TestTokTableWrapAroundAndGrowth(t *testing.T) {
	l := newTokLockstep(t)
	capacity := uint64(tokTableMin)
	// Fill the last slots' home, one capacity apart.
	for i := uint64(0); i < 5; i++ {
		l.put(capacity-2+i*capacity, i)
	}
	l.put(1, 100) // home slot 1, displaced by the wrapped run
	l.take(capacity - 2 + capacity)
	l.take(capacity - 2)
	l.get(capacity - 2 + 4*capacity)
	// Grow past 7/8 load between deletes, while the run is live.
	for tok := uint64(2); tok < 40; tok++ {
		l.put(tok*capacity+7, tok)
		if tok%3 == 0 {
			l.take((tok-1)*capacity + 7)
		}
	}
	if uint64(len(l.tab.slots)) <= capacity {
		t.Fatalf("table never grew: %d slots", len(l.tab.slots))
	}
	for _, tok := range l.tab.sortedKeys(nil) {
		l.take(tok)
	}
	if l.tab.len() != 0 {
		t.Fatalf("%d entries left", l.tab.len())
	}
	l.take(0)
	defer func() {
		if recover() == nil {
			t.Fatal("put accepted token 0")
		}
	}()
	l.tab.put(0, 1)
}

// insertProbe is how many slots an insert of the absent token tok
// would probe: from its home slot to the first empty slot, where a
// Robin Hood insert always ends.
func insertProbe(tab *tokTable[uint64], tok uint64) int {
	if len(tab.slots) == 0 {
		return 1
	}
	mask := uint64(len(tab.slots) - 1)
	n := 1
	for i := tok & mask; tab.slots[i].tok != 0; i = (i + 1) & mask {
		n++
	}
	return n
}

// Tokens that stay live long, as loads queued behind a busy DRAM bank
// do, make the live tokens span more values than the table has slots:
// the window of young tokens wraps onto the old ones and the probe
// runs grow with every lap. An insert must never probe more than
// tokMaxProbe slots without the table doubling, and the doubling must
// stop once the span fits.
func TestTokTableLongLivedTokens(t *testing.T) {
	const (
		young   = 512  // most tokens retire this many tokens after issue
		oldRate = 4    // every 4th token instead lives
		oldLife = 8192 // this long, well past the table's capacity
		issued  = 64 * 1024
	)
	var tab tokTable[uint64]
	want := map[uint64]uint64{}
	take := func(tok uint64) {
		if _, ok := tab.take(tok); !ok {
			t.Fatalf("live token %d missing", tok)
		}
		delete(want, tok)
	}
	for tok := uint64(1); tok <= issued; tok++ {
		probe, size := insertProbe(&tab, tok), len(tab.slots)
		tab.put(tok, tok*3)
		want[tok] = tok * 3
		if probe > tokMaxProbe && len(tab.slots) == size {
			t.Fatalf("insert of %d probed %d slots of %d, and the table did not grow", tok, probe, size)
		}
		if tok > young && (tok-young)%oldRate != 0 {
			take(tok - young)
		}
		if tok > oldLife && (tok-oldLife)%oldRate == 0 {
			take(tok - oldLife)
		}
	}
	if tab.len() != len(want) {
		t.Fatalf("%d entries, want %d", tab.len(), len(want))
	}
	for tok, v := range want {
		if got, ok := tab.get(tok); !ok || got != v {
			t.Fatalf("get(%d) = %d, %v; want %d", tok, got, ok, v)
		}
	}
	if len(tab.slots) > 2*oldLife {
		t.Fatalf("%d slots for a live span of %d tokens", len(tab.slots), oldLife)
	}
}

// reset must size a table for its live count alone and leave it empty.
func TestTokTableReset(t *testing.T) {
	var tab tokTable[uint64]
	for _, c := range []struct{ n, slots int }{{0, 0}, {1, 16}, {14, 16}, {15, 32}, {1000, 2048}} {
		tab.put(99, 1)
		tab.reset(c.n)
		if len(tab.slots) != c.slots || tab.len() != 0 {
			t.Fatalf("reset(%d): %d slots, %d entries; want %d slots, empty", c.n, len(tab.slots), tab.len(), c.slots)
		}
		if _, ok := tab.get(99); ok {
			t.Fatalf("reset(%d) kept an entry", c.n)
		}
	}
}

// BenchmarkTokTable is one token table in the cycle loop's steady
// state, each iteration one put, one get and one take. in-order keeps
// 2,048 live tokens, issued and retired in order. long-lived is
// TestTokTableLongLivedTokens' shape: every 4th token stays live for
// 8,192 tokens, so the live span outgrows the table it would need for
// its live count alone.
func BenchmarkTokTable(b *testing.B) {
	for _, c := range []struct {
		name           string
		young, oldLife uint64
		oldRate        uint64
	}{
		{"in-order", 2048, 2048, 1},
		{"long-lived", 512, 8192, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			var tab tokTable[dest]
			tok := uint64(0)
			step := func() {
				tok++
				tab.put(tok, dest{addr: tok})
				if tok > c.young && (tok-c.young)%c.oldRate != 0 {
					tab.take(tok - c.young)
				}
				if tok > c.oldLife && (tok-c.oldLife)%c.oldRate == 0 {
					tab.take(tok - c.oldLife)
				}
			}
			for tok < 4*c.oldLife {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
				if _, ok := tab.get(tok - c.young/2); !ok {
					b.Fatal("live token missing")
				}
			}
		})
	}
}
