package recycle

import (
	"runtime/debug"
	"slices"
	"sync"
	"testing"
)

// noGC keeps the collector from emptying the pools mid-test. The
// race detector makes sync.Pool drop a random share of its Puts, so
// the tests that check reuse skip under it.
func noGC(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

type pair struct {
	a, b uint64
	p    *int
}

func TestMakeReusesPutArrays(t *testing.T) {
	noGC(t)
	s := Make[pair](37)
	if len(s) != 37 || cap(s) != 37 {
		t.Fatalf("len %d cap %d, want 37 37", len(s), cap(s))
	}
	x := 1
	for i := range s {
		s[i] = pair{uint64(i), 2, &x}
	}
	Put(s)
	r := Make[pair](37)
	if &r[0] != &s[0] {
		t.Fatal("Make did not reuse the array Put handed back")
	}
	if i := slices.IndexFunc(r, func(e pair) bool { return e != pair{} }); i >= 0 {
		t.Fatalf("reused element %d is %+v, want zero", i, r[i])
	}
}

func TestPoolsAreKeyedByTypeAndLength(t *testing.T) {
	noGC(t)
	u := Make[uint64](41)
	Put(u)
	if s := Make[uint64](42); &s[0] == &u[0] {
		t.Fatal("a 42-element Make reused a 41-element array")
	}
	type other uint64
	if s := Make[other](41); any(&s[0]) == any(&u[0]) || len(s) != 41 {
		t.Fatal("a Make of another type reused the array")
	}
	if s := Make[uint64](41); &s[0] != &u[0] {
		t.Fatal("the matching Make did not reuse the array")
	}
}

func TestPutPoolsWholeCapacity(t *testing.T) {
	noGC(t)
	s := Make[int32](64)[:3]
	Put(s)
	if r := Make[int32](64); &r[0] != &s[0] {
		t.Fatal("Put of a short slice did not pool its full array")
	}
	if Make[int32](0) != nil {
		t.Fatal("Make(0) is not nil")
	}
	Put([]int32(nil)) // no array: nothing to pool
}

func TestGrowKeepsContents(t *testing.T) {
	var s []int
	for i := 0; i < 100; i++ {
		s = Grow(s, 8)
		s = append(s, i)
	}
	if cap(s) != 128 {
		t.Fatalf("cap %d after growing from 8 by doubling, want 128", cap(s))
	}
	for i, v := range s {
		if v != i {
			t.Fatalf("s[%d] = %d after growth", i, v)
		}
	}
}

func TestMakeAndPutAllocateNothing(t *testing.T) {
	noGC(t)
	Put(Make[pair](29))
	if n := testing.AllocsPerRun(100, func() { Put(Make[pair](29)) }); n != 0 {
		t.Fatalf("a pooled Make and Put allocate %v times", n)
	}
}

// TestConcurrentUseSharesNoArray has goroutines draw, fill, check and
// hand back arrays of one shape at once: each must see only zeros on
// drawing and only its own writes until it hands the array back.
func TestConcurrentUseSharesNoArray(t *testing.T) {
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := Make[uint64](64)
				for j := range s {
					if s[j] != 0 {
						t.Errorf("goroutine %d drew a dirty array", g)
						return
					}
					s[j] = uint64(g)
				}
				for j := range s {
					if s[j] != uint64(g) {
						t.Errorf("goroutine %d's array changed under it", g)
						return
					}
				}
				Put(s)
			}
		}()
	}
	wg.Wait()
}
