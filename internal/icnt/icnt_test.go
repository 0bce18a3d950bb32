package icnt

import "testing"

func TestFixedLatency(t *testing.T) {
	q := NewDelayQueue[int](5)
	q.Push(10, 42)
	for now := uint64(10); now < 15; now++ {
		if got := q.PopReady(now); len(got) != 0 {
			t.Fatalf("item ready early at %d: %v", now, got)
		}
	}
	got := q.PopReady(15)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("PopReady(15) = %v", got)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestOrderPreserved(t *testing.T) {
	q := NewDelayQueue[int](2)
	q.Push(0, 1)
	q.Push(0, 2)
	q.Push(1, 3)
	got := q.PopReady(2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("PopReady(2) = %v", got)
	}
	got = q.PopReady(3)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("PopReady(3) = %v", got)
	}
}

func TestPushAfter(t *testing.T) {
	q := NewDelayQueue[string](3)
	q.PushAfter(10, 7, "x")
	if got := q.PopReady(19); len(got) != 0 {
		t.Fatal("early")
	}
	if got := q.PopReady(20); len(got) != 1 || got[0] != "x" {
		t.Fatalf("got %v", got)
	}
}

func TestZeroLatency(t *testing.T) {
	q := NewDelayQueue[int](0)
	q.Push(5, 9)
	if got := q.PopReady(5); len(got) != 1 {
		t.Fatalf("zero-latency item not ready: %v", got)
	}
}

// TestCompaction: the internal buffer must not grow without bound
// under sustained traffic.
func TestCompaction(t *testing.T) {
	q := NewDelayQueue[int](1)
	for now := uint64(0); now < 100000; now++ {
		q.Push(now, int(now))
		q.PopReady(now) // drains the item pushed at now-1
	}
	if len(q.items) > 5000 {
		t.Fatalf("queue buffer grew to %d entries", len(q.items))
	}
}

func TestLen(t *testing.T) {
	q := NewDelayQueue[int](4)
	if q.Len() != 0 {
		t.Fatal("fresh queue not empty")
	}
	q.Push(0, 1)
	q.Push(0, 2)
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	q.PopReady(4)
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
}

// drainReference replays a queue cycle-by-cycle with PopReady and
// records (cycle, item) pairs — the ground truth DrainThrough must
// reproduce.
type delivery struct {
	at   uint64
	item int
}

func popReference(q *DelayQueue[int], from, through uint64) []delivery {
	var out []delivery
	for now := from; now <= through; now++ {
		for _, it := range q.PopReady(now) {
			out = append(out, delivery{now, it})
		}
	}
	return out
}

// TestDrainThroughMatchesPopReady: pre-draining a window must deliver
// the same items at the same effective cycles as popping every cycle,
// including head-of-line blocking from out-of-order ready times
// (PushAfter extras) and items left behind for the next window.
func TestDrainThroughMatchesPopReady(t *testing.T) {
	build := func() *DelayQueue[int] {
		q := NewDelayQueue[int](3)
		q.Push(0, 1)         // ready 3
		q.PushAfter(0, 9, 2) // ready 12, blocks...
		q.Push(1, 3)         // ready 4, but behind 2 -> effective 12
		q.PushAfter(2, 1, 4) // ready 6 -> effective 12
		q.Push(11, 5)        // ready 14
		q.Push(20, 6)        // ready 23, beyond the window
		return q
	}
	ref := popReference(build(), 0, 15)

	q := build()
	var got []delivery
	q.DrainThrough(15, func(at uint64, it int) {
		got = append(got, delivery{at, it})
	})
	if len(got) != len(ref) {
		t.Fatalf("drained %d items, reference delivered %d (%v vs %v)", len(got), len(ref), got, ref)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("delivery %d: drain %v, reference %v", i, got[i], ref[i])
		}
	}
	if q.Len() != 1 {
		t.Fatalf("residual Len = %d, want 1", q.Len())
	}
	// The leftover item drains in the next window at its own cycle.
	q.DrainThrough(30, func(at uint64, it int) {
		if at != 23 || it != 6 {
			t.Fatalf("residual drained at %d (%d), want 23 (6)", at, it)
		}
	})
}

// TestDrainThroughWindowed: splitting one drain into consecutive
// windows must deliver the same schedule as one big drain — the
// running maximum needs no cross-call state.
func TestDrainThroughWindowed(t *testing.T) {
	build := func() *DelayQueue[int] {
		q := NewDelayQueue[int](2)
		for i := 0; i < 40; i++ {
			q.PushAfter(uint64(i), uint64((i*7)%5), i)
		}
		return q
	}
	var whole []delivery
	build().DrainThrough(100, func(at uint64, it int) { whole = append(whole, delivery{at, it}) })

	q := build()
	var windowed []delivery
	for limit := uint64(0); limit <= 100; limit += 7 {
		q.DrainThrough(limit, func(at uint64, it int) { windowed = append(windowed, delivery{at, it}) })
	}
	if len(whole) != len(windowed) {
		t.Fatalf("whole drain %d items, windowed %d", len(whole), len(windowed))
	}
	for i := range whole {
		if whole[i] != windowed[i] {
			t.Fatalf("delivery %d: whole %v, windowed %v", i, whole[i], windowed[i])
		}
	}
}

// TestDrainThroughTap: a delivery tap must behave identically under
// DrainThrough and PopReady — drops vanish, duplicates visit twice,
// stats count both.
func TestDrainThroughTap(t *testing.T) {
	q := NewDelayQueue[int](1)
	q.SetTap(func(it int) int {
		switch {
		case it%3 == 0:
			return 0
		case it%3 == 1:
			return 2
		}
		return 1
	})
	for i := 0; i < 9; i++ {
		q.Push(uint64(i), i)
	}
	var got []int
	q.DrainThrough(100, func(at uint64, it int) { got = append(got, it) })
	want := []int{1, 1, 2, 4, 4, 5, 7, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
	if q.Stats.Dropped != 3 || q.Stats.Duplicated != 3 || q.Stats.Delivered != 9 {
		t.Fatalf("stats = %+v", q.Stats)
	}
}

// TestPushAt: an item re-injected with a precomputed ready cycle must
// behave exactly like the original push it replays.
func TestPushAt(t *testing.T) {
	q := NewDelayQueue[int](5)
	q.PushAt(12, 1) // as if pushed at 7
	q.Push(8, 2)    // ready 13
	if got := q.PopReady(11); len(got) != 0 {
		t.Fatalf("early delivery: %v", got)
	}
	if got := q.PopReady(12); len(got) != 1 || got[0] != 1 {
		t.Fatalf("PopReady(12) = %v", got)
	}
	if got := q.PopReady(13); len(got) != 1 || got[0] != 2 {
		t.Fatalf("PopReady(13) = %v", got)
	}
	if q.Stats.Pushed != 2 {
		t.Fatalf("Pushed = %d", q.Stats.Pushed)
	}
}
