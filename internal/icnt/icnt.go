// Package icnt models the on-chip interconnect between the SMs and
// the L2 banks as a fixed-latency, FIFO delay queue per direction.
// Bandwidth contention on the NoC is not the paper's subject (the
// bottlenecks under study are the L2, the metadata caches, and DRAM),
// so the interconnect adds latency and ordering only.
//
// Concurrency and aliasing contract: a DelayQueue is single-owner
// state — all methods must be called from one goroutine at a time,
// with any cross-goroutine handoff externally synchronized (the
// parallel engine only touches its queues between windows, under the
// shard pool's barrier). DrainThrough, the one delivery path, hands
// each item to its visit callback by value and retains nothing. The
// fixed latency also gives the parallel engine its conservative lookahead:
// nothing pushed at cycle t can be delivered before t+latency, so two
// components that only communicate through a queue cannot affect each
// other within a window shorter than the latency.
package icnt

import "gpusecmem/internal/recycle"

// DelayQueue delivers items a fixed number of cycles after they are
// pushed, preserving push order among items that become ready on the
// same cycle. The zero value is not usable; use NewDelayQueue.
type DelayQueue[T any] struct {
	latency uint64
	items   []Delayed[T]
	head    int
	tap     func(T) int

	// Stats counts what the queue moved (and what a fault tap did to
	// it); cheap enough to keep unconditionally.
	Stats Stats
}

// Stats counts queue traffic.
type Stats struct {
	Pushed, Delivered uint64
	// Dropped/Duplicated count fault-tap interventions (see SetTap).
	Dropped, Duplicated uint64
}

// Delayed is one queued item with its absolute ready cycle.
type Delayed[T any] struct {
	ReadyAt uint64
	Item    T
}

// NewDelayQueue creates a queue with the given latency in cycles.
func NewDelayQueue[T any](latency uint64) *DelayQueue[T] {
	return &DelayQueue[T]{latency: latency}
}

// SetTap installs a delivery interceptor used by fault injection: at
// delivery time tap(item) returns how many copies of the item to
// deliver — 0 drops it (a lost message), 1 is normal, >1 duplicates
// it (a replayed message). A nil tap (the default) costs nothing.
func (q *DelayQueue[T]) SetTap(tap func(T) int) { q.tap = tap }

// Push enqueues an item at cycle now; it becomes ready at now+latency.
func (q *DelayQueue[T]) Push(now uint64, item T) {
	q.PushAt(now+q.latency, item)
}

// PushAt enqueues an item whose absolute ready cycle has already been
// computed (push cycle + latency + extra). It exists for the parallel
// engine's barrier merge, which replays a window's pushes in canonical
// order after the fact; FIFO position is append order, exactly as if
// the item had been pushed at its original cycle with its extra delay
// on top of the base latency.
func (q *DelayQueue[T]) PushAt(readyAt uint64, item T) {
	q.Stats.Pushed++
	q.items = append(recycle.Grow(q.items, queueMin), Delayed[T]{ReadyAt: readyAt, Item: item})
}

// queueMin is a queue's first capacity; a full queue doubles through
// the recycler.
const queueMin = 64

// Release hands the queue's array to the recycler; the queue is
// unusable afterwards.
func (q *DelayQueue[T]) Release() {
	recycle.Put(q.items)
	q.items, q.head = nil, 0
}

// maybeCompact reclaims the consumed prefix once it dominates the
// backing array.
func (q *DelayQueue[T]) maybeCompact() {
	if q.head > 1024 && q.head*2 > len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clearTail(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
}

// DrainThrough delivers ahead of time every item whose effective
// delivery cycle is <= limit, calling visit(at, item) for each in FIFO
// order, where at is the cycle a per-cycle pop from the head would
// have returned it. Such a pop only takes from the head, so an item
// behind a later-ready head is blocked until that head pops: the
// effective delivery cycle of item j is the running maximum of ready
// cycles from the head through j. DrainThrough reproduces that
// exactly, so pre-draining a window at a barrier is observationally
// identical to popping cycle-by-cycle inside it (the package tests
// keep that per-cycle pop as the reference).
//
// The running maximum needs no cross-call state: the drain stops at
// the first item whose effective cycle exceeds limit, and since every
// drained item's effective cycle was <= limit, the stopping item's own
// ready cycle must exceed limit — it dominates the drained prefix, so
// a later drain restarting the maximum from the new head is exact.
//
// A delivery tap (SetTap) is applied per item: visit runs once per
// surviving copy, and Stats count the drops and duplicates.
func (q *DelayQueue[T]) DrainThrough(limit uint64, visit func(at uint64, item T)) {
	eff := uint64(0)
	for q.head < len(q.items) {
		e := q.items[q.head]
		if e.ReadyAt > eff {
			eff = e.ReadyAt
		}
		if eff > limit {
			break
		}
		q.head++
		copies := 1
		if q.tap != nil {
			copies = q.tap(e.Item)
			switch {
			case copies <= 0:
				q.Stats.Dropped++
			case copies > 1:
				q.Stats.Duplicated += uint64(copies - 1)
			}
		}
		for c := 0; c < copies; c++ {
			q.Stats.Delivered++
			visit(eff, e.Item)
		}
	}
	q.maybeCompact()
}

// clearTail zeroes vacated entries so pointer-bearing payloads do not
// outlive their delivery.
func clearTail[T any](s []Delayed[T]) {
	var zero Delayed[T]
	for i := range s {
		s[i] = zero
	}
}

// Pending returns the undelivered items, items[head:] with their
// absolute ready cycles, for a checkpoint walk. The slice aliases the
// queue and is valid until its next push or delivery. Restoring them
// into an empty queue (ResetPending) reproduces delivery exactly:
// DrainThrough only ever consumes from the head, so the consumed
// prefix carries no future behavior, and head-blocking (an
// item behind a later-ready head waits for it) depends only on the
// order and ready cycles of the remaining items.
func (q *DelayQueue[T]) Pending() []Delayed[T] { return q.items[q.head:] }

// ResetPending empties the queue and returns n zero items for a
// checkpoint walk to fill in delivery order, aliasing the queue as
// Pending does. The latency, any installed tap and Stats are kept.
func (q *DelayQueue[T]) ResetPending(n int) []Delayed[T] {
	if cap(q.items) < n {
		recycle.Put(q.items)
		q.items = recycle.Make[Delayed[T]](n)
	}
	q.items = q.items[:n]
	clear(q.items)
	q.head = 0
	return q.items
}

// NextReady returns the cycle at which the head item becomes ready, or
// ^uint64(0) when the queue is empty. Because delivery only ever takes
// from the head, this is exactly the earliest cycle anything can be
// delivered, even when PushAt's extra delays make ready times
// non-monotone behind the head.
func (q *DelayQueue[T]) NextReady() uint64 {
	if q.head >= len(q.items) {
		return ^uint64(0)
	}
	return q.items[q.head].ReadyAt
}

// Len reports items still queued.
func (q *DelayQueue[T]) Len() int { return len(q.items) - q.head }
