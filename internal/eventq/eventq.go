// Package eventq provides the simulator's time-ordered event queue: a
// min-heap keyed by an element's When() value.
//
// It exists to replace container/heap on the hot cycle path. The
// standard library's heap boxes every element into an interface{} on
// Push and Pop, which costs one allocation per event — one per memory
// reply and one per DRAM completion, millions per run. This queue
// stores elements in a typed slice and never boxes.
//
// The sift-up / sift-down algorithms are copied move-for-move from
// container/heap, and ordering uses the same strict less-than the old
// heap types used, so the pop order of equal-keyed elements — which
// feeds directly into simulation output — is bit-compatible with the
// code it replaces.
//
// Concurrency and aliasing contract: a Queue is single-owner state
// with no internal locking — all operations on one queue must come
// from one goroutine at a time, with any cross-goroutine handoff
// externally synchronized (the parallel partition engine confines
// each partition's queues to whichever shard owns that partition for
// the window, with the shard pool's fork/join barrier providing the
// handoff edges). Elements are stored by value in the queue's backing
// slice; pointers into that slice are invalidated by any Push or Pop.
package eventq

// Timed is an event with a ready time. Equal-time events pop in the
// heap's (deterministic) sift order, exactly as container/heap would.
type Timed interface {
	When() uint64
}

// Queue is a min-heap of E ordered by When(). The zero value is an
// empty queue ready to use. Queue retains its backing array across
// drain/refill cycles, so a steady-state Push/Pop mix allocates
// nothing.
type Queue[E Timed] struct {
	a []E
}

// Len reports the number of queued events.
func (q *Queue[E]) Len() int { return len(q.a) }

// Min returns the earliest event without removing it. It must not be
// called on an empty queue.
func (q *Queue[E]) Min() E { return q.a[0] }

// NextWhen returns the earliest event time, or ^uint64(0) when empty —
// the "nothing scheduled" sentinel the activity-driven loop skips past.
func (q *Queue[E]) NextWhen() uint64 {
	if len(q.a) == 0 {
		return ^uint64(0)
	}
	return q.a[0].When()
}

// Push adds an event.
func (q *Queue[E]) Push(e E) {
	q.a = append(q.a, e)
	q.up(len(q.a) - 1)
}

// Pop removes and returns the earliest event. It must not be called on
// an empty queue.
func (q *Queue[E]) Pop() E {
	n := len(q.a) - 1
	q.a[0], q.a[n] = q.a[n], q.a[0]
	q.down(0, n)
	e := q.a[n]
	var zero E
	q.a[n] = zero // release references held by pointer-bearing elements
	q.a = q.a[:n]
	return e
}

// Heap exposes the queue's backing array, in raw heap layout, to a
// checkpoint walk. The layout — not just the multiset of elements —
// determines the pop order of equal-keyed events, so walking it
// verbatim in both directions reproduces the exact event order a
// never-checkpointed queue would have produced. A caller that writes
// through the pointer must leave a valid heap layout: the queue does
// not re-heapify.
func (q *Queue[E]) Heap() *[]E { return &q.a }

func (q *Queue[E]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || q.a[i].When() <= q.a[j].When() {
			break
		}
		q.a[i], q.a[j] = q.a[j], q.a[i]
		j = i
	}
}

func (q *Queue[E]) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && q.a[j2].When() < q.a[j1].When() {
			j = j2
		}
		if q.a[j].When() >= q.a[i].When() {
			break
		}
		q.a[i], q.a[j] = q.a[j], q.a[i]
		i = j
	}
}
