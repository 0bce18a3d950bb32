// Package shard provides the persistent worker pool behind the
// simulator's barrier-synchronized cycle loop when it runs with more
// than one shard. A Pool
// owns N goroutines that sit parked between windows; each Fork hands
// every worker the same closure (called with its worker index), and
// Join blocks until all of them have returned.
//
// Concurrency contract: the pool provides the only synchronization the
// sharded cycle loop relies on. Fork happens-before every worker's
// closure invocation, and every closure return happens-before Join
// returns (both edges ride on channel operations), so state a worker
// wrote during a window is visible to the coordinator after Join — and
// state the coordinator wrote before Fork is visible to the workers —
// without any additional locking. Between a Fork and its Join the
// caller must not touch data a worker may be writing. Pools are not
// reentrant: calls to Fork/Join/Close must come from one goroutine,
// and every Fork must be matched by a Join before the next Fork or
// Close.
//
// Workers park on channel receives rather than spinning, so a pool
// wider than GOMAXPROCS (or a pool on a single-core host) degrades
// into cheap sequential dispatch instead of burning cycles.
package shard

// Pool is a fixed set of parked worker goroutines. The zero value is
// not usable; use NewPool.
type Pool struct {
	work []chan func(int)
	done chan struct{}
}

// NewPool starts n parked workers. n must be positive.
func NewPool(n int) *Pool {
	if n <= 0 {
		panic("shard: pool size must be positive")
	}
	p := &Pool{done: make(chan struct{}, n)}
	for w := 0; w < n; w++ {
		ch := make(chan func(int), 1)
		p.work = append(p.work, ch)
		go func(w int, ch chan func(int)) {
			for fn := range ch {
				fn(w)
				p.done <- struct{}{}
			}
		}(w, ch)
	}
	return p
}

// Size reports the worker count.
func (p *Pool) Size() int { return len(p.work) }

// Fork dispatches fn to every worker; each invocation receives the
// worker's index in [0, Size). Fork returns immediately so the caller
// can do its own share of the window before Join.
func (p *Pool) Fork(fn func(worker int)) {
	for _, ch := range p.work {
		ch <- fn
	}
}

// Join blocks until every worker has finished the closure from the
// matching Fork.
func (p *Pool) Join() {
	for range p.work {
		<-p.done
	}
}

// Run is Fork immediately followed by Join.
func (p *Pool) Run(fn func(worker int)) {
	p.Fork(fn)
	p.Join()
}

// Close releases the workers. The pool must be quiescent (no Fork
// without its Join). Close is idempotent-unsafe: call it exactly once.
func (p *Pool) Close() {
	for _, ch := range p.work {
		close(ch)
	}
}
