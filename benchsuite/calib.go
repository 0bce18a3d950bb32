package main

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The benchmark's host is shared: other tenants' load changes how fast
// the same instructions run, by ±25% over a minute and more in bursts.
// A run therefore pauses its workload between operations, about once
// a second (once a sweep on paper-sweep), and times a fixed calibration
// kernel that runs no program code, and the gated
// timings are scaled to a host on which the kernel takes
// calibRefSeconds. Program changes cannot move the kernel: it runs
// while the program is idle, allocates nothing, and is timed in thread
// CPU time, so neither the program's leftover goroutines nor its
// garbage collector can stretch it.

// calibRefSeconds is the reference kernel time: about the median
// reading (both threads summed) on the 2-vCPU host the first records
// come from.
const calibRefSeconds = 0.030

// calibThreads is how many kernels run at once, one per core of the
// 2-core host, so a reading covers both cores the workloads use.
const calibThreads = 2

// calibrator takes calibration readings and keeps them. Its live heap
// is under 3 MiB, so it barely moves the workload's peak RSS or its
// garbage collector's pacing.
type calibrator struct {
	// next is a pointer-chase cycle through 2 MiB, shared read-only by
	// the threads: x -> a*x+1 mod 2^k with a = 1 mod 4 visits every slot
	// in an order no prefetcher follows.
	next     []uint32
	states   [calibThreads]*calibState
	readings []float64 // kernel CPU seconds, summed over the threads
}

// calibState is one thread's scratch, built once so a reading
// allocates nothing.
type calibState struct {
	buf  []byte
	m    map[uint64]uint64
	keys []uint64
	sink uint64
}

const (
	calibShaBytes  = 64 << 10
	calibShaRounds = 24
	calibChase     = 1 << 19 // cycle length
	calibMapKeys   = 1 << 13
	calibMapRounds = 4
)

func newCalibrator() *calibrator {
	c := &calibrator{next: make([]uint32, calibChase)}
	for x := range c.next {
		c.next[x] = uint32((uint64(x)*0x9E3779B1 + 1) & (calibChase - 1))
	}
	for i := range c.states {
		c.states[i] = &calibState{
			buf:  make([]byte, calibShaBytes),
			m:    make(map[uint64]uint64, calibMapKeys),
			keys: make([]uint64, 0, calibMapKeys),
		}
	}
	return c
}

// kernel runs the fixed work of one reading: hashing, a pointer chase
// from slot start, and map inserts, iteration and sorting.
func (s *calibState) kernel(next []uint32, start uint32) {
	var sum [32]byte
	for i := 0; i < calibShaRounds; i++ {
		copy(s.buf, sum[:])
		sum = sha256.Sum256(s.buf)
	}
	p := start
	for i := 0; i < calibChase/2; i++ {
		p = next[p]
	}
	x := uint64(start) + 1
	for r := 0; r < calibMapRounds; r++ {
		clear(s.m)
		for i := 0; i < calibMapKeys; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			s.m[x>>44] += uint64(i)
		}
		s.keys = s.keys[:0]
		for k, v := range s.m {
			s.keys = append(s.keys, k^v)
		}
		slices.Sort(s.keys)
	}
	s.sink += binary.LittleEndian.Uint64(sum[:]) ^ uint64(p) ^ s.keys[len(s.keys)/2]
}

// threadCPU is the calling thread's CPU time (Linux RUSAGE_THREAD).
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(1, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sample takes one reading, every kernel at once, each on a thread of
// its own, and returns it in seconds.
func (c *calibrator) sample() float64 {
	cpu := make([]time.Duration, calibThreads)
	var wg sync.WaitGroup
	for i, s := range c.states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := threadCPU()
			s.kernel(c.next, uint32(i)*calibChase/calibThreads)
			cpu[i] = threadCPU() - c0
		}()
	}
	wg.Wait()
	total := 0.0
	for _, d := range cpu {
		total += d.Seconds()
	}
	c.readings = append(c.readings, total)
	return total
}

// calibEdgeReadings are taken just before and just after each window,
// so that even a window with few pauses, such as paper-sweep's, takes
// its slowness from a dozen readings; a single reading swings by ±15%.
const calibEdgeReadings = 5

// sampleN takes n readings back to back.
func (c *calibrator) sampleN(n int) {
	for i := 0; i < n; i++ {
		c.sample()
	}
}

// slowness is the host's speed during the run relative to the
// reference: the median reading over calibRefSeconds. Above 1 the host
// was slower than the reference.
func (c *calibrator) slowness() float64 {
	return median(c.readings) / calibRefSeconds
}

// pacer pauses a window's clients together about once every interval
// so the calibrator can take a reading with the program idle. Each
// client calls pause between operations and leave when it is done. A
// pacer without a calibrator never pauses.
type pacer struct {
	cal   *calibrator
	every time.Duration

	mu      sync.Mutex
	cond    *sync.Cond
	next    time.Time
	active  int // clients that have not left
	waiting int
	gen     int
	// wall and cpu are the time the window spent taking readings, which
	// the window's own wall and CPU time exclude.
	wall time.Duration
	cpu  float64
}

func newPacer(cal *calibrator, clients int, every time.Duration) *pacer {
	p := &pacer{cal: cal, every: every, active: clients, next: time.Now().Add(every)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// pause returns at once until the interval is up; then it blocks until
// every active client has paused and a reading has been taken.
func (p *pacer) pause() {
	if p.cal == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if time.Now().Before(p.next) {
		return
	}
	p.waiting++
	gen := p.gen
	p.release()
	for gen == p.gen {
		p.cond.Wait()
	}
}

// leave takes a client out of the pauses.
func (p *pacer) leave() {
	if p.cal == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active--
	p.release()
}

// release takes the reading once every active client waits.
func (p *pacer) release() {
	if p.waiting == 0 || p.waiting < p.active {
		return
	}
	t0 := time.Now()
	p.cpu += p.cal.sample()
	p.wall += time.Since(t0)
	p.waiting = 0
	p.gen++
	p.next = time.Now().Add(p.every)
	p.cond.Broadcast()
}
