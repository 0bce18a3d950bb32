// Package stats provides the measurement instruments of the
// simulator: plain counters, ratio helpers, and the reuse-distance
// profiler used for the paper's Figures 10 and 11.
//
// Concurrency and aliasing contract: counters and profilers are plain
// (non-atomic) single-owner state; each instance is embedded in one
// simulator component and updated only by that component's owning
// goroutine.
package stats

import (
	"encoding/json"
	"fmt"

	"gpusecmem/internal/statecodec"
)

// Ratio returns a/b as a float, 0 when b is 0.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Percent returns 100*a/b, 0 when b is 0.
func Percent(a, b uint64) float64 { return 100 * Ratio(a, b) }

// ReuseBuckets are the reuse-distance histogram buckets used in
// Figures 10/11: distance 0 (same line re-touched with nothing else in
// between) and geometric ranges above.
var ReuseBuckets = []struct {
	Lo, Hi uint64
	Label  string
}{
	{0, 0, "0"},
	{1, 8, "[1,8]"},
	{9, 64, "[9,64]"},
	{65, 512, "[65,512]"},
	{513, 4096, "[513,4096]"},
	{4097, ^uint64(0), ">4096"},
}

// ReuseProfiler measures LRU stack distances of a line-address access
// stream: the reuse distance of an access is the number of *distinct*
// lines touched since the previous access to the same line (infinite
// -- counted as Cold -- for first touches).
//
// Implementation: classic Mattson stack-distance via a Fenwick tree
// over access timestamps, O(log n) per access.
type ReuseProfiler struct {
	lastAccess map[uint64]int // line -> timestamp of latest access
	bit        []int          // Fenwick tree over timestamps; 1 marks latest access of some line
	raw        []int8         // presence by timestamp, for rebuilds when the tree grows
	time       int
	// Hist counts accesses per ReuseBuckets index.
	Hist [6]uint64
	// Cold counts first-touch accesses (no reuse distance).
	Cold uint64
	// Total counts all accesses.
	Total uint64
}

// NewReuseProfiler creates an empty profiler.
func NewReuseProfiler() *ReuseProfiler {
	return &ReuseProfiler{lastAccess: make(map[uint64]int)}
}

func (p *ReuseProfiler) bitAdd(i, delta int) {
	p.raw[i] += int8(delta)
	for ; i < len(p.bit); i += i & (-i) {
		p.bit[i] += delta
	}
}

// grow doubles the tree until it can index t and rebuilds it from the
// raw presence array (amortized O(1) per access).
func (p *ReuseProfiler) grow(t int) {
	n := len(p.bit)
	if n == 0 {
		n = 2
	}
	for n <= t {
		n *= 2
	}
	if n == len(p.bit) {
		return
	}
	for len(p.raw) < n {
		p.raw = append(p.raw, 0)
	}
	p.bit = make([]int, n)
	for i := 1; i < n; i++ {
		if p.raw[i] != 0 {
			for j := i; j < n; j += j & (-j) {
				p.bit[j] += int(p.raw[i])
			}
		}
	}
}

func (p *ReuseProfiler) bitSum(i int) int {
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += p.bit[i]
	}
	return s
}

// Touch records an access to line and returns its reuse distance
// (distinct-line stack distance), with ok=false for a cold first
// touch.
func (p *ReuseProfiler) Touch(line uint64) (dist uint64, ok bool) {
	p.Total++
	p.time++
	t := p.time
	p.grow(t)
	last, seen := p.lastAccess[line]
	if seen {
		// Distinct lines touched after `last`: ones in (last, t).
		d := uint64(p.bitSum(t-1) - p.bitSum(last))
		p.bitAdd(last, -1)
		dist = d
		for i, b := range ReuseBuckets {
			if d >= b.Lo && d <= b.Hi {
				p.Hist[i]++
				break
			}
		}
	} else {
		p.Cold++
	}
	p.bitAdd(t, 1)
	p.lastAccess[line] = t
	return dist, seen
}

// Fractions returns the histogram as fractions of non-cold accesses.
func (p *ReuseProfiler) Fractions() [6]float64 {
	var out [6]float64
	reuse := p.Total - p.Cold
	if reuse == 0 {
		return out
	}
	for i, v := range p.Hist {
		out[i] = float64(v) / float64(reuse)
	}
	return out
}

// WalkCounts encodes or decodes the profiler's counts
// (internal/statecodec): Hist, Cold and Total. It is all a stored
// result keeps of a profiler.
func (p *ReuseProfiler) WalkCounts(c *statecodec.Codec) {
	c.FixedU64s(p.Hist[:], "reuse buckets")
	c.U64(&p.Cold)
	c.U64(&p.Total)
}

// Walk encodes or decodes the profiler for a checkpoint: its counts,
// then its access history, each line once in ascending line order
// with the rank of its latest access among the history's (1 for the
// oldest). Reuse distances depend only on that order, so the raw
// timestamps are not encoded, and a decoder rebuilds the Fenwick tree
// over the ranks: sized by the lines the state holds, not by the
// access count it claims. Decoding expects a fresh profiler and
// refuses counts whose buckets and cold touches do not make up Total,
// a history of other than Cold lines (each line's first touch is its
// only cold one), and ranks that are not each of 1..Cold once.
func (p *ReuseProfiler) Walk(c *statecodec.Codec) {
	p.WalkCounts(c)
	n, lines := statecodec.MapLen(c, &p.lastAccess, 2)
	if c.Decoding() {
		sum := p.Cold
		for _, h := range p.Hist {
			sum += h
		}
		switch {
		case sum != p.Total:
			c.Fail("reuse buckets and cold touches sum to %d, the profiler counts %d accesses", sum, p.Total)
		case uint64(n) != p.Cold:
			c.Fail("%d lines in the reuse history, %d cold touches", n, p.Cold)
		}
		if c.Err() != nil {
			return
		}
		p.time = n
		p.grow(n)
	}
	var seq statecodec.KeySeq
	for i := 0; i < n; i++ {
		var line, rank uint64
		if !c.Decoding() {
			// The tree marks each line's latest access, so the marks up
			// to it count the latest accesses no later than it.
			line = lines[i]
			rank = uint64(p.bitSum(p.lastAccess[line]))
		}
		c.Key(&seq, &line)
		c.U64(&rank)
		if !c.Decoding() {
			continue
		}
		switch {
		case rank == 0 || rank > uint64(n):
			c.Fail("line %#x has reuse rank %d, outside 1..%d", line, rank, n)
		case p.raw[rank] != 0:
			c.Fail("line %#x has reuse rank %d, which another line holds: a rank twice", line, rank)
		}
		if c.Err() != nil {
			return
		}
		p.lastAccess[line] = int(rank)
		p.bitAdd(int(rank), 1)
	}
}

// reuseBucketJSON is one labelled histogram bucket in the wire form.
type reuseBucketJSON struct {
	Label    string  `json:"label"`
	Count    uint64  `json:"count"`
	Fraction float64 `json:"fraction"`
}

// MarshalJSON renders the profiler as the labelled histogram plus
// cold/total counts — the Figure 10/11 data in machine-readable form
// (fractions are of non-cold accesses, matching the figures).
func (p *ReuseProfiler) MarshalJSON() ([]byte, error) {
	frac := p.Fractions()
	buckets := make([]reuseBucketJSON, len(ReuseBuckets))
	for i, b := range ReuseBuckets {
		buckets[i] = reuseBucketJSON{Label: b.Label, Count: p.Hist[i], Fraction: frac[i]}
	}
	return json.Marshal(struct {
		Buckets []reuseBucketJSON `json:"buckets"`
		Cold    uint64            `json:"cold"`
		Total   uint64            `json:"total"`
	}{Buckets: buckets, Cold: p.Cold, Total: p.Total})
}

// String renders the histogram for reports.
func (p *ReuseProfiler) String() string {
	s := ""
	for i, b := range ReuseBuckets {
		s += fmt.Sprintf("%s:%d ", b.Label, p.Hist[i])
	}
	return s + fmt.Sprintf("cold:%d total:%d", p.Cold, p.Total)
}
