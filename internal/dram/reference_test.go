package dram

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"gpusecmem/internal/eventq"
	"gpusecmem/internal/statecodec"
)

// refDRAM is the channel as it was before the FR-FCFS window became a
// compact array: one age-ordered queue in which issued requests stay
// behind as tombstones until a compaction heuristic drops them, and
// scans of Tick and NextEvent that skip the tombstones while counting
// scanDepth live entries. It is the oracle of
// TestSchedulerMatchesReference.
type refDRAM struct {
	cfg       Config
	queue     []refPending
	head      int
	live      int
	bankBusy3 []uint64
	bankRow   []uint64
	busFree3  uint64
	compl     eventq.Queue[completion]
	done      []uint64
	Stats     Stats
}

type refPending struct {
	req  Request
	bank int32
	dead bool
}

func newRef(cfg Config) *refDRAM {
	return &refDRAM{cfg: cfg, bankBusy3: make([]uint64, cfg.Banks), bankRow: make([]uint64, cfg.Banks)}
}

func (d *refDRAM) Enqueue(r Request) {
	d.queue = append(d.queue, refPending{req: r, bank: int32(int(r.Addr>>8) % d.cfg.Banks)})
	d.live++
	if d.live > d.Stats.PeakQueue {
		d.Stats.PeakQueue = d.live
	}
}

func (d *refDRAM) InFlight() int         { return d.live + d.compl.Len() }
func (d *refDRAM) Drained() bool         { return d.live == 0 && d.compl.Len() == 0 }
func (d *refDRAM) rowOf(a uint64) uint64 { return a >> 12 }

func (d *refDRAM) issue(i int, now3 uint64) {
	p := &d.queue[i]
	r := &p.req
	bank := p.bank
	row := d.rowOf(r.Addr)
	beats := (r.Bytes + d.cfg.BeatBytes - 1) / d.cfg.BeatBytes
	xfer3 := uint64(beats * d.cfg.BeatThirds)
	lat3 := uint64(d.cfg.RowMissCycles * 3)
	occupancy3 := xfer3
	if d.bankRow[bank] == row+1 {
		lat3 = uint64(d.cfg.RowHitCycles * 3)
		d.Stats.RowHits++
	} else {
		d.Stats.RowMisses++
		d.bankRow[bank] = row + 1
		occupancy3 = lat3
	}
	start3 := max(now3+lat3, d.busFree3)
	end3 := start3 + xfer3
	d.busFree3 = end3
	d.bankBusy3[bank] = now3 + occupancy3
	if r.Write {
		d.Stats.Writes++
		d.Stats.BytesWrite += uint64(r.Bytes)
	} else {
		d.Stats.Reads++
		d.Stats.BytesRead += uint64(r.Bytes)
	}
	d.Stats.addKind(r.Kind, r.Bytes)
	if r.Token != 0 {
		d.compl.Push(completion{at3: end3, token: r.Token})
	}
	p.dead = true
	d.live--
	for d.head < len(d.queue) && d.queue[d.head].dead {
		d.head++
	}
	if dead := len(d.queue) - d.head - d.live; d.head+dead > 4096 && (d.head+dead)*2 > len(d.queue) {
		out := d.queue[:0]
		for _, p := range d.queue[d.head:] {
			if !p.dead {
				out = append(out, p)
			}
		}
		d.queue = out
		d.head = 0
	}
}

func (d *refDRAM) Tick(now uint64) []uint64 {
	now3 := now * 3
	for issued := 0; issued < d.cfg.MaxIssuePerCycle; issued++ {
		pick := -1
		seen := 0
		for i := d.head; i < len(d.queue) && seen < scanDepth; i++ {
			p := &d.queue[i]
			if p.dead {
				continue
			}
			seen++
			if d.bankBusy3[p.bank] > now3 {
				continue
			}
			if d.bankRow[p.bank] == d.rowOf(p.req.Addr)+1 {
				pick = i
				break
			}
			if pick < 0 {
				pick = i
			}
		}
		if pick < 0 {
			break
		}
		d.issue(pick, now3)
	}
	d.done = d.done[:0]
	for d.compl.Len() > 0 && d.compl.Min().at3 <= now3 {
		d.done = append(d.done, d.compl.Pop().token)
	}
	return d.done
}

func (d *refDRAM) NextEvent(now uint64) uint64 {
	next := ^uint64(0)
	if d.compl.Len() > 0 {
		next = (d.compl.Min().at3 + 2) / 3
	}
	seen := 0
	for i := d.head; i < len(d.queue) && seen < scanDepth; i++ {
		p := &d.queue[i]
		if p.dead {
			continue
		}
		seen++
		next = min(next, (d.bankBusy3[p.bank]+2)/3)
	}
	if next <= now && next != ^uint64(0) {
		next = now + 1
	}
	return next
}

// script draws one cycle's arrivals: bursts that hold the queue well
// past scanDepth alternate with quiet stretches that let it drain.
type script struct {
	rng   *rand.Rand
	token uint64
	burst int // cycles left in the current burst (negative: quiet)
}

func (s *script) arrivals() []Request {
	switch {
	case s.burst == 0 && s.rng.IntN(2) == 0:
		s.burst = 50 + s.rng.IntN(400)
	case s.burst == 0:
		s.burst = -200 - s.rng.IntN(1500)
	}
	n := 0
	if s.burst > 0 {
		s.burst--
		n = s.rng.IntN(3)
	} else {
		s.burst++
		if s.rng.IntN(8) == 0 {
			n = 1
		}
	}
	reqs := make([]Request, n)
	for i := range reqs {
		// A few rows per bank, so row hits and misses both happen.
		addr := uint64(s.rng.IntN(4))<<12 | uint64(s.rng.IntN(16))<<8 | uint64(s.rng.IntN(256))
		r := Request{Addr: addr, Bytes: 1 + s.rng.IntN(128), Write: s.rng.IntN(3) == 0, Kind: s.rng.IntN(5)}
		if s.rng.IntN(4) != 0 {
			s.token++
			r.Token = s.token
		}
		reqs[i] = r
	}
	return reqs
}

// walkRoundTrip checkpoints d and decodes it into a fresh channel,
// which must encode to the same bytes.
func walkRoundTrip(t *testing.T, d *DRAM) *DRAM {
	t.Helper()
	encode := func(d *DRAM) []byte {
		enc := statecodec.NewEncoder("DRAM", 1)
		d.Walk(enc, 5, 128)
		b, err := enc.Finish()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return b
	}
	b := encode(d)
	fresh := New(d.cfg)
	dec := statecodec.NewDecoder(b, "DRAM", 1)
	fresh.Walk(dec, 5, 128)
	if _, err := dec.Finish(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(encode(fresh), b) {
		t.Fatal("a decoded channel encodes to different bytes")
	}
	return fresh
}

// TestSchedulerMatchesReference drives seeded random request scripts
// through the channel and through the tombstone-scan reference, cycle
// by cycle, and requires the same completions, counters, occupancy and
// wake cycles — also across a checkpoint walk (encode, then decode into
// a fresh channel) taken mid-run.
func TestSchedulerMatchesReference(t *testing.T) {
	const cycles = 10000
	for seed := uint64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		cfg := DefaultConfig()
		cfg.MaxIssuePerCycle = 1 + int(seed%4)
		got, want := New(cfg), newRef(cfg)
		sc := &script{rng: rng}
		// The checkpoint is taken once the queue has a backlog.
		restoreAt, restored := uint64(1000+rng.IntN(8000)), false
		emptied := 0 // cycles with an empty queue after it outgrew the window
		for now := uint64(0); now < cycles; now++ {
			if !restored && now >= restoreAt && got.QueueLen() > scanDepth {
				got, restored = walkRoundTrip(t, got), true
			}
			for _, r := range sc.arrivals() {
				got.Enqueue(r)
				want.Enqueue(r)
			}
			if g, w := got.Tick(now), want.Tick(now); !slices.Equal(g, w) {
				t.Fatalf("seed %d cycle %d: completions %v, reference %v", seed, now, g, w)
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatalf("seed %d cycle %d: stats %+v, reference %+v", seed, now, got.Stats, want.Stats)
			}
			if got.QueueLen() != want.live || got.InFlight() != want.InFlight() || got.Drained() != want.Drained() {
				t.Fatalf("seed %d cycle %d: queue %d in flight %d drained %v, reference %d %d %v", seed, now,
					got.QueueLen(), got.InFlight(), got.Drained(), want.live, want.InFlight(), want.Drained())
			}
			if g, w := got.NextEvent(now), want.NextEvent(now); g != w {
				t.Fatalf("seed %d cycle %d: NextEvent %d, reference %d", seed, now, g, w)
			}
			if got.QueueLen() == 0 && got.Stats.PeakQueue > scanDepth {
				emptied++
			}
		}
		s := got.Stats
		if !restored || s.PeakQueue < 3*scanDepth || emptied == 0 || s.RowHits == 0 || s.RowMisses == 0 || s.Writes == 0 {
			t.Fatalf("seed %d: script exercised too little (restored %v, %d cycles drained): %+v", seed, restored, emptied, s)
		}
	}
}
