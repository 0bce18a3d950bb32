// Package dram models the timing of one GPU memory partition's DRAM
// channel: banked with row buffers, FR-FCFS-style scheduling, and a
// data bus whose bandwidth matches the paper's baseline (868 GB/s
// aggregate over 32 partitions, i.e. 24 bytes per core cycle per
// partition with the 850 MHz memory / 1132 MHz core clock ratio).
//
// Time is kept in thirds of a core cycle so the 4/3-cycle cost of a
// 32-byte beat is exact integer arithmetic.
//
// Concurrency and aliasing contract: a DRAM channel is single-owner
// state owned by its memory partition — no internal locking; under
// the parallel partition engine it is only ever touched by the shard
// that owns that partition for the window.
package dram

import (
	"fmt"

	"gpusecmem/internal/eventq"
)

// Config holds the timing parameters of one partition's channel.
type Config struct {
	// Banks is the number of DRAM banks.
	Banks int
	// RowHitCycles / RowMissCycles are access latencies in core
	// cycles (CAS only vs precharge+activate+CAS).
	RowHitCycles  int
	RowMissCycles int
	// BeatBytes is the data-bus transfer granularity (32).
	BeatBytes int
	// BeatThirds is the bus occupancy of one beat in thirds of a core
	// cycle (4 -> 24 B/cycle -> 868 GB/s aggregate).
	BeatThirds int
	// MaxIssuePerCycle bounds scheduler issues per cycle.
	MaxIssuePerCycle int
}

// Validate reports invalid channel parameters. sim.Config.Validate
// calls it so a bad DRAM configuration fails before simulation starts
// instead of panicking inside New.
func (c Config) Validate() error {
	switch {
	case c.Banks <= 0:
		return fmt.Errorf("dram: Banks must be positive (got %d)", c.Banks)
	case c.RowHitCycles < 0 || c.RowMissCycles < 0:
		return fmt.Errorf("dram: negative access latency (hit %d, miss %d)", c.RowHitCycles, c.RowMissCycles)
	case c.RowHitCycles > c.RowMissCycles:
		return fmt.Errorf("dram: RowHitCycles %d exceeds RowMissCycles %d", c.RowHitCycles, c.RowMissCycles)
	case c.BeatBytes <= 0:
		return fmt.Errorf("dram: BeatBytes must be positive (got %d)", c.BeatBytes)
	case c.BeatThirds <= 0:
		return fmt.Errorf("dram: BeatThirds must be positive (got %d)", c.BeatThirds)
	case c.MaxIssuePerCycle <= 0:
		return fmt.Errorf("dram: MaxIssuePerCycle must be positive (got %d)", c.MaxIssuePerCycle)
	}
	return nil
}

// DefaultConfig returns the paper's baseline channel timing.
func DefaultConfig() Config {
	return Config{
		Banks:            16,
		RowHitCycles:     20,
		RowMissCycles:    50,
		BeatBytes:        32,
		BeatThirds:       4,
		MaxIssuePerCycle: 4,
	}
}

// Request is one DRAM transaction.
type Request struct {
	Addr  uint64
	Bytes int
	Write bool
	// Token identifies the request to the caller on completion; 0
	// means fire-and-forget (posted writes).
	Token uint64
	// Kind is an opaque traffic class used for per-type accounting
	// (data/counter/MAC/tree/writeback).
	Kind int
}

// Stats accumulates channel counters.
type Stats struct {
	Reads, Writes         uint64
	BytesRead, BytesWrite uint64
	RowHits, RowMisses    uint64
	// RequestsByKind / BytesByKind index by Request.Kind (bounded by
	// the caller's kind space; grown on demand).
	RequestsByKind []uint64
	BytesByKind    []uint64
	// PeakQueue tracks the maximum queue occupancy observed.
	PeakQueue int
}

func (s *Stats) addKind(kind, bytes int) {
	for len(s.RequestsByKind) <= kind {
		s.RequestsByKind = append(s.RequestsByKind, 0)
		s.BytesByKind = append(s.BytesByKind, 0)
	}
	s.RequestsByKind[kind]++
	s.BytesByKind[kind] += uint64(bytes)
}

type pending struct {
	req Request
	// bank is req.Addr's bank, computed once by pendingFor at Enqueue
	// (and Walk) so Tick's per-cycle scan does no division; it packs
	// into the request's padding, keeping a pending at 48 bytes.
	bank int32
}

// scanDepth bounds how far past the queue head the FR-FCFS scheduler
// (and NextEvent, which must see the same candidates) looks for
// issuable requests.
const scanDepth = 32

type completion struct {
	at3   uint64
	token uint64
}

// When orders completions (in thirds of a core cycle) for the eventq.
func (c completion) When() uint64 { return c.at3 }

// DRAM is one partition's channel. Drive it with Enqueue and Tick.
type DRAM struct {
	cfg Config
	// queue[head:] holds the waiting requests in age order, with no
	// gaps: its first scanDepth entries are the FR-FCFS window, the
	// rest the backlog that enters it as window entries issue.
	queue []pending
	head  int
	// inWin counts the window's requests per bank, so NextEvent reads
	// the banks rather than the window.
	inWin     []int32
	bankBusy3 []uint64
	bankRow   []uint64
	busFree3  uint64
	compl     eventq.Queue[completion]
	// done is Tick's reusable completion-token scratch; see the Tick
	// aliasing contract.
	done  []uint64
	Stats Stats
}

// New builds a channel from cfg. Callers should Validate first; New
// only guards the parameters that would corrupt its arithmetic.
func New(cfg Config) *DRAM {
	if cfg.Banks <= 0 || cfg.BeatBytes <= 0 || cfg.BeatThirds <= 0 {
		panic("dram: invalid config")
	}
	return &DRAM{
		cfg:       cfg,
		inWin:     make([]int32, cfg.Banks),
		bankBusy3: make([]uint64, cfg.Banks),
		bankRow:   make([]uint64, cfg.Banks),
	}
}

// Enqueue adds a request to the channel queue.
func (d *DRAM) Enqueue(r Request) {
	if r.Bytes <= 0 {
		panic("dram: request with no bytes")
	}
	// Slide the live entries to the front instead of growing the array
	// once issued ones fill at least half of it.
	if len(d.queue) == cap(d.queue) && 2*d.head >= len(d.queue) {
		d.queue = d.queue[:copy(d.queue, d.queue[d.head:])]
		d.head = 0
	}
	p := d.pendingFor(r)
	d.queue = append(d.queue, p)
	n := d.QueueLen()
	if n <= scanDepth {
		d.inWin[p.bank]++
	}
	d.Stats.PeakQueue = max(d.Stats.PeakQueue, n)
}

// QueueLen reports current queue occupancy.
func (d *DRAM) QueueLen() int { return len(d.queue) - d.head }

// InFlight reports queued plus issued-but-incomplete requests.
func (d *DRAM) InFlight() int { return d.QueueLen() + d.compl.Len() }

// BusyBanks reports how many banks are mid-access at core cycle now —
// the probe timeline's bank-utilization gauge.
func (d *DRAM) BusyBanks(now uint64) int {
	now3 := now * 3
	n := 0
	for _, b := range d.bankBusy3 {
		if b > now3 {
			n++
		}
	}
	return n
}

// pendingFor wraps r as a queue entry with its bank precomputed: banks
// interleave at 256 B.
func (d *DRAM) pendingFor(r Request) pending {
	return pending{req: r, bank: int32(int(r.Addr>>8) % d.cfg.Banks)}
}

func (d *DRAM) rowOf(addr uint64) uint64 {
	return addr >> 12 // 4 KB row granularity
}

// issue schedules window entry i at time now3 and removes it from the
// queue; the backlog's oldest request, if any, takes the freed window
// slot.
func (d *DRAM) issue(i int, now3 uint64) {
	p := &d.queue[d.head+i]
	r := &p.req
	bank := p.bank
	row := d.rowOf(r.Addr)
	beats := (r.Bytes + d.cfg.BeatBytes - 1) / d.cfg.BeatBytes
	xfer3 := uint64(beats * d.cfg.BeatThirds)
	lat3 := uint64(d.cfg.RowMissCycles * 3)
	// Row hits pipeline on an open row (CAS-to-CAS), so the bank is
	// only occupied for the transfer; a row miss occupies the bank for
	// the full precharge+activate window.
	occupancy3 := xfer3
	if d.bankRow[bank] == row+1 { // +1 so row 0 != "no open row"
		lat3 = uint64(d.cfg.RowHitCycles * 3)
		d.Stats.RowHits++
	} else {
		d.Stats.RowMisses++
		d.bankRow[bank] = row + 1
		occupancy3 = lat3
	}
	bankDone3 := now3 + lat3
	start3 := bankDone3
	if d.busFree3 > start3 {
		start3 = d.busFree3
	}
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
	// Close the gap by moving the older entries up one slot.
	copy(d.queue[d.head+1:d.head+i+1], d.queue[d.head:d.head+i])
	d.head++
	d.inWin[bank]--
	if d.QueueLen() >= scanDepth {
		d.inWin[d.queue[d.head+scanDepth-1].bank]++
	}
	if d.head == len(d.queue) {
		d.queue, d.head = d.queue[:0], 0
	}
}

// Tick advances the channel to core cycle `now` and returns the tokens
// of requests whose data transfer completed at or before it.
//
// Aliasing contract: the returned slice is scratch owned by the DRAM
// and is valid only until the next Tick call; callers must consume it
// immediately and not retain it.
func (d *DRAM) Tick(now uint64) []uint64 {
	now3 := now * 3
	// Issue phase: FR-FCFS-lite. First pass prefers row hits on free
	// banks; second pass takes the oldest request on any free bank.
	for issued := 0; issued < d.cfg.MaxIssuePerCycle; issued++ {
		pick := -1
		win := d.queue[d.head:min(len(d.queue), d.head+scanDepth)]
		for i := range win {
			p := &win[i]
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
	// Completion phase.
	d.done = d.done[:0]
	for d.compl.Len() > 0 && d.compl.Min().at3 <= now3 {
		d.done = append(d.done, d.compl.Pop().token)
	}
	return d.done
}

// NextEvent returns the earliest core cycle after `now` at which a Tick
// could do anything — issue a queued request or retire a completion —
// assuming no Enqueue happens in between. ^uint64(0) means the channel
// is fully drained.
//
// The estimate is a lower bound by construction: it takes the earliest
// bank-free time among the banks that hold a request of Tick's
// scanDepth window (inWin), plus the earliest completion. It may
// undershoot (a Tick at the returned cycle may still find nothing
// issuable, e.g. when MaxIssuePerCycle arbitration defers a request),
// which costs a no-op tick; it never overshoots, which would skip real
// work and break cycle accuracy.
func (d *DRAM) NextEvent(now uint64) uint64 {
	next := ^uint64(0)
	if d.compl.Len() > 0 {
		next = (d.compl.Min().at3 + 2) / 3 // first cycle with at3 <= now*3
	}
	for b, n := range d.inWin {
		if n > 0 {
			next = min(next, (d.bankBusy3[b]+2)/3)
		}
	}
	if next <= now && next != ^uint64(0) {
		next = now + 1
	}
	return next
}

// Drained reports whether no work remains.
func (d *DRAM) Drained() bool { return d.QueueLen() == 0 && d.compl.Len() == 0 }
