package dram

import (
	"testing"
	"unsafe"
)

func run(d *DRAM, until uint64) map[uint64]uint64 {
	done := map[uint64]uint64{}
	for now := uint64(0); now <= until; now++ {
		for _, tok := range d.Tick(now) {
			done[tok] = now
		}
	}
	return done
}

func TestSingleReadLatency(t *testing.T) {
	d := New(DefaultConfig())
	d.Enqueue(Request{Addr: 0, Bytes: 32, Token: 1})
	done := run(d, 200)
	at, ok := done[1]
	if !ok {
		t.Fatal("request never completed")
	}
	// Row miss (50) + ~1.33 transfer, issued at cycle 0.
	if at < 50 || at > 55 {
		t.Fatalf("completion at %d, want ~51", at)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	d := New(DefaultConfig())
	d.Enqueue(Request{Addr: 0, Bytes: 32, Token: 1})
	run(d, 200)
	// Same row again: row hit.
	d.Enqueue(Request{Addr: 32, Bytes: 32, Token: 2})
	start := uint64(201)
	var at uint64
	for now := start; now < start+200; now++ {
		for _, tok := range d.Tick(now) {
			if tok == 2 {
				at = now
			}
		}
	}
	lat := at - start
	if lat < 20 || lat > 25 {
		t.Fatalf("row-hit latency %d, want ~21", lat)
	}
	if d.Stats.RowHits != 1 || d.Stats.RowMisses != 1 {
		t.Fatalf("row stats: %+v", d.Stats)
	}
}

// TestBandwidthCeiling: a saturating stream of 32B reads must sustain
// ~24 bytes/cycle (the paper's 868 GB/s / 32 partitions).
func TestBandwidthCeiling(t *testing.T) {
	d := New(DefaultConfig())
	const n = 3000
	for i := 0; i < n; i++ {
		// Stride across banks so banks never bottleneck.
		d.Enqueue(Request{Addr: uint64(i) * 32, Bytes: 32, Token: uint64(i + 1)})
	}
	var lastDone uint64
	completed := 0
	for now := uint64(0); completed < n && now < 100000; now++ {
		toks := d.Tick(now)
		completed += len(toks)
		if len(toks) > 0 {
			lastDone = now
		}
	}
	if completed != n {
		t.Fatalf("only %d of %d completed", completed, n)
	}
	bpc := float64(n*32) / float64(lastDone)
	if bpc < 20 || bpc > 25 {
		t.Fatalf("sustained bandwidth %.2f B/cycle, want ~24", bpc)
	}
}

// TestWritesConsumeBandwidth: writes are posted (no completion token)
// but still occupy the bus, slowing a concurrent read stream.
func TestWritesConsumeBandwidth(t *testing.T) {
	timeReads := func(writes bool) uint64 {
		d := New(DefaultConfig())
		tok := uint64(1)
		for i := 0; i < 500; i++ {
			d.Enqueue(Request{Addr: uint64(i) * 32, Bytes: 32, Token: tok})
			tok++
			if writes {
				d.Enqueue(Request{Addr: uint64(1<<20) + uint64(i)*32, Bytes: 32, Write: true})
			}
		}
		completed := 0
		var now uint64
		for ; completed < 500 && now < 100000; now++ {
			completed += len(d.Tick(now))
		}
		return now
	}
	plain := timeReads(false)
	mixed := timeReads(true)
	if float64(mixed) < 1.5*float64(plain) {
		t.Fatalf("writes too cheap: reads-only %d cycles, mixed %d", plain, mixed)
	}
}

func TestLargerRequestsMoreBeats(t *testing.T) {
	d := New(DefaultConfig())
	d.Enqueue(Request{Addr: 0, Bytes: 128, Token: 1})
	d.Enqueue(Request{Addr: 4096, Bytes: 32, Token: 2})
	done := run(d, 500)
	if d.Stats.BytesRead != 160 {
		t.Fatalf("bytes read %d", d.Stats.BytesRead)
	}
	if done[1] == 0 || done[2] == 0 {
		t.Fatal("requests incomplete")
	}
}

func TestKindAccounting(t *testing.T) {
	d := New(DefaultConfig())
	d.Enqueue(Request{Addr: 0, Bytes: 32, Token: 1, Kind: 0})
	d.Enqueue(Request{Addr: 64, Bytes: 128, Token: 2, Kind: 3})
	run(d, 300)
	if d.Stats.RequestsByKind[0] != 1 || d.Stats.RequestsByKind[3] != 1 {
		t.Fatalf("kind requests: %v", d.Stats.RequestsByKind)
	}
	if d.Stats.BytesByKind[3] != 128 {
		t.Fatalf("kind bytes: %v", d.Stats.BytesByKind)
	}
}

func TestBankParallelism(t *testing.T) {
	// Requests to distinct banks overlap their access latencies; to
	// the same bank they serialize.
	sameBank := New(DefaultConfig())
	for i := 0; i < 8; i++ {
		sameBank.Enqueue(Request{Addr: uint64(i) * 4096 * 16, Bytes: 32, Token: uint64(i + 1)}) // same bank, diff rows
	}
	diffBank := New(DefaultConfig())
	for i := 0; i < 8; i++ {
		diffBank.Enqueue(Request{Addr: uint64(i) * 256, Bytes: 32, Token: uint64(i + 1)})
	}
	finish := func(d *DRAM) uint64 {
		completed := 0
		var now uint64
		for ; completed < 8 && now < 100000; now++ {
			completed += len(d.Tick(now))
		}
		return now
	}
	same := finish(sameBank)
	diff := finish(diffBank)
	if float64(same) < 2*float64(diff) {
		t.Fatalf("bank conflicts too cheap: same-bank %d, diff-bank %d", same, diff)
	}
}

func TestDrained(t *testing.T) {
	d := New(DefaultConfig())
	if !d.Drained() {
		t.Fatal("fresh channel not drained")
	}
	d.Enqueue(Request{Addr: 0, Bytes: 32, Token: 1})
	if d.Drained() {
		t.Fatal("queued channel drained")
	}
	run(d, 300)
	if !d.Drained() {
		t.Fatal("channel not drained after completion")
	}
}

func TestEnqueueValidation(t *testing.T) {
	d := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for zero-byte request")
		}
	}()
	d.Enqueue(Request{Addr: 0, Bytes: 0})
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for bad config")
		}
	}()
	New(Config{})
}

func TestPeakQueue(t *testing.T) {
	d := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		d.Enqueue(Request{Addr: uint64(i) * 32, Bytes: 32, Token: uint64(i + 1)})
	}
	if d.Stats.PeakQueue != 10 {
		t.Fatalf("peak queue %d", d.Stats.PeakQueue)
	}
}

// A queue entry carries its precomputed bank in the padding after the
// request, so Tick's window scan and issue's shifts move 48 bytes an
// entry; a wider entry measurably raised a long run's peak RSS.
func TestPendingPacks(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(pending{}); n != 48 {
		t.Fatalf("pending is %d bytes, want 48", n)
	}
}

func BenchmarkDRAMTick(b *testing.B) {
	d := New(DefaultConfig())
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			d.Enqueue(Request{Addr: uint64(i) * 32, Bytes: 32, Token: uint64(i + 1)})
		}
		d.Tick(uint64(i))
	}
}

// BenchmarkDRAMTickDeep holds the queue at 120 requests spread over all
// banks and a few rows each (a long run's average depth is about 122),
// so every Tick and NextEvent works against a full window and a
// backlog.
func BenchmarkDRAMTickDeep(b *testing.B) {
	d := New(DefaultConfig())
	x := uint64(1)
	for i := 0; i < b.N; i++ {
		for d.QueueLen() < 120 {
			x = x*6364136223846793005 + 1442695040888963407
			d.Enqueue(Request{Addr: x>>62<<12 | x>>58&15<<8, Bytes: 32, Token: x | 1})
		}
		d.Tick(uint64(i))
		d.NextEvent(uint64(i))
	}
}
