package smcore

import (
	"reflect"
	"testing"

	"gpusecmem/internal/statecodec"
)

// The scheduler keeps its keys in the dense due/last arrays. The
// functions below are the reference they must agree with: the
// greedy-then-oldest scan over warpState that predates those arrays,
// together with the Tick, Complete and NextReady built on it. They
// read and write only warps, greedy and the counters, never due or
// last.

func refReady(s *SM, w int, now uint64) bool {
	ws := &s.warps[w]
	return ws.phase != phaseBlocked && ws.readyAt <= now
}

func refPick(s *SM, now uint64) int {
	if s.greedy < len(s.warps) && refReady(s, s.greedy, now) {
		return s.greedy
	}
	best := -1
	for w := range s.warps {
		if !refReady(s, w, now) {
			continue
		}
		if best < 0 || s.warps[w].lastIssued < s.warps[best].lastIssued {
			best = w
		}
	}
	if best >= 0 {
		s.greedy = best
	}
	return best
}

// refTick is Tick over refPick; it returns the warps picked, one per
// issuing slot.
func refTick(s *SM, now uint64, issueMem func(MemIssue) int) []int {
	var picks []int
	for slot := 0; slot < s.issueWidth; slot++ {
		w := refPick(s, now)
		if w < 0 {
			s.Stalls++
			continue
		}
		picks = append(picks, w)
		ws := &s.warps[w]
		ws.lastIssued = now
		switch ws.phase {
		case phaseCompute:
			s.Instructions += uint64(ws.op.ActiveLanes)
			ws.computeLeft--
			ws.readyAt = now + uint64(ws.op.ComputeSpacing)
			if ws.computeLeft == 0 {
				if len(ws.op.Sectors) > 0 {
					ws.phase = phaseMem
				} else {
					s.loadOp(w)
				}
			}
		case phaseMem:
			s.Instructions += uint64(ws.op.ActiveLanes)
			s.MemOps++
			n := issueMem(MemIssue{SM: s.id, Warp: w, Sectors: ws.op.Sectors, Write: ws.op.Write})
			if n > 0 {
				ws.phase = phaseBlocked
				ws.outstanding = n
			} else {
				ws.readyAt = now + 1
				s.loadOp(w)
			}
		}
	}
	return picks
}

func refComplete(s *SM, w int, now uint64) {
	ws := &s.warps[w]
	if ws.phase != phaseBlocked || ws.outstanding <= 0 {
		panic("reference: completion for a warp that is not blocked")
	}
	ws.outstanding--
	if ws.outstanding == 0 {
		ws.readyAt = now + 1
		ws.phase = phaseCompute
		s.loadOp(w)
	}
}

func refNextReady(s *SM, now uint64) uint64 {
	next := ^uint64(0)
	for w := range s.warps {
		ws := &s.warps[w]
		if ws.phase == phaseBlocked {
			continue
		}
		t := max(ws.readyAt, now)
		if t < next {
			next = t
		}
	}
	return next
}

// mix is splitmix64's finalizer: a cheap, seedable hash that makes the
// random scripts pure functions of their coordinates.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// randGen generates a seeded random script: compute batches of 0–4
// instructions at spacings 0–5 (0 and out-of-range lanes exercise
// loadOp's normalization), and 0–3 sectors, a quarter of them stores.
type randGen struct {
	seed  uint64
	warps int
}

func (g *randGen) Name() string    { return "random" }
func (g *randGen) WarpsPerSM() int { return g.warps }
func (g *randGen) ActiveSMs() int  { return 0 }
func (g *randGen) Next(sm, warp, iter int) WarpOp {
	h := mix(g.seed ^ mix(uint64(warp)<<32|uint64(iter)))
	op := WarpOp{
		ComputeInstrs:  int(h % 5),
		ComputeSpacing: int(h >> 8 % 6),
		Write:          h>>24%4 == 0,
		ActiveLanes:    int(h >> 32 % 34),
	}
	for k := uint64(0); k < h>>16%4; k++ {
		op.Sectors = append(op.Sectors, (h>>40+k)*32)
	}
	return op
}

// lockstep is one side of the differential run: an SM and the loads it
// has in flight.
type lockstep struct {
	sm      *SM
	seed    uint64
	pending []inflight
}

type inflight struct {
	warp int
	at   uint64
}

// deliver completes every load due by now, in issue order.
func (l *lockstep) deliver(now uint64, complete func(*SM, int, uint64)) {
	kept := l.pending[:0]
	for _, p := range l.pending {
		if p.at <= now {
			complete(l.sm, p.warp, now)
		} else {
			kept = append(kept, p)
		}
	}
	l.pending = kept
}

// issuer returns the memory side for cycle now, a pure function of
// (seed, now, warp): stores and one load in five complete at once;
// other loads wait for one completion per sector, each 1–60 cycles out.
func (l *lockstep) issuer(now uint64) func(MemIssue) int {
	return func(mi MemIssue) int {
		h := mix(l.seed ^ mix(now<<16|uint64(mi.Warp)))
		if mi.Write || h%5 == 0 {
			return 0
		}
		for k := range mi.Sectors {
			l.pending = append(l.pending, inflight{warp: mi.Warp, at: now + 1 + mix(h+uint64(k))%60})
		}
		return len(mi.Sectors)
	}
}

// TestSchedulerMatchesReference drives seeded random scripts through
// the SM and through the warpState-scan reference, cycle by cycle, and
// requires the same picks, counters, wake cycles and warp state — also
// across a checkpoint walk (encode, then decode into a fresh SM) taken
// mid-run.
func TestSchedulerMatchesReference(t *testing.T) {
	const cycles = 3000
	for seed := uint64(1); seed <= 12; seed++ {
		h := mix(seed)
		warps := 1 + int(h%16)
		width := 1 + int(h>>8%3)
		restoreAt := uint64(500 + h>>16%2000)
		gen := &randGen{seed: seed, warps: warps}
		got := &lockstep{sm: New(0, gen, width), seed: seed}
		want := &lockstep{sm: New(0, gen, width), seed: seed}
		for now := uint64(1); now <= cycles; now++ {
			if now == restoreAt {
				enc := statecodec.NewEncoder("SM", 1)
				got.sm.Walk(enc)
				b, err := enc.Finish()
				if err != nil {
					t.Fatalf("seed %d: encode at cycle %d: %v", seed, now, err)
				}
				fresh := New(0, gen, width)
				dec := statecodec.NewDecoder(b, "SM", 1)
				fresh.Walk(dec)
				if _, err := dec.Finish(); err != nil {
					t.Fatalf("seed %d: restore at cycle %d: %v", seed, now, err)
				}
				got.sm = fresh
			}
			got.deliver(now, (*SM).Complete)
			want.deliver(now, refComplete)
			got.sm.Tick(now, got.issuer(now))
			picks := refTick(want.sm, now, want.issuer(now))

			g, w := got.sm, want.sm
			for _, p := range picks {
				if g.warps[p].lastIssued != now {
					t.Fatalf("seed %d cycle %d: reference picked warp %d, SM did not", seed, now, p)
				}
			}
			for i := range g.warps {
				if g.warps[i].lastIssued == now && w.warps[i].lastIssued != now {
					t.Fatalf("seed %d cycle %d: SM picked warp %d, reference did not", seed, now, i)
				}
				ready := g.warps[i].readyAt
				if g.warps[i].phase == phaseBlocked {
					ready = ^uint64(0)
				}
				if g.due[i] != ready || g.last[i] != g.warps[i].lastIssued {
					t.Fatalf("seed %d cycle %d: warp %d keys (due %d, last %d) out of sync with its state %+v",
						seed, now, i, g.due[i], g.last[i], g.warps[i])
				}
			}
			if g.Instructions != w.Instructions || g.Stalls != w.Stalls || g.MemOps != w.MemOps {
				t.Fatalf("seed %d cycle %d: counters (%d, %d, %d), reference (%d, %d, %d)", seed, now,
					g.Instructions, g.Stalls, g.MemOps, w.Instructions, w.Stalls, w.MemOps)
			}
			if a, b := g.NextReady(now+1), refNextReady(w, now+1); a != b {
				t.Fatalf("seed %d cycle %d: NextReady %d, reference %d", seed, now, a, b)
			}
			if g.greedy != w.greedy || !reflect.DeepEqual(g.warps, w.warps) {
				t.Fatalf("seed %d cycle %d: scheduler state diverged from the reference", seed, now)
			}
		}
		if got.sm.Instructions == 0 || got.sm.MemOps == 0 || got.sm.Stalls == 0 {
			t.Fatalf("seed %d: script exercised too little (%d instructions, %d memory ops, %d stalls)",
				seed, got.sm.Instructions, got.sm.MemOps, got.sm.Stalls)
		}
	}
}

// BenchmarkSMTick is one SM with the catalogue's largest warp count
// (32) at the default issue width (2), running compute batches, stores,
// and loads that return after 200 cycles.
func BenchmarkSMTick(b *testing.B) {
	g := &scriptGen{warps: 32, ops: []WarpOp{
		{ComputeInstrs: 6, ComputeSpacing: 4, Sectors: []uint64{0, 32, 64, 96}, ActiveLanes: 32},
		{ComputeInstrs: 4, ComputeSpacing: 2, Sectors: []uint64{128}, Write: true, ActiveLanes: 32},
	}}
	sm := New(0, g, 2)
	const latency = 200
	var ring [latency + 1][]int
	for i := 0; i < b.N; i++ {
		now := uint64(i + 1)
		slot := &ring[now%(latency+1)]
		for _, w := range *slot {
			sm.Complete(w, now)
		}
		*slot = (*slot)[:0]
		sm.Tick(now, func(mi MemIssue) int {
			if mi.Write {
				return 0
			}
			due := &ring[(now+latency)%(latency+1)]
			for range mi.Sectors {
				*due = append(*due, mi.Warp)
			}
			return len(mi.Sectors)
		})
		sm.NextReady(now + 1)
	}
}
