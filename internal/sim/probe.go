package sim

// Probe glue: the simulator side of internal/probe. Everything in
// this file runs only when Config.Probe enables an instrument — every
// call site is gated on a single `g.probe != nil` check, and nothing
// here mutates machine state, so a probed run's Result is identical
// to an unprobed one (the probe determinism tests enforce this
// byte-for-byte). Partitions stage their spans (recordSpan); the
// window barrier records them in canonical merge order and then takes
// the timeline sample, so a probed run reports the same bytes at any
// shard count.

import "gpusecmem/internal/probe"

// kindLabels names the TrafficKind space for probe output.
func kindLabels() []string {
	out := make([]string, numKinds)
	for k := TrafficKind(0); k < numKinds; k++ {
		out[k] = k.String()
	}
	return out
}

// recordSpan stages one span for the window barrier.
func (p *partition) recordSpan(s probe.Span) {
	st := p.stage
	st.spans = append(st.spans, stagedSpan{key: st.key(), s: s})
}

// recordHitSpan traces an L2 hit: interconnect transit both ways plus
// the bank's hit service time.
func (p *partition) recordHitSpan(now uint64) {
	if p.gpu.probe.Spans == nil {
		return
	}
	icnt := p.cfg.IcntLatency
	var st [probe.NumStages]uint64
	st[probe.StageQueue] = 2 * icnt
	st[probe.StageL2] = p.cfg.L2Latency
	p.recordSpan(probe.Span{
		Kind:   int(KindData),
		Part:   p.id,
		Start:  now - icnt,
		End:    now + p.cfg.L2Latency + icnt,
		Stages: st,
	})
}

// recordReadSpan attributes a completed secure read's issue→reply
// latency across stages. The attribution is conservative by
// construction: consecutive critical-path segments partition the
// interval, so the stage durations always sum to End-Start.
//
//	issue ──icnt──▶ partition ──dram──▶ data ready
//	  └─ beyond data: metadata wait, then exposed AES, then blocking
//	     verify, then scheduling slack ──icnt──▶ reply delivered
//
// otpReady is the counter-mode pad-ready cycle (0 when not computed),
// encDone the critical path after encryption, verifyDone the blocking
// MAC completion (0 under speculative verification), finalAt the
// scheduled reply cycle after clamping.
func (p *partition) recordReadSpan(rs *readState, otpReady, encDone, verifyDone, finalAt uint64) {
	if p.gpu.probe.Spans == nil {
		return
	}
	icnt := p.cfg.IcntLatency
	sc := &p.cfg.Secure
	var st [probe.NumStages]uint64
	st[probe.StageQueue] = 2 * icnt
	st[probe.StageDRAM] = rs.dataReady - rs.arrivedAt
	base := rs.dataReady
	switch {
	case rs.unprotected || sc.Encryption == EncNone:
		// No crypto on the reply path.
	case sc.Encryption == EncCounter:
		if otpReady > base {
			// The pad outlasted the data: time up to the counter's
			// arrival is metadata wait, the rest is exposed AES.
			m := rs.ctrReady
			if m < base {
				m = base
			}
			st[probe.StageMeta] = m - base
			st[probe.StageAES] = otpReady - m
			base = otpReady
		}
	case sc.Encryption == EncScattered:
		// The map lookup gated the whole fan-out: time until the
		// placement answer is metadata, the share-fetch window is
		// share, and the XOR reconstruction is combine — there is no
		// "plain DRAM" segment to attribute.
		m := rs.ctrReady
		if m < rs.arrivedAt {
			m = rs.arrivedAt
		}
		if m > rs.dataReady {
			m = rs.dataReady
		}
		st[probe.StageDRAM] = 0
		st[probe.StageMeta] = m - rs.arrivedAt
		st[probe.StageShareFetch] = rs.dataReady - m
		st[probe.StageCombine] = encDone - rs.dataReady
		base = encDone
	case sc.Encryption == EncSWCrypto:
		if rs.ctrReady > base {
			// The key-table fetch outlasted the ciphertext.
			st[probe.StageMeta] = rs.ctrReady - base
			base = rs.ctrReady
		}
		// The software cipher pass is the scheme's "AES" stage.
		st[probe.StageAES] = encDone - base
		base = encDone
	default: // EncDirect: decryption always follows the data.
		st[probe.StageAES] = encDone - base
		base = encDone
	}
	if verifyDone > base {
		// Blocking verification extended the path: the slice waiting
		// for the MAC line is metadata, the remainder is the check.
		w := rs.macReady
		if rs.dataReady > w {
			w = rs.dataReady
		}
		extra := verifyDone - base
		metaExtra := uint64(0)
		if w > base {
			metaExtra = w - base
			if metaExtra > extra {
				metaExtra = extra
			}
		}
		st[probe.StageMeta] += metaExtra
		st[probe.StageVerify] = extra - metaExtra
		base = verifyDone
	}
	if finalAt > base {
		// Reply-scheduling slack (the at<=now clamp).
		st[probe.StageQueue] += finalAt - base
	}
	p.recordSpan(probe.Span{
		Kind:   int(KindData),
		Part:   p.id,
		Start:  rs.arrivedAt - icnt,
		End:    finalAt + icnt,
		Stages: st,
	})
}

// recordMetaSpan traces one metadata-line DRAM fetch (counter, MAC,
// or tree) from enqueue to fill completion.
func (p *partition) recordMetaSpan(d dest, kind TrafficKind, now uint64) {
	if p.gpu.probe.Spans == nil || d.issuedAt == 0 {
		return
	}
	var st [probe.NumStages]uint64
	st[probe.StageDRAM] = now - d.issuedAt
	p.recordSpan(probe.Span{
		Kind:   int(kind),
		Part:   p.id,
		Start:  d.issuedAt,
		End:    now,
		Stages: st,
	})
}

// sampleProbe closes a timeline window when the sampling cycle comes
// up. Called at every window barrier behind the g.probe nil check; the
// loop caps windows at interval multiples so none is skipped.
func (g *GPU) sampleProbe() {
	tl := g.probe.Timeline
	if tl == nil || g.now%tl.Interval() != 0 {
		return
	}
	var tot probe.Totals
	tot.BytesByKind = make([]uint64, numKinds)
	tot.RequestsByKind = make([]uint64, numKinds)
	var inst probe.Instant
	for _, sm := range g.sms {
		instr, _, _, blocked := sm.Counters()
		tot.Instructions += instr
		inst.BlockedWarps += blocked
	}
	for _, p := range g.parts {
		ds := &p.dram.Stats
		tot.DRAMReads += ds.Reads
		tot.DRAMWrites += ds.Writes
		tot.RowHits += ds.RowHits
		tot.RowMisses += ds.RowMisses
		for k := 0; k < int(numKinds) && k < len(ds.BytesByKind); k++ {
			tot.BytesByKind[k] += ds.BytesByKind[k]
			tot.RequestsByKind[k] += ds.RequestsByKind[k]
		}
		for m := 0; m < int(numMeta) && m < len(tot.MetaAccesses); m++ {
			tot.MetaAccesses[m] += p.metaStats[m].Accesses
			tot.MetaMisses[m] += p.metaStats[m].Misses()
		}
		for _, b := range p.banks {
			inst.L2MSHRs += b.MSHRsInUse()
		}
		if p.ctr != nil {
			inst.MetaMSHRs += p.ctr.MSHRsInUse()
		}
		if !p.cfg.Secure.Unified {
			// With a unified cache ctr/mac/tree alias one instance;
			// separate caches each contribute their own occupancy.
			if p.mac != nil {
				inst.MetaMSHRs += p.mac.MSHRsInUse()
			}
			if p.tree != nil {
				inst.MetaMSHRs += p.tree.MSHRsInUse()
			}
		}
		inst.DRAMQueue += p.dram.QueueLen()
		inst.BusyBanks += p.dram.BusyBanks(g.now)
	}
	inst.OutstandingLoads = g.loads.len()
	tl.Observe(g.now, tot, inst)
}
