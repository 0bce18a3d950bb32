package sim

// Checkpoint snapshot/restore for a whole machine (DESIGN.md §14).
//
// A checkpoint is the machine's live state walked straight into bytes
// (internal/statecodec): GPU.walk visits the GPU's own fields, then
// each SM, L1 and partition walks itself, and each partition walks its
// L2 banks, DRAM channel and metadata caches. The same walk decodes:
// Restore runs it over a freshly built machine of the same Config and
// benchmark, reading every field into place and checking it against
// that machine's shape where it lands. There is no intermediate state
// struct, so adding a field to a checkpoint is one walk line (plus a
// StateVersion bump).
//
// A snapshot is taken at an end-of-cycle boundary: a window barrier of
// the cycle loop, where staging buffers and inboxes are provably
// empty, so the state is the same at every shard count. Restoring it
// into a fresh GPU and running to the horizon produces a Result
// bit-identical to a never-interrupted run — the resume-identity tests
// pin this against the golden digests.
//
// Token tables and maps are walked in ascending key order with
// gap-coded keys, caches list only their live ways, and event heaps
// are walked in raw heap layout, so (a) identical machine states
// always encode to identical bytes, (b) equal-time event pop order
// survives the round trip and (c) a duplicated or unordered key cannot
// be encoded at all. A decoded token table refuses token 0, which it
// reserves, and a partition's tokens must carry its id prefix and lie
// at or below its localTok.
//
// The wire format, in walk order (u = uvarint, i = zigzag varint,
// b = bool byte, y = raw byte, f = packed flag byte, k = gap-coded key,
// [..] = a length, then that many elements, (..) = a section present
// only when the machine's configuration has that instrument, with no
// byte to mark it):
//
//	state     = "GSMSTATE" u:StateVersion machine
//	machine   = benchmark-name u:now u:tokenSeq u:completedLoads
//	            u:lastProgressAt u:maxProgressGap
//	            [k:token i:sm i:warp b:fillBypass]
//	            [u:smWake] [u:smLastTick] [u:partNext]
//	            [u:readyAt u:addr u:token b:write] icnt-stats
//	            [u:readyAt u:addr u:token] icnt-stats
//	            [sm] [cache: L1s] [partition] (faults) (probe)
//	partition = [cache: L2 banks] dram [cache: metadata caches]
//	            [u:aesFree3] u:macFree3
//	            [k:token y:fill u:addr u:readID f:bypass,write u:issuedAt]
//	            [k:id u:globalAddr u:localAddr u:l2Token i:l2Bank
//	             i:sharesLeft f:7-flags u:arrivedAt u:dataReady
//	             u:ctrReady u:macReady]
//	            [u:at u:readID] metaStats u:faultDetected
//	            u:faultSilent u:localTok u:lastKeyLine
//	            (reuse: counter) (reuse: MAC)
//	reuse     = [u:hist] u:cold u:total [k:line u:rank]
//	faults    = [u:opportunities by site] [u:injections by site]
//	probe     = (spans) (timeline)
//	spans     = [hist:latency stages(hist) [u:stage cycles]]
//	            u:spans u:unbalanced u:dropped
//	            [y:kind u:part u:start stages(u:cycles)]
//	hist      = [u:bucket] u:count u:sum u:max
//	timeline  = [sample] u:dropped (totals)
//	totals    = u:instructions u:dramReads u:dramWrites u:rowHits
//	            u:rowMisses [u:bytes by kind] [u:requests by kind]
//	            [u:metaAccesses] [u:metaMisses]
//
// sm, cache and dram are the walks in internal/smcore, internal/cache
// and internal/dram; reuse is stats.ReuseProfiler.Walk (partition 0
// profiles under Config.ProfileReuse), faults is faults.Injector.Walk,
// and probe is probe.State.Walk, whose sample is the stored result's
// (probe.Sample.Walk). The metadata caches are the partition's
// distinct caches in MetaKind order (metaCaches), so a unified cache
// is walked once; the machine's configuration fixes how many there
// are. A dest's fill is 0 for a data sector and MetaKind+1 for a
// metadata line. stages(x) is one x for each probe stage, with no
// length before them. A timeline's totals follow only once it holds a
// sample.
//
// Every configuration checkpoints. The instruments' state — fault
// injector counters, reuse histories, span histograms and records,
// timeline windows — rides the walk, each section checked against the
// instrument it fills, so an instrumented run resumes to the Result,
// report and trace of the uninterrupted run. An uninstrumented
// machine walks no instrument section. The auditors keep no state:
// they only read the machine at barriers.

import (
	"encoding/binary"
	"fmt"

	"gpusecmem/internal/geometry"
	"gpusecmem/internal/icnt"
	"gpusecmem/internal/statecodec"
)

// StateVersion tags the checkpoint wire format. Bump it whenever a
// walk adds, drops or reorders a field or changes what one means;
// Restore rejects other versions and the caller starts from cycle 0.
//
// Version history: 2 widened MetaStats to the extension metadata kinds
// and added a read's shares-left count and a partition's last key line
// for the scattered-memory and software-encryption schemes. 3 replaced
// the gob encoding with the flat codec (same fields). 4 made cache tag
// arrays sparse (the shape, then only the live ways by flat index) and
// gap-codes every sorted key. 5 walks the metadata caches as one
// counted list in MetaKind order (the three presence bools and the
// unified-alias bool are gone), encodes a DRAM transaction's fill as a
// raw byte holding MetaKind+1 (the share map's fills are no longer
// counter fills), and drops two counters only the walk read: the SM
// side's stepped-cycle count and the last progress value. The
// instrument sections came within 5: only an instrumented machine
// walks them, and no build before them wrote an instrumented state,
// so no existing state changed meaning.
const StateVersion = 5

const stateMagic = "GSMSTATE"

// StateHeader returns the prefix of every state this build's Snapshot
// encodes: the magic, then StateVersion as a uvarint. A state with any
// other prefix is of another wire format, which Restore refuses.
func StateHeader() []byte {
	return binary.AppendUvarint([]byte(stateMagic), StateVersion)
}

// Snapshot encodes the machine's full state at the current
// end-of-cycle boundary, its instruments' state included. Identical
// machine states encode to identical bytes.
func (g *GPU) Snapshot() ([]byte, error) {
	g.mustLive()
	c := statecodec.NewEncoder(stateMagic, StateVersion)
	g.walk(c)
	b, err := c.Finish()
	if err != nil {
		return nil, fmt.Errorf("sim: encoding machine state: %w", err)
	}
	return b, nil
}

// Restore replaces the machine's state with one Snapshot encoded on a
// GPU of identical Config and benchmark. It refuses another magic or
// version, truncated, trailing or non-canonical bytes, and any field
// the machine cannot hold. On error the GPU is unusable: restore into
// a freshly constructed instance and fall back to a rebuilt one, from
// cycle 0, on failure.
func (g *GPU) Restore(b []byte) error {
	g.mustLive()
	c := statecodec.NewDecoder(b, stateMagic, StateVersion)
	if c.Err() == nil {
		g.walk(c)
	}
	if _, err := c.Finish(); err != nil {
		return fmt.Errorf("sim: restoring machine state: %w", err)
	}
	return nil
}

// Minimum encoded sizes of the variable-length elements, one byte per
// walked field.
const (
	minLoad    = 4  // token, sm, warp, fillBypass
	minToL2    = 4  // readyAt, addr, token, write
	minToSM    = 3  // readyAt, addr, token
	minDest    = 6  // token, kind, addr, readID, flags, issuedAt
	minRead    = 11 // id, three addresses, bank, shares, flags, four times
	minReplyEv = 2  // at, readID
)

// walk encodes or decodes the GPU's state (see statecodec). Decoding
// expects a freshly built machine of the same Config and benchmark.
func (g *GPU) walk(c *statecodec.Codec) {
	name := g.gen.Name()
	c.String(&name)
	if c.Decoding() && name != g.gen.Name() {
		c.Fail("snapshot is for benchmark %q, machine runs %q", name, g.gen.Name())
	}
	for _, p := range [...]*uint64{&g.now, &g.tokenSeq, &g.completedLoads,
		&g.lastProgressAt, &g.maxProgressGap} {
		c.U64(p)
	}

	warps := g.gen.WarpsPerSM()
	walkTokens(c, &g.loads, &g.walkKeys, minLoad, "load", nil, func(tok uint64, lr *loadReq) {
		sm, warp := int(lr.sm), int(lr.warp)
		c.Int(&sm)
		c.Int(&warp)
		c.Bool(&lr.fillBypass)
		if c.Decoding() {
			switch {
			case sm < 0 || sm >= len(g.sms) || warp < 0 || warp >= warps:
				c.Fail("load %d is for SM %d warp %d of %d x %d", tok, sm, warp, len(g.sms), warps)
			case tok > g.tokenSeq:
				c.Fail("load token %d was never issued (last %d)", tok, g.tokenSeq)
			}
			lr.sm, lr.warp = int32(sm), int32(warp)
		}
	})
	c.FixedU64s(g.smWake, "SM wake bounds")
	c.FixedU64s(g.smLastTick, "SM last ticks")
	c.FixedU64s(g.partNext, "partition bounds")

	l2 := g.toL2.Pending()
	n := len(l2)
	c.Len(&n, minToL2)
	if c.Decoding() {
		l2 = g.toL2.ResetPending(n)
	}
	for i := range l2 {
		q := &l2[i]
		c.U64(&q.ReadyAt)
		c.U64(&q.Item.globalAddr)
		c.U64(&q.Item.token)
		c.Bool(&q.Item.write)
	}
	walkIcntStats(c, &g.toL2.Stats)
	sm := g.toSM.Pending()
	n = len(sm)
	c.Len(&n, minToSM)
	if c.Decoding() {
		sm = g.toSM.ResetPending(n)
	}
	for i := range sm {
		q := &sm[i]
		c.U64(&q.ReadyAt)
		c.U64(&q.Item.globalAddr)
		c.U64(&q.Item.token)
	}
	walkIcntStats(c, &g.toSM.Stats)

	c.FixedLen(len(g.sms), "SMs")
	for _, s := range g.sms {
		s.Walk(c)
	}
	c.FixedLen(len(g.l1s), "L1s")
	for _, l1 := range g.l1s {
		l1.Walk(c)
	}
	c.FixedLen(len(g.parts), "partitions")
	for _, p := range g.parts {
		if c.Err() != nil {
			return
		}
		p.walk(c)
	}
	if c.Decoding() && c.Err() == nil {
		g.checkLoads(c, warps)
	}
	if g.inj != nil {
		g.inj.Walk(c)
	}
	if g.probe != nil {
		g.probe.Walk(c, g.now)
	}
}

// checkLoads refuses a decoded machine whose loads and warps disagree:
// every blocked warp must await exactly as many completions as there
// are loads for it, or a completion would reach a warp that is not
// blocked.
func (g *GPU) checkLoads(c *statecodec.Codec, warps int) {
	pending := make([]int, len(g.sms)*warps)
	g.loads.each(func(_ uint64, lr *loadReq) {
		pending[int(lr.sm)*warps+int(lr.warp)]++
	})
	for i, s := range g.sms {
		for w := 0; w < warps; w++ {
			if got, want := pending[i*warps+w], s.Awaiting(w); got != want {
				c.Fail("SM %d warp %d awaits %d completions but %d loads are tracked", i, w, want, got)
				return
			}
		}
	}
}

func walkIcntStats(c *statecodec.Codec, s *icnt.Stats) {
	c.U64(&s.Pushed)
	c.U64(&s.Delivered)
	c.U64(&s.Dropped)
	c.U64(&s.Duplicated)
}

// walk encodes or decodes one partition (see GPU.walk). Transient
// fields — the staging pointer (its buffers are empty at a barrier)
// and the readState pool — are left out, and the layout and
// protectedStripes fields are derived from Config at construction.
func (p *partition) walk(c *statecodec.Codec) {
	c.FixedLen(len(p.banks), "L2 banks in a partition")
	for _, b := range p.banks {
		b.Walk(c)
	}
	p.dram.Walk(c, int(numKinds), geometry.LineSize)
	meta := p.metaCaches()
	c.FixedLen(len(meta), "metadata caches in a partition")
	for _, m := range meta {
		m.Walk(c)
	}
	c.FixedU64s(p.aesFree3, "AES engines in a partition")
	c.U64(&p.macFree3)

	// A decoded partition token must carry the partition's prefix, and
	// its low 40 bits count up to localTok, which is walked last; maxTok
	// is checked against it then.
	var maxTok uint64
	checkTok := func(what string, tok uint64) {
		if tok>>40 != uint64(p.id+1) {
			c.Fail("partition %d: %s token %#x was not issued by this partition", p.id, what, tok)
		}
		maxTok = max(maxTok, tok)
	}
	walkTokens(c, &p.dests, &p.gpu.walkKeys, minDest, "DRAM transaction", nil, func(tok uint64, d *dest) {
		c.Byte(&d.fill)
		c.U64(&d.addr)
		c.U64(&d.readID)
		c.Bools(&d.bypass, &d.write)
		c.U64(&d.issuedAt)
		if c.Decoding() {
			checkTok("DRAM transaction", tok)
			if !p.fills(d.fill) {
				c.Fail("partition %d: DRAM transaction %d has fill kind %d, which this machine never issues", p.id, tok, d.fill)
			}
		}
	})

	// Decoded reads share one slab: a resumed run draws them once,
	// not one by one.
	var slab []readState
	walkTokens(c, &p.reads, &p.gpu.walkKeys, minRead, "read", func(n int) {
		slab = p.rsSlab(n)
	}, func(id uint64, rsp **readState) {
		rs := *rsp
		if c.Decoding() {
			rs = &slab[0]
			slab = slab[1:]
			*rsp = rs
		}
		c.U64(&rs.globalAddr)
		c.U64(&rs.localAddr)
		c.U64(&rs.l2Token)
		c.Int(&rs.l2Bank)
		c.Int(&rs.sharesLeft)
		c.Bools(&rs.l2Bypass, &rs.dataDone, &rs.ctrDone, &rs.macDone, &rs.unprotected, &rs.replied, &rs.finished)
		c.U64(&rs.arrivedAt)
		c.U64(&rs.dataReady)
		c.U64(&rs.ctrReady)
		c.U64(&rs.macReady)
		if c.Decoding() {
			checkTok("read", id)
			if rs.l2Bank < 0 || rs.l2Bank >= len(p.banks) {
				c.Fail("partition %d: read %d is for L2 bank %d of %d", p.id, id, rs.l2Bank, len(p.banks))
			}
			rs.id = id
		}
	})

	replies := p.replies.Heap()
	statecodec.Slice(c, replies, minReplyEv)
	for i := range *replies {
		ev := &(*replies)[i]
		c.U64(&ev.at)
		c.U64(&ev.readID)
	}
	for i := range p.metaStats {
		m := &p.metaStats[i]
		c.U64(&m.Accesses)
		c.U64(&m.MissesPrimary)
		c.U64(&m.MissesSecondary)
	}
	for _, v := range [...]*uint64{&p.faultDetected, &p.faultSilent, &p.localTok, &p.lastKeyLine} {
		c.U64(v)
	}
	if c.Decoding() {
		if maxTok&(1<<40-1) > p.localTok {
			c.Fail("partition %d: token %#x was never issued (last %#x)", p.id, maxTok, uint64(p.id+1)<<40|p.localTok)
		}
		p.rsPool = nil
	}
	// Every access to a profiled kind's cache touches its profiler.
	for mk, r := range p.reuse {
		if r == nil {
			continue
		}
		r.Walk(c)
		if c.Decoding() && r.Total != p.metaStats[mk].Accesses {
			c.Fail("partition %d: the %s reuse profiler counts %d accesses, its cache %d", p.id, MetaKind(mk), r.Total, p.metaStats[mk].Accesses)
		}
	}
}

// walkTokens walks a token table as an entry count, then each entry in
// ascending token order: its gap-coded token, then what elem walks of
// its value. An encoder sorts the tokens into *keys, scratch reused
// across walks. Decoding refills t, refusing token 0, which the table
// reserves and no counter issues; elem checks everything else. A
// decoder first tells start, when set, how many entries follow.
func walkTokens[V any](c *statecodec.Codec, t *tokTable[V], keys *[]uint64, minElem int, what string, start func(n int), elem func(tok uint64, v *V)) {
	n := t.len()
	c.Len(&n, minElem)
	if c.Decoding() {
		t.reset(n)
		if start != nil {
			start(n)
		}
	} else {
		*keys = t.sortedKeys(*keys)
	}
	var seq statecodec.KeySeq
	// One value for every entry: elem's pointer makes it escape.
	var v, zero V
	for i := 0; i < n; i++ {
		var tok uint64
		if c.Decoding() {
			v = zero
		} else {
			tok = (*keys)[i]
			v, _ = t.get(tok)
		}
		c.Key(&seq, &tok)
		if c.Decoding() && tok == 0 {
			c.Fail("%s token 0 is reserved", what)
		}
		elem(tok, &v)
		if !c.Decoding() {
			continue
		}
		if c.Err() != nil {
			return
		}
		t.put(tok, v)
	}
}

// fills reports whether the partition issues DRAM transactions that
// fill f (see dest): data always, a metadata kind only with its cache,
// key-table lines only under software encryption.
func (p *partition) fills(f uint8) bool {
	switch {
	case f == 0:
		return true
	case f > uint8(numMeta):
		return false
	case MetaKind(f-1) == MetaKey:
		return p.cfg.Secure.Encryption == EncSWCrypto
	}
	return p.meta[f-1] != nil
}
