package sim

import (
	"gpusecmem/internal/cache"
	"gpusecmem/internal/dram"
	"gpusecmem/internal/eventq"
	"gpusecmem/internal/faults"
	"gpusecmem/internal/geometry"
	"gpusecmem/internal/stats"
)

// destKind classifies what a completed DRAM transaction was for.
type destKind int

const (
	destDataFill destKind = iota
	destCtrFill
	destMACFill
	destTreeFill
	// destKeyFill is an EncSWCrypto key-table line returning from DRAM.
	// Key fetches are uncached and unmerged (the software path has no
	// MSHRs), so each carries at most one waiting read.
	destKeyFill
)

type dest struct {
	kind   destKind
	addr   uint64 // metadata line address (fills)
	readID uint64 // waiting read for destDataFill / bypass metadata fetches
	bypass bool
	write  bool
	// issuedAt is the enqueue cycle, kept for probe span attribution.
	issuedAt uint64
}

// readState tracks one in-flight L2 read miss through the secure
// engine.
type readState struct {
	id         uint64
	globalAddr uint64
	localAddr  uint64
	l2Token    uint64
	l2Bypass   bool
	l2Bank     int

	dataDone, ctrDone, macDone bool
	// sharesLeft counts outstanding secret-share fetches under
	// EncScattered; the read's data is reconstructible only once the
	// last share arrives. Zero for every other scheme, where one DRAM
	// transaction carries the whole sector.
	sharesLeft int
	// unprotected marks reads outside the selective-encryption range:
	// no crypto on the reply path.
	unprotected bool
	// arrivedAt is the cycle the miss reached the partition, kept for
	// probe span attribution.
	arrivedAt           uint64
	dataReady, ctrReady uint64
	macReady            uint64
	replied             bool
	// finished is set once the reply event fired and the L2 was
	// filled; only then may the state be retired.
	finished bool
}

type replyEvent struct {
	at     uint64
	readID uint64
}

// When orders reply events for the partition's eventq.
func (e replyEvent) When() uint64 { return e.at }

// partition is one memory partition: L2 banks, the secure memory
// engine (metadata caches, AES engines, MAC unit), and the DRAM
// channel.
type partition struct {
	id  int
	gpu *GPU
	cfg *Config
	lay *geometry.Layout

	banks []*cache.Cache
	dram  *dram.DRAM

	// Metadata caches. With a unified configuration all three point
	// at the same cache; with EncDirect ctr is nil. EncScattered reuses
	// the ctr slot for its share-map cache (the only metadata cache the
	// scheme has), so the counter wake/fill machinery serves the map
	// gate unchanged; EncSWCrypto has no metadata caches at all.
	ctr, mac, tree *cache.Cache

	// metaBase is where the extension schemes' partition-local metadata
	// region starts: the first address past the partition's data space.
	// EncScattered's share map and EncSWCrypto's key table live there
	// (the paper schemes derive their region bases from lay instead).
	metaBase uint64
	// lastKeyLine is EncSWCrypto's single software-held key register:
	// the key-table line the driver last loaded. ^0 = none held.
	lastKeyLine uint64

	aesFree3 []uint64
	macFree3 uint64

	dests   map[uint64]dest
	reads   map[uint64]*readState
	replies eventq.Queue[replyEvent]
	// rsPool recycles retired readStates; reads are the per-L2-miss
	// hot-path allocation.
	rsPool []*readState

	metaStats [numMeta]MetaStats

	// faultDetected / faultSilent classify injected corruptions by
	// whether the configured protection level catches them.
	faultDetected, faultSilent uint64

	// protectedStripes is the number of 1 MB partition-local stripes
	// out of 16 that the secure engine covers (selective encryption);
	// 16 = everything.
	protectedStripes uint64

	// localTok seeds newToken: partition-owned tokens (readState ids,
	// DRAM destination tokens) are generated locally so the parallel
	// engine needs no shared counter. Snapshot sorts the token-keyed
	// maps by token so a state encodes to the same bytes, but no
	// Result depends on a token's value, so local generation changes
	// no observable result.
	localTok uint64
	// stage is the owning shard's staging buffer: replies, probe spans
	// and fault draws wait there for the window barrier.
	stage *replyStage

	ctrReuse, macReuse *stats.ReuseProfiler
}

func newPartition(id int, gpu *GPU) *partition {
	cfg := &gpu.cfg
	p := &partition{
		id:    id,
		gpu:   gpu,
		cfg:   cfg,
		dram:  dram.New(cfg.DRAM),
		dests: make(map[uint64]dest),
		reads: make(map[uint64]*readState),
	}
	for b := 0; b < cfg.L2BanksPerPartition; b++ {
		p.banks = append(p.banks, cache.New(cache.Config{
			Name:        "L2",
			SizeBytes:   cfg.L2BankBytes,
			LineSize:    geometry.LineSize,
			Assoc:       cfg.L2Assoc,
			Sectored:    cfg.SectoredL2,
			NumMSHRs:    cfg.L2MSHRs,
			MergeCap:    cfg.L2MergeCap,
			AllocOnFill: true,
		}))
	}
	sc := &cfg.Secure
	if sc.Encryption != EncNone {
		p.protectedStripes = uint64(sc.ProtectedFraction*16 + 0.5)
		p.metaBase = cfg.ProtectedBytes / uint64(cfg.NumPartitions)
		metaCache := func(name string, mergeCap int) *cache.Cache {
			return cache.New(cache.Config{
				Name:        name,
				SizeBytes:   sc.MetaCacheBytes,
				LineSize:    geometry.LineSize,
				Assoc:       sc.MetaAssoc,
				NumMSHRs:    sc.MetaMSHRs,
				MergeCap:    mergeCap,
				AllocOnFill: sc.AllocOnFill,
				Perfect:     sc.PerfectMeta,
				Unlimited:   sc.UnlimitedMeta,
			})
		}
		switch sc.Encryption {
		case EncScattered:
			// One share-map cache; no AES pipeline, MAC unit, or
			// counter/MAC/tree geometry — the placement map is the
			// scheme's entire metadata footprint.
			p.ctr = metaCache("smap$", sc.MergeCapCounter)
			return p
		case EncSWCrypto:
			// No hardware metadata structures at all: the software
			// driver holds one key-table line in a register.
			p.lastKeyLine = ^uint64(0)
			return p
		}
		p.lay = layoutFor(cfg)
		p.aesFree3 = make([]uint64, sc.AESEngines)
		if sc.Unified {
			u := cache.New(cache.Config{
				Name:        "unified$",
				SizeBytes:   sc.UnifiedBytes,
				LineSize:    geometry.LineSize,
				Assoc:       sc.MetaAssoc,
				NumMSHRs:    sc.UnifiedMSHRs,
				MergeCap:    sc.MergeCapCounter,
				AllocOnFill: sc.AllocOnFill,
				Perfect:     sc.PerfectMeta,
				Unlimited:   sc.UnlimitedMeta,
				Policy:      sc.UnifiedPolicy,
			})
			p.ctr, p.mac, p.tree = u, u, u
		} else {
			if sc.Encryption == EncCounter {
				p.ctr = metaCache("ctr$", sc.MergeCapCounter)
			}
			if sc.MAC {
				p.mac = metaCache("mac$", sc.MergeCapMAC)
			}
			if sc.Tree {
				p.tree = metaCache("tree$", sc.MergeCapTree)
			}
		}
		if id == 0 && cfg.ProfileReuse {
			p.ctrReuse = stats.NewReuseProfiler()
			p.macReuse = stats.NewReuseProfiler()
		}
	}
	return p
}

// layoutFor builds the partition-local metadata layout.
func layoutFor(cfg *Config) *geometry.Layout {
	return geometry.MustLayout(cfg.ProtectedBytes/uint64(cfg.NumPartitions), layoutKind(cfg))
}

// layoutKind is the integrity tree the configuration's encryption
// implies: a Merkle Tree over MAC lines under direct encryption, a
// Bonsai Merkle Tree over counter lines otherwise.
func layoutKind(cfg *Config) geometry.TreeKind {
	if cfg.Secure.Encryption == EncDirect {
		return geometry.MT
	}
	return geometry.BMT
}

// newToken returns a fresh partition-unique token. Tokens are only
// ever compared for equality against tokens of the same partition, so
// uniqueness within the partition suffices; the partition-id high bits
// keep them globally distinct anyway, and the +1 keeps them nonzero (0
// is the "no waiter" sentinel in the metadata wake paths).
func (p *partition) newToken() uint64 {
	p.localTok++
	return uint64(p.id+1)<<40 | p.localTok
}

// isProtected reports whether a partition-local data address falls in
// the selectively-protected stripes (1 MB granularity, 16 stripes per
// 16 MB period).
func (p *partition) isProtected(localAddr uint64) bool {
	return (localAddr>>20)&15 < p.protectedStripes
}

func (p *partition) bankFor(localAddr uint64) int {
	if len(p.banks) == 1 {
		return 0
	}
	return int(localAddr>>8) % len(p.banks)
}

// --- AES / MAC unit scheduling ---

// aesSchedule books one 32 B sector through a pipelined AES engine
// that is free no earlier than readyCycle, and returns the cycle its
// result is available. Zero-crypto configs short-circuit.
func (p *partition) aesSchedule(readyCycle uint64) uint64 {
	sc := &p.cfg.Secure
	if sc.AESLatency == 0 && sc.MACLatency == 0 {
		return readyCycle
	}
	ready3 := readyCycle * 3
	best := 0
	for i := 1; i < len(p.aesFree3); i++ {
		if p.aesFree3[i] < p.aesFree3[best] {
			best = i
		}
	}
	start3 := ready3
	if p.aesFree3[best] > start3 {
		start3 = p.aesFree3[best]
	}
	// 32 B through a 16 B/memory-cycle pipeline = 2 memory cycles =
	// 8 thirds of a core cycle.
	p.aesFree3[best] = start3 + 8
	return start3/3 + uint64(sc.AESLatency)
}

// macSchedule books one sector MAC computation/verification.
func (p *partition) macSchedule(readyCycle uint64) uint64 {
	sc := &p.cfg.Secure
	if sc.AESLatency == 0 && sc.MACLatency == 0 {
		return readyCycle
	}
	ready3 := readyCycle * 3
	start3 := ready3
	if p.macFree3 > start3 {
		start3 = p.macFree3
	}
	p.macFree3 = start3 + 8
	return start3/3 + uint64(sc.MACLatency)
}

// --- L2-side entry points ---

// handleL2Read services a load sector arriving from the interconnect.
func (p *partition) handleL2Read(globalAddr, localAddr, token uint64, now uint64) {
	bank := p.bankFor(localAddr)
	acc := p.banks[bank].Access(localAddr, false, token)
	switch {
	case acc.Outcome == cache.Hit:
		if p.gpu.probe != nil {
			p.recordHitSpan(now)
		}
		p.stage.stageReply(now, now+p.cfg.L2Latency, globalAddr, []uint64{token})
	case acc.NeedFetch:
		p.startRead(globalAddr, localAddr, token, acc.Bypass, bank, now)
	}
	// Merged: the existing fetch's fill will wake this token.
}

// handleL2Write services a store sector (write-validate policy).
func (p *partition) handleL2Write(localAddr uint64, now uint64) {
	bank := p.bankFor(localAddr)
	ev, _ := p.banks[bank].WriteValidate(localAddr)
	if ev != nil {
		p.handleDataWriteback(ev, now)
	}
}

// startRead launches the secure read path for an L2 sector miss.
func (p *partition) startRead(globalAddr, localAddr, token uint64, l2Bypass bool, bank int, now uint64) {
	var rs *readState
	if n := len(p.rsPool); n > 0 {
		rs = p.rsPool[n-1]
		p.rsPool = p.rsPool[:n-1]
	} else {
		rs = new(readState)
	}
	*rs = readState{
		id:         p.newToken(),
		globalAddr: globalAddr,
		localAddr:  localAddr,
		l2Token:    token,
		l2Bypass:   l2Bypass,
		l2Bank:     bank,
		arrivedAt:  now,
	}
	p.reads[rs.id] = rs
	sc := &p.cfg.Secure
	protected := p.isProtected(localAddr)
	if protected && sc.Encryption == EncScattered {
		// The share locations are unknown until the share map answers,
		// so no data fetch is issued here: the map lookup gates the
		// whole fan-out (a map hit issues the shares this cycle).
		rs.macDone = true
		p.smapAccess(rs, now)
		return
	}
	// Data fetch.
	dt := p.newToken()
	p.dests[dt] = dest{kind: destDataFill, readID: rs.id}
	p.dram.Enqueue(dram.Request{Addr: localAddr, Bytes: geometry.SectorSize, Token: dt, Kind: int(KindData)})

	switch {
	case protected && sc.Encryption == EncCounter:
		p.counterAccess(rs, now)
	case protected && sc.Encryption == EncSWCrypto:
		p.keyAccess(rs, now)
	default:
		rs.ctrDone = true
	}
	if protected && sc.MAC {
		p.macAccess(rs, now)
	} else {
		rs.macDone = true
	}
	if !protected {
		rs.unprotected = true
	}
	p.maybeReply(rs, now)
}

// --- EncScattered share-map + share fan-out ---

// mix64 is the splitmix64 finalizer: a deterministic 64-bit mixer used
// to derive pseudorandom share placements. Scattering quality only
// needs decorrelation from the row/bank/set-index bits, not
// cryptographic strength (the real scheme's placements are keyed; the
// timing model only needs their locality-destroying shape).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// smapLineAddr is the share-map line holding the placement entry for a
// data address: 8 B per 128 B data line, the map region starting at
// metaBase.
func (p *partition) smapLineAddr(localAddr uint64) uint64 {
	off := localAddr / geometry.LineSize * 8
	return p.metaBase + off/geometry.LineSize*geometry.LineSize
}

// shareAddr is the partition-local address of share i (1..k-1) of a
// protected line; share 0 is the line's home address itself. The
// placement is a pure function of (line, i) so reads and writebacks
// agree, and it preserves the sector offset so sectored-DRAM byte
// accounting matches the primary share's.
func (p *partition) shareAddr(localAddr uint64, i int) uint64 {
	line := localAddr / geometry.LineSize
	h := mix64(line + uint64(i)*0x9e3779b97f4a7c15)
	dataLines := p.metaBase / geometry.LineSize
	return h%dataLines*geometry.LineSize + localAddr%geometry.LineSize
}

// smapAccess probes the share-map cache on the read critical path. A
// hit releases the share fan-out immediately; a miss defers it to the
// map line's fill (wakeCounterWaiters — the map reuses the counter
// gate in readState).
func (p *partition) smapAccess(rs *readState, now uint64) {
	mapAddr := p.smapLineAddr(rs.localAddr)
	ms := &p.metaStats[MetaSMap]
	ms.Accesses++
	acc := p.ctr.Access(mapAddr, false, rs.id)
	switch acc.Outcome {
	case cache.Hit:
		rs.ctrDone = true
		rs.ctrReady = now + p.cfg.MetaLatency
	case cache.MissPrimary:
		ms.MissesPrimary++
	default:
		ms.MissesSecondary++
	}
	if acc.NeedFetch {
		dt := p.newToken()
		d := dest{kind: destCtrFill, addr: mapAddr, bypass: acc.Bypass, issuedAt: now}
		if acc.Bypass {
			d.readID = rs.id
		}
		p.dests[dt] = d
		p.dram.Enqueue(dram.Request{Addr: mapAddr, Bytes: geometry.LineSize, Token: dt, Kind: int(KindSMap)})
	}
	if rs.ctrDone {
		p.issueShares(rs, now)
	}
}

// issueShares launches the k-way share fetch once the placement is
// known: the home-address share counts as ordinary data traffic, the
// k-1 scattered shares as KindShare. All shares feed the same
// destDataFill wait; the last arrival completes the read's data.
func (p *partition) issueShares(rs *readState, now uint64) {
	k := p.cfg.Secure.ScatterShares
	rs.sharesLeft = k
	for i := 0; i < k; i++ {
		addr, kind := rs.localAddr, KindData
		if i > 0 {
			addr, kind = p.shareAddr(rs.localAddr, i), KindShare
		}
		dt := p.newToken()
		p.dests[dt] = dest{kind: destDataFill, readID: rs.id}
		p.dram.Enqueue(dram.Request{Addr: addr, Bytes: geometry.SectorSize, Token: dt, Kind: int(kind)})
	}
}

// --- EncSWCrypto key table ---

// keyLineAddr is the key-table line holding the page key for a data
// address: 8 B per 4 KB page, the table starting at metaBase.
func (p *partition) keyLineAddr(localAddr uint64) uint64 {
	off := localAddr >> 12 * 8
	return p.metaBase + off/geometry.LineSize*geometry.LineSize
}

// keyAccess models the software driver's key lookup: one key-table
// line is held in a register; any other page's key is a full uncached
// DRAM line read. There are no MSHRs — concurrent misses to the same
// key line each pay their own fetch, which is exactly the cost the
// hardware metadata path exists to avoid.
func (p *partition) keyAccess(rs *readState, now uint64) {
	keyLine := p.keyLineAddr(rs.localAddr)
	ms := &p.metaStats[MetaKey]
	ms.Accesses++
	if keyLine == p.lastKeyLine {
		rs.ctrDone = true
		rs.ctrReady = now + p.cfg.MetaLatency
		return
	}
	ms.MissesPrimary++
	dt := p.newToken()
	p.dests[dt] = dest{kind: destKeyFill, addr: keyLine, readID: rs.id, issuedAt: now}
	p.dram.Enqueue(dram.Request{Addr: keyLine, Bytes: geometry.LineSize, Token: dt, Kind: int(KindKey)})
}

// swSchedule books one sector's software decrypt/encrypt pass through
// the SM-side crypto kernel, modeled as a single serial unit three
// times slower per sector than the hardware MAC pipe, plus the
// SWCryptoCycles software latency.
func (p *partition) swSchedule(readyCycle uint64) uint64 {
	sc := &p.cfg.Secure
	if sc.SWCryptoCycles == 0 {
		return readyCycle
	}
	start3 := readyCycle * 3
	if p.macFree3 > start3 {
		start3 = p.macFree3
	}
	p.macFree3 = start3 + 24
	return start3/3 + uint64(sc.SWCryptoCycles)
}

// counterAccess probes the counter cache on the read critical path.
func (p *partition) counterAccess(rs *readState, now uint64) {
	ctrAddr := p.lay.CounterLineAddr(p.lay.CounterLine(rs.localAddr))
	if p.ctrReuse != nil {
		p.ctrReuse.Touch(ctrAddr / geometry.LineSize)
	}
	ms := &p.metaStats[MetaCounter]
	ms.Accesses++
	acc := p.ctr.Access(ctrAddr, false, rs.id)
	switch acc.Outcome {
	case cache.Hit:
		rs.ctrDone = true
		rs.ctrReady = now + p.cfg.MetaLatency
	case cache.MissPrimary:
		ms.MissesPrimary++
	default:
		ms.MissesSecondary++
	}
	if acc.NeedFetch {
		dt := p.newToken()
		d := dest{kind: destCtrFill, addr: ctrAddr, bypass: acc.Bypass, issuedAt: now}
		if acc.Bypass {
			d.readID = rs.id
		}
		p.dests[dt] = d
		p.dram.Enqueue(dram.Request{Addr: ctrAddr, Bytes: geometry.LineSize, Token: dt, Kind: int(KindCounter)})
	}
}

// macAccess probes the MAC cache (background under speculative
// verification).
func (p *partition) macAccess(rs *readState, now uint64) {
	macAddr := p.lay.MACSectorAddr(rs.localAddr)
	macLine := macAddr / geometry.LineSize * geometry.LineSize
	if p.macReuse != nil {
		p.macReuse.Touch(macLine / geometry.LineSize)
	}
	ms := &p.metaStats[MetaMAC]
	ms.Accesses++
	acc := p.mac.Access(macAddr, false, rs.id)
	switch acc.Outcome {
	case cache.Hit:
		rs.macDone = true
		rs.macReady = now + p.cfg.MetaLatency
	case cache.MissPrimary:
		ms.MissesPrimary++
	default:
		ms.MissesSecondary++
	}
	if acc.NeedFetch {
		dt := p.newToken()
		d := dest{kind: destMACFill, addr: macLine, bypass: acc.Bypass, issuedAt: now}
		if acc.Bypass {
			d.readID = rs.id
		}
		p.dests[dt] = d
		p.dram.Enqueue(dram.Request{Addr: macLine, Bytes: geometry.LineSize, Token: dt, Kind: int(KindMAC)})
	}
}

// maybeReply checks whether rs can be scheduled for its L2 fill and
// SM reply, and if so computes the reply time through the crypto
// pipeline.
func (p *partition) maybeReply(rs *readState, now uint64) {
	if rs.replied {
		p.maybeRetire(rs)
		return
	}
	sc := &p.cfg.Secure
	if !rs.dataDone || !rs.ctrDone {
		return
	}
	if !sc.SpeculativeVerify && sc.MAC && !rs.macDone {
		return
	}
	// otpReady / encDone / verifyDone stay at zero on paths that do not
	// compute them; recordReadSpan uses them for stage attribution.
	var at, otpReady, encDone, verifyDone uint64
	switch {
	case rs.unprotected || sc.Encryption == EncNone:
		at = rs.dataReady
	case sc.Encryption == EncCounter:
		// OTP generation starts when the counter is known; the pad is
		// XORed when both pad and data are present.
		otpReady = p.aesSchedule(rs.ctrReady)
		at = rs.dataReady
		if otpReady > at {
			at = otpReady
		}
	case sc.Encryption == EncScattered:
		// The XOR reconstruction starts once the last share arrives
		// (dataReady); the map lookup already gated the fan-out, so it
		// is never the later event here.
		encDone = rs.dataReady + uint64(sc.ScatterCombineLatency)
		at = encDone
	case sc.Encryption == EncSWCrypto:
		// The software kernel needs both the ciphertext and the page
		// key before it can start, then pays the serial software pass.
		base := rs.dataReady
		if rs.ctrReady > base {
			base = rs.ctrReady
		}
		encDone = p.swSchedule(base)
		at = encDone
	default: // EncDirect: decryption starts after the ciphertext arrives.
		encDone = p.aesSchedule(rs.dataReady)
		at = encDone
	}
	if sc.MAC && !rs.unprotected {
		if !sc.SpeculativeVerify {
			v := rs.macReady
			if rs.dataReady > v {
				v = rs.dataReady
			}
			v = p.macSchedule(v)
			verifyDone = v
			if v > at {
				at = v
			}
		} else {
			// Background verification still occupies the MAC unit.
			p.macSchedule(now)
		}
	}
	if at <= now {
		at = now + 1
	}
	rs.replied = true
	if p.gpu.probe != nil {
		p.recordReadSpan(rs, otpReady, encDone, verifyDone, at)
	}
	p.replies.Push(replyEvent{at: at, readID: rs.id})
}

// maybeRetire frees the read state once the reply has fired and every
// tracked fill has returned. The state returns to the pool; callers
// must not touch rs after this (a recycled state gets a fresh token,
// so stale IDs in late events simply miss the reads map).
func (p *partition) maybeRetire(rs *readState) {
	if rs.finished && rs.dataDone && rs.ctrDone && rs.macDone {
		delete(p.reads, rs.id)
		p.rsPool = append(p.rsPool, rs)
	}
}

// finishRead fires at the reply time: fill the L2 bank, forward the
// data to the waiting SMs, and handle any dirty L2 eviction.
func (p *partition) finishRead(rs *readState, now uint64) {
	fill := p.banks[rs.l2Bank].Fill(rs.localAddr, rs.l2Bypass, false)
	tokens := fill.Tokens
	if rs.l2Bypass {
		tokens = append(tokens, rs.l2Token)
	}
	if fill.Writeback != nil {
		p.handleDataWriteback(fill.Writeback, now)
	}
	if len(tokens) > 0 {
		p.stage.stageReply(now, now, rs.globalAddr, tokens)
	}
	rs.finished = true
	p.maybeRetire(rs)
}

// --- Write path ---

// handleDataWriteback processes a dirty L2 data eviction through the
// secure write path: counter increment, encryption, MAC update, and
// the DRAM data write.
func (p *partition) handleDataWriteback(ev *cache.Eviction, now uint64) {
	sc := &p.cfg.Secure
	p.dram.Enqueue(dram.Request{Addr: ev.LineAddr, Bytes: ev.DirtyBytes, Write: true, Kind: int(KindData)})
	if sc.Encryption == EncNone || !p.isProtected(ev.LineAddr) {
		return
	}
	switch sc.Encryption {
	case EncScattered:
		// A dirty writeback re-splits the line: the home share was the
		// data write above, the k-1 scattered shares follow, and the
		// placement entry is read-modified-written (fresh shares mean
		// fresh map contents).
		for i := 1; i < sc.ScatterShares; i++ {
			p.dram.Enqueue(dram.Request{Addr: p.shareAddr(ev.LineAddr, i), Bytes: ev.DirtyBytes, Write: true, Kind: int(KindShare)})
		}
		p.metaWriteAccess(MetaSMap, p.ctr, p.smapLineAddr(ev.LineAddr), destCtrFill, KindSMap, now)
		return
	case EncSWCrypto:
		// Software encryption of each dirty sector, after the driver
		// swaps the page key into its register if it isn't held.
		for b := 0; b < ev.DirtyBytes; b += geometry.SectorSize {
			p.swSchedule(now)
		}
		keyLine := p.keyLineAddr(ev.LineAddr)
		ms := &p.metaStats[MetaKey]
		ms.Accesses++
		if keyLine != p.lastKeyLine {
			ms.MissesPrimary++
			dt := p.newToken()
			p.dests[dt] = dest{kind: destKeyFill, addr: keyLine, write: true, issuedAt: now}
			p.dram.Enqueue(dram.Request{Addr: keyLine, Bytes: geometry.LineSize, Token: dt, Kind: int(KindKey)})
		}
		return
	}
	// Encryption occupancy, one AES pass per dirty sector.
	for b := 0; b < ev.DirtyBytes; b += geometry.SectorSize {
		p.aesSchedule(now)
	}
	if sc.Encryption == EncCounter {
		// Counter increment: read-modify-write of the counter line.
		ctrAddr := p.lay.CounterLineAddr(p.lay.CounterLine(ev.LineAddr))
		if p.ctrReuse != nil {
			p.ctrReuse.Touch(ctrAddr / geometry.LineSize)
		}
		p.metaWriteAccess(MetaCounter, p.ctr, ctrAddr, destCtrFill, KindCounter, now)
		if sc.Tree && !sc.LazyTreeUpdate {
			level, idx, _ := p.lay.LeafParent(p.lay.CounterLine(ev.LineAddr))
			p.treeWriteAccess(p.lay.TreeNodeAddr(level, idx), now)
		}
	}
	if sc.MAC {
		for b := 0; b < ev.DirtyBytes; b += geometry.SectorSize {
			p.macSchedule(now)
		}
		macAddr := p.lay.MACSectorAddr(ev.LineAddr)
		macLine := macAddr / geometry.LineSize * geometry.LineSize
		if p.macReuse != nil {
			p.macReuse.Touch(macLine / geometry.LineSize)
		}
		p.metaWriteAccess(MetaMAC, p.mac, macAddr, destMACFill, KindMAC, now)
		if sc.Encryption == EncDirect && sc.Tree && !sc.LazyTreeUpdate {
			level, idx, _ := p.lay.LeafParent(p.lay.MACLine(ev.LineAddr))
			p.treeWriteAccess(p.lay.TreeNodeAddr(level, idx), now)
		}
	}
}

// metaWriteAccess performs a read-modify-write access to a metadata
// cache, fetching the line on a miss.
func (p *partition) metaWriteAccess(mk MetaKind, c *cache.Cache, addr uint64, fillKind destKind, traffic TrafficKind, now uint64) {
	ms := &p.metaStats[mk]
	ms.Accesses++
	acc := c.Access(addr, true, 0)
	switch acc.Outcome {
	case cache.Hit:
	case cache.MissPrimary:
		ms.MissesPrimary++
	default:
		ms.MissesSecondary++
	}
	if acc.Writeback != nil { // allocate-on-miss reservation
		p.handleMetaWriteback(acc.Writeback, now)
	}
	if acc.NeedFetch {
		lineAddr := addr / geometry.LineSize * geometry.LineSize
		dt := p.newToken()
		p.dests[dt] = dest{kind: fillKind, addr: lineAddr, bypass: acc.Bypass, write: true, issuedAt: now}
		p.dram.Enqueue(dram.Request{Addr: lineAddr, Bytes: geometry.LineSize, Token: dt, Kind: int(traffic)})
	}
}

// treeWriteAccess updates a tree node in the tree cache (lazy-update
// parent propagation).
func (p *partition) treeWriteAccess(nodeAddr uint64, now uint64) {
	p.metaWriteAccess(MetaTree, p.tree, nodeAddr, destTreeFill, KindTree, now)
}

// handleMetaWriteback processes a dirty metadata-cache eviction: the
// DRAM writeback plus the lazy parent update it triggers.
func (p *partition) handleMetaWriteback(ev *cache.Eviction, now uint64) {
	p.dram.Enqueue(dram.Request{Addr: ev.LineAddr, Bytes: ev.DirtyBytes, Write: true, Kind: int(KindWB)})
	sc := &p.cfg.Secure
	if !sc.Tree || !sc.LazyTreeUpdate {
		return
	}
	switch p.lay.RegionOf(ev.LineAddr) {
	case geometry.RegionCounter:
		leaf := (ev.LineAddr - p.lay.CounterBase) / geometry.LineSize
		level, idx, _ := p.lay.LeafParent(leaf)
		p.treeWriteAccess(p.lay.TreeNodeAddr(level, idx), now)
	case geometry.RegionMAC:
		if sc.Encryption == EncDirect {
			leaf := (ev.LineAddr - p.lay.MACBase) / geometry.LineSize
			level, idx, _ := p.lay.LeafParent(leaf)
			p.treeWriteAccess(p.lay.TreeNodeAddr(level, idx), now)
		}
	case geometry.RegionTree:
		level, idx := p.lay.NodeByAddr(ev.LineAddr)
		if plevel, pidx, _, ok := p.lay.Parent(level, idx); ok {
			p.treeWriteAccess(p.lay.TreeNodeAddr(plevel, pidx), now)
		}
		// Level 0's hash lives in the on-chip root register: no
		// further traffic.
	}
}

// --- Integrity verification walks (background, speculative) ---

// verifyWalkFromLeaf starts the tree walk that authenticates a freshly
// fetched leaf (counter line under BMT, MAC line under MT).
func (p *partition) verifyWalkFromLeaf(leaf uint64, now uint64) {
	level, idx, _ := p.lay.LeafParent(leaf)
	p.verifyWalk(level, idx, now)
}

// verifyWalk authenticates upward from node (level, idx): a cached
// node terminates the walk (cached implies verified); a miss fetches
// the node and continues from its parent when the fill returns.
func (p *partition) verifyWalk(level int, idx uint64, now uint64) {
	for {
		nodeAddr := p.lay.TreeNodeAddr(level, idx)
		ms := &p.metaStats[MetaTree]
		ms.Accesses++
		acc := p.tree.Access(nodeAddr, false, 0)
		switch acc.Outcome {
		case cache.Hit:
			return
		case cache.MissPrimary:
			ms.MissesPrimary++
		default:
			ms.MissesSecondary++
		}
		if acc.Writeback != nil {
			p.handleMetaWriteback(acc.Writeback, now)
		}
		if acc.NeedFetch {
			dt := p.newToken()
			p.dests[dt] = dest{kind: destTreeFill, addr: nodeAddr, bypass: acc.Bypass, issuedAt: now}
			p.dram.Enqueue(dram.Request{Addr: nodeAddr, Bytes: geometry.LineSize, Token: dt, Kind: int(KindTree)})
			return // continue from the parent at fill time
		}
		// Merged into an in-flight fetch: that walk continues for us.
		return
	}
}

// --- DRAM completion dispatch ---

// nextEvent returns the earliest cycle after `now` at which tick could
// do anything — fire a scheduled reply or move the DRAM channel —
// assuming no new L2 message arrives in between (the cycle loop
// re-arms the partition on delivery). Like dram.NextEvent it is a
// lower bound: undershooting costs a no-op tick, which is exactly what
// the legacy every-cycle loop did, so skipping up to the bound is
// state-identical.
func (p *partition) nextEvent(now uint64) uint64 {
	next := p.dram.NextEvent(now)
	if r := p.replies.NextWhen(); r < next {
		next = r
	}
	if next <= now && next != ^uint64(0) {
		next = now + 1
	}
	return next
}

func (p *partition) tick(now uint64) {
	for p.replies.Len() > 0 && p.replies.Min().at <= now {
		ev := p.replies.Pop()
		if rs, ok := p.reads[ev.readID]; ok {
			p.finishRead(rs, now)
		}
	}
	for _, tok := range p.dram.Tick(now) {
		d, ok := p.dests[tok]
		if !ok {
			continue
		}
		delete(p.dests, tok)
		p.dispatch(d, now)
	}
}

// recordCorruption books one injected bit flip as detected (the
// protection level would raise a verification error) or silent.
func (p *partition) recordCorruption(detected bool) {
	if detected {
		p.faultDetected++
	} else {
		p.faultSilent++
	}
}

// fire stages one fault-injection opportunity at site for the window
// barrier, which draws it in canonical order and books a hit as
// detected iff covered. A draw changes no timing, so deferring it to
// the barrier is invisible to the machine.
func (p *partition) fire(site faults.Site, addr uint64, covered bool) {
	if p.gpu.inj == nil {
		return
	}
	st := p.stage
	st.draws = append(st.draws, stagedDraw{key: st.key(), addr: addr, part: int32(p.id), site: site, covered: covered})
}

// injectMeta gives the fault plan its two shots at a returning
// metadata line: SiteDRAMMeta models the line corrupted at rest in
// DRAM, SiteMetaFill models corruption on the fill path into the
// metadata cache. Both are detected iff `covered` — whether the
// configured protection level has a check that would miscompare.
func (p *partition) injectMeta(addr uint64, covered bool) {
	p.fire(faults.SiteDRAMMeta, addr, covered)
	p.fire(faults.SiteMetaFill, addr, covered)
}

func (p *partition) dispatch(d dest, now uint64) {
	sc := &p.cfg.Secure
	switch d.kind {
	case destDataFill:
		if rs, ok := p.reads[d.readID]; ok {
			// A flipped data line is caught only by a MAC over a
			// protected address; decryption alone scrambles silently.
			p.fire(faults.SiteDRAMData, rs.localAddr, sc.MAC && !rs.unprotected)
			if rs.sharesLeft > 1 {
				// EncScattered: more shares outstanding — the line is
				// reconstructible only once the last one lands.
				rs.sharesLeft--
				return
			}
			rs.sharesLeft = 0
			rs.dataDone = true
			rs.dataReady = now
			p.maybeReply(rs, now)
		}
	case destCtrFill:
		// A corrupt counter fails the tree check directly, or the
		// (stateful) MAC check indirectly via the wrong OTP. (Under
		// EncScattered this is the share map and neither exists: the
		// flip lands silently.)
		p.injectMeta(d.addr, sc.Tree || sc.MAC)
		if p.gpu.probe != nil {
			k := KindCounter
			if sc.Encryption == EncScattered {
				k = KindSMap
			}
			p.recordMetaSpan(d, k, now)
		}
		fill := p.ctr.Fill(d.addr, d.bypass, d.write)
		if fill.Writeback != nil {
			p.handleMetaWriteback(fill.Writeback, now)
		}
		p.wakeCounterWaiters(fill.Tokens, d, now)
		if sc.Tree {
			leaf := (d.addr - p.lay.CounterBase) / geometry.LineSize
			p.verifyWalkFromLeaf(leaf, now)
		}
	case destMACFill:
		// A flipped stored MAC always miscompares against the
		// recomputed one.
		p.injectMeta(d.addr, true)
		if p.gpu.probe != nil {
			p.recordMetaSpan(d, KindMAC, now)
		}
		fill := p.mac.Fill(d.addr, d.bypass, d.write)
		if fill.Writeback != nil {
			p.handleMetaWriteback(fill.Writeback, now)
		}
		p.wakeMACWaiters(fill.Tokens, d, now)
		if sc.Encryption == EncDirect && sc.Tree {
			leaf := (d.addr - p.lay.MACBase) / geometry.LineSize
			p.verifyWalkFromLeaf(leaf, now)
		}
	case destTreeFill:
		// A flipped tree node fails its parent's hash check.
		p.injectMeta(d.addr, true)
		if p.gpu.probe != nil {
			p.recordMetaSpan(d, KindTree, now)
		}
		fill := p.tree.Fill(d.addr, d.bypass, d.write)
		if fill.Writeback != nil {
			p.handleMetaWriteback(fill.Writeback, now)
		}
		// Continue the verification walk upward.
		level, idx := p.lay.NodeByAddr(d.addr)
		if plevel, pidx, _, ok := p.lay.Parent(level, idx); ok {
			p.verifyWalk(plevel, pidx, now)
		}
	case destKeyFill:
		// A flipped page key scrambles the plaintext with nothing to
		// miscompare against: always silent.
		p.injectMeta(d.addr, false)
		if p.gpu.probe != nil {
			p.recordMetaSpan(d, KindKey, now)
		}
		// The driver's register holds this key line from the fill cycle
		// on. Updating at fill (not issue) time means concurrent misses
		// on the same line each pay their own fetch — the software path
		// has no MSHRs to merge them.
		p.lastKeyLine = d.addr
		if rs, ok := p.reads[d.readID]; ok {
			rs.ctrDone = true
			rs.ctrReady = now
			p.maybeReply(rs, now)
		}
	}
}

func (p *partition) wakeCounterWaiters(tokens []uint64, d dest, now uint64) {
	if d.bypass && d.readID != 0 {
		tokens = append(tokens, d.readID)
	}
	for _, tok := range tokens {
		if tok == 0 {
			continue
		}
		if rs, ok := p.reads[tok]; ok {
			rs.ctrDone = true
			rs.ctrReady = now
			if p.cfg.Secure.Encryption == EncScattered {
				// The placement just became known: release the share
				// fan-out (the reply waits on the shares, not here).
				p.issueShares(rs, now)
			} else {
				p.maybeReply(rs, now)
			}
		}
	}
}

func (p *partition) wakeMACWaiters(tokens []uint64, d dest, now uint64) {
	if d.bypass && d.readID != 0 {
		tokens = append(tokens, d.readID)
	}
	for _, tok := range tokens {
		if tok == 0 {
			continue
		}
		if rs, ok := p.reads[tok]; ok {
			rs.macDone = true
			rs.macReady = now
			p.maybeReply(rs, now)
		}
	}
}
