package sim

import (
	"slices"

	"gpusecmem/internal/cache"
	"gpusecmem/internal/dram"
	"gpusecmem/internal/eventq"
	"gpusecmem/internal/faults"
	"gpusecmem/internal/geometry"
	"gpusecmem/internal/recycle"
	"gpusecmem/internal/stats"
)

// dest is what a partition awaits from one DRAM transaction. The
// small fields come last so a dest packs into 32 bytes.
type dest struct {
	addr   uint64 // metadata line address (fills)
	readID uint64 // waiting read for a data fill, key and bypass metadata fetches
	// issuedAt is the enqueue cycle, kept for probe span attribution.
	issuedAt uint64
	// fill is what the transaction fetches: 0 for a data sector,
	// MetaKind+1 for a metadata line. A key-table fetch is uncached and
	// unmerged (the software path has no MSHRs), so it carries at most
	// one waiting read.
	fill   uint8
	bypass bool
	write  bool
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
//
// The read path (startRead), the write path (handleDataWriteback) and
// the integrity-tree walks touch metadata cache lines only through
// metaAccess, which books the per-kind statistics, writes back an
// allocate-on-miss victim and issues the line fetch; every metadata
// fetch, the key-table reads included, returns through metaFill.
type partition struct {
	id  int
	gpu *GPU
	cfg *Config
	lay *geometry.Layout

	banks []*cache.Cache
	dram  *dram.DRAM

	// meta holds the metadata caches, indexed by the kind of line each
	// holds; nil where the scheme caches no such kind. A unified
	// configuration points counter, MAC and tree at one cache;
	// EncDirect has no counter cache, EncScattered only its share-map
	// cache, and EncSWCrypto none at all. MetaKey never has a cache:
	// its one line lives in lastKeyLine.
	meta [numMeta]*cache.Cache

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

	dests   tokTable[dest]
	reads   tokTable[*readState]
	replies eventq.Queue[replyEvent]
	// rsPool recycles retired readStates; reads are the per-L2-miss
	// hot-path allocation. Every readState lives in one of rsSlabs,
	// arrays drawn from the recycler; rsFresh is the unused tail of the
	// newest.
	rsPool  []*readState
	rsSlabs [][]readState
	rsFresh []readState

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
	// engine needs no shared counter. Snapshot sorts the token tables
	// by token so a state encodes to the same bytes, but no Result
	// depends on a token's value, so local generation changes no
	// observable result.
	localTok uint64
	// stage is the owning shard's staging buffer: replies, probe spans
	// and fault draws wait there for the window barrier.
	stage *replyStage

	// reuse holds the Figure 10/11 reuse-distance profilers, indexed by
	// metadata kind: counter and MAC on partition 0 under
	// Config.ProfileReuse, nil otherwise.
	reuse [numMeta]*stats.ReuseProfiler
}

func newPartition(id int, gpu *GPU) *partition {
	cfg := &gpu.cfg
	p := &partition{
		id:   id,
		gpu:  gpu,
		cfg:  cfg,
		dram: dram.New(cfg.DRAM),
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
		metaCache := func(name string, size, mshrs, mergeCap int, policy cache.Policy) *cache.Cache {
			return cache.New(cache.Config{
				Name:        name,
				SizeBytes:   size,
				LineSize:    geometry.LineSize,
				Assoc:       sc.MetaAssoc,
				NumMSHRs:    mshrs,
				MergeCap:    mergeCap,
				AllocOnFill: sc.AllocOnFill,
				Perfect:     sc.PerfectMeta,
				Unlimited:   sc.UnlimitedMeta,
				Policy:      policy,
			})
		}
		perKind := func(name string, mergeCap int) *cache.Cache {
			return metaCache(name, sc.MetaCacheBytes, sc.MetaMSHRs, mergeCap, cache.PolicyLRU)
		}
		switch sc.Encryption {
		case EncScattered:
			// One share-map cache; no AES pipeline, MAC unit, or
			// counter/MAC/tree geometry — the placement map is the
			// scheme's entire metadata footprint.
			p.meta[MetaSMap] = perKind("smap$", sc.MergeCapCounter)
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
			u := metaCache("unified$", sc.UnifiedBytes, sc.UnifiedMSHRs, sc.MergeCapCounter, sc.UnifiedPolicy)
			p.meta[MetaCounter], p.meta[MetaMAC], p.meta[MetaTree] = u, u, u
		} else {
			if sc.Encryption == EncCounter {
				p.meta[MetaCounter] = perKind("ctr$", sc.MergeCapCounter)
			}
			if sc.MAC {
				p.meta[MetaMAC] = perKind("mac$", sc.MergeCapMAC)
			}
			if sc.Tree {
				p.meta[MetaTree] = perKind("tree$", sc.MergeCapTree)
			}
		}
		if id == 0 && cfg.ProfileReuse {
			p.reuse[MetaCounter] = stats.NewReuseProfiler()
			p.reuse[MetaMAC] = stats.NewReuseProfiler()
		}
	}
	return p
}

// readSlab is how many readStates one recycled array holds.
const readSlab = 32

// rsSlab draws an array of n readStates from the recycler and keeps it
// for release.
func (p *partition) rsSlab(n int) []readState {
	s := recycle.Make[readState](n)
	p.rsSlabs = append(p.rsSlabs, s)
	return s
}

// release hands the partition's storage to the recycler (see
// GPU.Release).
func (p *partition) release() {
	for _, b := range p.banks {
		b.Release()
	}
	for _, mc := range p.metaCaches() {
		mc.Release()
	}
	for _, s := range p.rsSlabs {
		recycle.Put(s)
	}
	p.reads = tokTable[*readState]{} // its values point into the slabs
	p.rsPool, p.rsSlabs, p.rsFresh = nil, nil, nil
}

// metaCaches lists the partition's metadata caches in kind order, each
// once: a unified configuration's counter, MAC and tree kinds share
// one cache.
func (p *partition) metaCaches() []*cache.Cache {
	var out []*cache.Cache
	for _, mc := range p.meta {
		if mc != nil && !slices.Contains(out, mc) {
			out = append(out, mc)
		}
	}
	return out
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
		if len(p.rsFresh) == 0 {
			p.rsFresh = p.rsSlab(readSlab)
		}
		rs = &p.rsFresh[0]
		p.rsFresh = p.rsFresh[1:]
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
	p.reads.put(rs.id, rs)
	sc := &p.cfg.Secure
	protected := p.isProtected(localAddr)
	hitAt := now + p.cfg.MetaLatency
	if protected && sc.Encryption == EncScattered {
		// The share locations are unknown until the share map answers,
		// so no data fetch is issued here: the map lookup gates the
		// whole fan-out (a map hit issues the shares this cycle, a miss
		// at the map line's fill).
		rs.macDone = true
		if p.metaAccess(MetaSMap, p.smapLineAddr(localAddr), rs.id, false, now) {
			rs.metaArrived(MetaSMap, hitAt)
			p.issueShares(rs, now)
		}
		return
	}
	// Data fetch.
	dt := p.newToken()
	p.dests.put(dt, dest{readID: rs.id})
	p.dram.Enqueue(dram.Request{Addr: localAddr, Bytes: geometry.SectorSize, Token: dt, Kind: int(KindData)})

	// The counter gates decryption; the MAC is verified in the
	// background under speculative verification.
	switch {
	case protected && sc.Encryption == EncCounter:
		ctrAddr := p.lay.CounterLineAddr(p.lay.CounterLine(localAddr))
		if p.metaAccess(MetaCounter, ctrAddr, rs.id, false, now) {
			rs.metaArrived(MetaCounter, hitAt)
		}
	case protected && sc.Encryption == EncSWCrypto:
		if p.keyAccess(localAddr, rs.id, false, now) {
			rs.metaArrived(MetaKey, hitAt)
		}
	default:
		rs.ctrDone = true
	}
	if protected && sc.MAC {
		if p.metaAccess(MetaMAC, p.lay.MACSectorAddr(localAddr), rs.id, false, now) {
			rs.metaArrived(MetaMAC, hitAt)
		}
	} else {
		rs.macDone = true
	}
	if !protected {
		rs.unprotected = true
	}
	p.maybeReply(rs, now)
}

// --- Metadata access ---

// metaTraffic is the traffic kind DRAM books each metadata kind's line
// fetches under.
var metaTraffic = [numMeta]TrafficKind{
	MetaCounter: KindCounter,
	MetaMAC:     KindMAC,
	MetaTree:    KindTree,
	MetaSMap:    KindSMap,
	MetaKey:     KindKey,
}

// metaAccess is the one path by which the secure engine touches a
// metadata cache: it looks addr up in mk's cache on behalf of read
// readID (0 for write-path and verification accesses, which no read
// waits on), books metaStats and mk's reuse profiler, writes back the
// dirty victim an allocate-on-miss reservation evicts, and on a miss
// fetches the line, whose fill metaFill completes. The writeback is
// enqueued before the fetch. It reports whether the access hit.
func (p *partition) metaAccess(mk MetaKind, addr, readID uint64, write bool, now uint64) bool {
	if r := p.reuse[mk]; r != nil {
		r.Touch(addr / geometry.LineSize)
	}
	ms := &p.metaStats[mk]
	ms.Accesses++
	acc := p.meta[mk].Access(addr, write, readID)
	switch acc.Outcome {
	case cache.Hit:
		return true
	case cache.MissPrimary:
		ms.MissesPrimary++
	default:
		ms.MissesSecondary++
	}
	if acc.Writeback != nil {
		p.handleMetaWriteback(acc.Writeback, now)
	}
	if !acc.NeedFetch {
		return false // merged: the in-flight fetch's fill wakes readID
	}
	d := dest{addr: addr / geometry.LineSize * geometry.LineSize, bypass: acc.Bypass, write: write, issuedAt: now}
	if acc.Bypass {
		// No MSHR tracks the fetch, so the read rides on it.
		d.readID = readID
	}
	p.fetch(mk, d)
	return false
}

// fetch issues the DRAM read of metadata line d.addr as mk's traffic;
// its completion dispatches d to metaFill.
func (p *partition) fetch(mk MetaKind, d dest) {
	d.fill = uint8(mk) + 1
	dt := p.newToken()
	p.dests.put(dt, d)
	p.dram.Enqueue(dram.Request{Addr: d.addr, Bytes: geometry.LineSize, Token: dt, Kind: int(metaTraffic[mk])})
}

// metaArrived records that the read's mk line is available from cycle
// at: the MAC gates verification, every other kind (counter, share
// map, page key) the counter fields.
func (rs *readState) metaArrived(mk MetaKind, at uint64) {
	if mk == MetaMAC {
		rs.macDone, rs.macReady = true, at
	} else {
		rs.ctrDone, rs.ctrReady = true, at
	}
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

// issueShares launches the k-way share fetch once the placement is
// known: the home-address share counts as ordinary data traffic, the
// k-1 scattered shares as KindShare. All shares feed the same data
// fill wait; the last arrival completes the read's data.
func (p *partition) issueShares(rs *readState, now uint64) {
	k := p.cfg.Secure.ScatterShares
	rs.sharesLeft = k
	for i := 0; i < k; i++ {
		addr, kind := rs.localAddr, KindData
		if i > 0 {
			addr, kind = p.shareAddr(rs.localAddr, i), KindShare
		}
		dt := p.newToken()
		p.dests.put(dt, dest{readID: rs.id})
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

// keyAccess models the software driver's lookup of localAddr's page
// key on behalf of read readID (0 for a writeback's encryption) and
// reports whether the key was held. One key-table line is held in a
// register; any other page's key is a full uncached DRAM line read.
// There are no MSHRs — concurrent misses to the same key line each pay
// their own fetch, which is exactly the cost the hardware metadata
// path exists to avoid.
func (p *partition) keyAccess(localAddr, readID uint64, write bool, now uint64) bool {
	keyLine := p.keyLineAddr(localAddr)
	ms := &p.metaStats[MetaKey]
	ms.Accesses++
	if keyLine == p.lastKeyLine {
		return true
	}
	ms.MissesPrimary++
	p.fetch(MetaKey, dest{addr: keyLine, readID: readID, write: write, issuedAt: now})
	return false
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
// so stale IDs in late events simply miss the reads table).
func (p *partition) maybeRetire(rs *readState) {
	if rs.finished && rs.dataDone && rs.ctrDone && rs.macDone {
		p.reads.take(rs.id)
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
		p.metaAccess(MetaSMap, p.smapLineAddr(ev.LineAddr), 0, true, now)
		return
	case EncSWCrypto:
		// Software encryption of each dirty sector, after the driver
		// swaps the page key into its register if it isn't held.
		for b := 0; b < ev.DirtyBytes; b += geometry.SectorSize {
			p.swSchedule(now)
		}
		p.keyAccess(ev.LineAddr, 0, true, now)
		return
	}
	// Encryption occupancy, one AES pass per dirty sector.
	for b := 0; b < ev.DirtyBytes; b += geometry.SectorSize {
		p.aesSchedule(now)
	}
	// Counter increment and MAC update: read-modify-writes of their
	// lines, and without lazy update of each line's tree parent too.
	if sc.Encryption == EncCounter {
		ctrAddr := p.lay.CounterLineAddr(p.lay.CounterLine(ev.LineAddr))
		p.metaAccess(MetaCounter, ctrAddr, 0, true, now)
		if !sc.LazyTreeUpdate {
			p.treeParentAccess(ctrAddr, true, now)
		}
	}
	if sc.MAC {
		for b := 0; b < ev.DirtyBytes; b += geometry.SectorSize {
			p.macSchedule(now)
		}
		macAddr := p.lay.MACSectorAddr(ev.LineAddr)
		p.metaAccess(MetaMAC, macAddr, 0, true, now)
		if !sc.LazyTreeUpdate {
			p.treeParentAccess(macAddr, true, now)
		}
	}
}

// handleMetaWriteback processes a dirty metadata-cache eviction: the
// DRAM writeback plus, under lazy update, the parent update it
// triggers.
func (p *partition) handleMetaWriteback(ev *cache.Eviction, now uint64) {
	p.dram.Enqueue(dram.Request{Addr: ev.LineAddr, Bytes: ev.DirtyBytes, Write: true, Kind: int(KindWB)})
	if p.cfg.Secure.LazyTreeUpdate {
		p.treeParentAccess(ev.LineAddr, true, now)
	}
}

// treeParentAccess accesses the tree node one level above metadata
// line addr: an update on the write path, a verification step
// otherwise. The integrity tree covers counter lines under the BMT, MAC
// lines under the MT, and its own nodes; the root's hash sits in an
// on-chip register, so a level-0 node has no parent to touch. A
// verification walk climbs one level per fill: a hit ends it (cached
// implies verified), a miss continues it when the node returns
// (metaFill), a merge rides on the in-flight fetch's walk.
func (p *partition) treeParentAccess(addr uint64, write bool, now uint64) {
	sc := &p.cfg.Secure
	if !sc.Tree {
		return
	}
	var level int
	var idx uint64
	switch p.lay.RegionOf(addr) {
	case geometry.RegionCounter:
		level, idx, _ = p.lay.LeafParent((addr - p.lay.CounterBase) / geometry.LineSize)
	case geometry.RegionMAC:
		if sc.Encryption != EncDirect {
			return
		}
		level, idx, _ = p.lay.LeafParent((addr - p.lay.MACBase) / geometry.LineSize)
	case geometry.RegionTree:
		var ok bool
		if level, idx, _, ok = p.lay.Parent(p.lay.NodeByAddr(addr)); !ok {
			return
		}
	default:
		return
	}
	p.metaAccess(MetaTree, p.lay.TreeNodeAddr(level, idx), 0, write, now)
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
		if rs, ok := p.reads.get(ev.readID); ok {
			p.finishRead(rs, now)
		}
	}
	for _, tok := range p.dram.Tick(now) {
		if d, ok := p.dests.take(tok); ok {
			p.dispatch(d, now)
		}
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
	if d.fill != 0 {
		p.metaFill(d, now)
		return
	}
	rs, ok := p.reads.get(d.readID)
	if !ok {
		return
	}
	// A flipped data line is caught only by a MAC over a protected
	// address; decryption alone scrambles silently.
	p.fire(faults.SiteDRAMData, rs.localAddr, p.cfg.Secure.MAC && !rs.unprotected)
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

// metaFill completes every metadata line fetch: the fault plan's shots
// at the returning line, its probe span, the cache fill and any dirty
// victim, the reads waiting on the line, and the next step of the
// verification walk.
func (p *partition) metaFill(d dest, now uint64) {
	mk := MetaKind(d.fill - 1)
	p.injectMeta(d.addr, p.covered(mk))
	if p.gpu.probe != nil {
		p.recordMetaSpan(d, metaTraffic[mk], now)
	}
	var tokens []uint64
	if mk == MetaKey {
		// The driver's register holds this key line from the fill cycle
		// on. Updating at fill (not issue) time means concurrent misses
		// on the same line each pay their own fetch — the software path
		// has no MSHRs to merge them.
		p.lastKeyLine = d.addr
	} else {
		fill := p.meta[mk].Fill(d.addr, d.bypass, d.write)
		if fill.Writeback != nil {
			p.handleMetaWriteback(fill.Writeback, now)
		}
		tokens = fill.Tokens
	}
	// Wake the reads waiting on the line: the MSHR's merged tokens,
	// then the one read an untracked fetch (a bypass miss, or any key
	// read) carries itself. Write-path and tree fetches carry none.
	for _, tok := range tokens {
		p.wakeMetaWaiter(mk, tok, now)
	}
	if d.bypass || mk == MetaKey {
		p.wakeMetaWaiter(mk, d.readID, now)
	}
	p.treeParentAccess(d.addr, false, now)
}

// covered reports whether the configured protection level detects a
// flipped mk line. A flipped MAC always miscompares against the
// recomputed one, and a flipped tree node fails its parent's hash
// check. A corrupt counter fails the tree check directly, or the
// (stateful) MAC check indirectly via the wrong OTP. The share map and
// a page key have nothing to miscompare against: their flips land
// silently.
func (p *partition) covered(mk MetaKind) bool {
	switch mk {
	case MetaCounter:
		return p.cfg.Secure.Tree || p.cfg.Secure.MAC
	case MetaSMap, MetaKey:
		return false
	}
	return true
}

// wakeMetaWaiter hands a filled metadata line to read readID, if it is
// still live.
func (p *partition) wakeMetaWaiter(mk MetaKind, readID, now uint64) {
	rs, ok := p.reads.get(readID)
	if !ok {
		return
	}
	rs.metaArrived(mk, now)
	if mk == MetaSMap {
		// The placement just became known: release the share fan-out
		// (the reply waits on the shares, not here).
		p.issueShares(rs, now)
	} else {
		p.maybeReply(rs, now)
	}
}
