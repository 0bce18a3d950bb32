package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"gpusecmem/internal/cache"
	"gpusecmem/internal/dram"
	"gpusecmem/internal/faults"
	"gpusecmem/internal/probe"
	"gpusecmem/internal/statecodec"
	"gpusecmem/internal/stats"
	"gpusecmem/internal/trace"
)

func newGPU(t *testing.T, cfg Config, bench string) *GPU {
	t.Helper()
	gen, err := trace.New(bench)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// captureAt runs cfg/bench with a checkpoint sink armed at `every` and
// returns the encoded snapshots in fire order.
func captureAt(t *testing.T, cfg Config, bench string, every uint64) [][]byte {
	t.Helper()
	g := newGPU(t, cfg, bench)
	var states [][]byte
	g.SetCheckpoint(every, func(cycle uint64, state []byte) {
		states = append(states, state)
	})
	if _, err := g.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	return states
}

// restored returns a fresh cfg/bench machine restored from state b.
func restored(t *testing.T, cfg Config, bench string, b []byte) *GPU {
	t.Helper()
	g := newGPU(t, cfg, bench)
	if err := g.Restore(b); err != nil {
		t.Fatal(err)
	}
	return g
}

// refuses requires Restore to refuse state b on a fresh cfg/bench
// machine with an error that mentions want.
func refuses(t *testing.T, cfg Config, bench string, b []byte, want string) {
	t.Helper()
	err := newGPU(t, cfg, bench).Restore(b)
	switch {
	case err == nil:
		t.Fatal("restored a forged state")
	case !strings.Contains(err.Error(), want):
		t.Fatalf("refused for the wrong reason: %v (want %q)", err, want)
	}
}

// uv is v's uvarint encoding; iv is v's zigzag varint encoding.
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }
func iv(v int64) []byte  { return binary.AppendVarint(nil, v) }

// wrapped is the gap a duplicated key wraps to, 2^64-1: what an
// encoder that did not check key order would write for it.
var wrapped = uv(math.MaxUint64)

// span is one field's or element's byte range in an encoding.
type span struct{ at, end int }

// splice returns b with s replaced by repl.
func splice(b []byte, s span, repl ...[]byte) []byte {
	out := slices.Clip(b[:s.at])
	for _, r := range repl {
		out = append(out, r...)
	}
	return append(out, b[s.end:]...)
}

// keyed is a gap-coded list in an encoding: its length field, then each
// element's span and the span and value of the element's key.
type keyed struct {
	count      span
	elems, key []span
	keys       []uint64
}

// dupFirst returns b with the list's first element repeated right
// after itself, its key written as the wrapped gap.
func (l keyed) dupFirst(b []byte) []byte {
	e, k := l.elems[0], l.key[0]
	return splice(b, span{l.count.at, e.end},
		uv(uint64(len(l.elems)+1)), b[l.count.end:e.end], wrapped, b[k.end:e.end])
}

// parser walks a standalone component encoding field by field,
// recording where each field lies.
type parser struct {
	d    *statecodec.Codec
	base int // the encoding's offset in the full state, less its header
}

// standalone encodes one component's walk alone and finds that
// encoding in the full state b. Any occurrence will do: identical
// bytes are an identical component state.
func standalone(b []byte, walk func(*statecodec.Codec)) (*parser, error) {
	e := statecodec.NewEncoder("", 0)
	walk(e)
	enc, err := e.Finish()
	if err != nil {
		return nil, err
	}
	at := bytes.Index(b, enc[1:])
	if at < 0 {
		return nil, errors.New("component encoding not found in the state")
	}
	return &parser{d: statecodec.NewDecoder(enc, "", 0), base: at - 1}, nil
}

func (p *parser) field(walk func(d *statecodec.Codec)) span {
	at := p.d.Offset()
	walk(p.d)
	return span{p.base + at, p.base + p.d.Offset()}
}

func (p *parser) u64() span {
	var v uint64
	return p.field(func(d *statecodec.Codec) { d.U64(&v) })
}

func (p *parser) int() (span, int) {
	var v int
	return p.field(func(d *statecodec.Codec) { d.Int(&v) }), v
}

// skip passes over n raw bytes: bools, flag bytes, rrpv.
func (p *parser) skip(n int) {
	p.field(func(d *statecodec.Codec) {
		var b byte
		for range n {
			d.Byte(&b)
		}
	})
}

// list parses a gap-coded list whose elements are a key followed by
// rest's fields.
func (p *parser) list(rest func()) keyed {
	var l keyed
	n := 0
	l.count = p.field(func(d *statecodec.Codec) { d.Len(&n, 1) })
	var ks statecodec.KeySeq
	for range n {
		var k uint64
		at := p.d.Offset()
		l.key = append(l.key, p.field(func(d *statecodec.Codec) { d.Key(&ks, &k) }))
		rest()
		l.keys = append(l.keys, k)
		l.elems = append(l.elems, span{p.base + at, p.base + p.d.Offset()})
	}
	return l
}

// cacheFields are a cache's shape and gap-coded lists in a state.
type cacheFields struct {
	numSets, assoc    span
	sets, ways        int
	lines, dir, mshrs keyed
}

// parseCache locates c's fields in the full state b.
func parseCache(b []byte, c *cache.Cache) (*cacheFields, error) {
	p, err := standalone(b, c.Walk)
	if err != nil {
		return nil, err
	}
	var f cacheFields
	f.numSets, f.sets = p.int()
	f.assoc, f.ways = p.int()
	f.lines = p.list(func() { p.u64(); p.skip(1); p.u64(); p.skip(2) }) // tag, valid, lastUse, rrpv, sectors
	f.dir = p.list(func() { p.skip(1); p.u64(); p.skip(2) })
	p.u64() // seq
	f.mshrs = p.list(func() {
		p.skip(1) // sectors
		for range cache.SectorsPerLine {
			var toks []uint64
			p.field(func(d *statecodec.Codec) { d.U64s(&toks) })
		}
		p.int()
	})
	return &f, p.d.Err()
}

// allCaches lists g's caches: L1s, then each partition's L2 banks and
// metadata caches.
func allCaches(g *GPU) []*cache.Cache {
	all := slices.Clone(g.l1s)
	for _, p := range g.parts {
		all = append(append(all, p.banks...), p.metaCaches()...)
	}
	return all
}

// forgeCache encodes g and splices the fields of its first cache that
// satisfies ok.
func forgeCache(g *GPU, ok func(*cacheFields) bool, forge func(b []byte, f *cacheFields) []byte) ([]byte, error) {
	b, err := g.Snapshot()
	if err != nil {
		return nil, err
	}
	for _, c := range allCaches(g) {
		f, err := parseCache(b, c)
		if err != nil {
			return nil, err
		}
		if ok(f) {
			return forge(b, f), nil
		}
	}
	return nil, errNothingToForge
}

func withLines(n int) func(*cacheFields) bool {
	return func(f *cacheFields) bool { return len(f.lines.elems) >= n }
}

// val is the uvarint at s in b.
func val(b []byte, s span) uint64 {
	v, _ := binary.Uvarint(b[s.at:s.end])
	return v
}

// listed is a plain list in an encoding: its length field, then each
// element's span.
type listed struct {
	count span
	elems []span
}

// dupFirst returns b with the list's first element repeated right
// after itself.
func (l listed) dupFirst(b []byte) []byte {
	e := l.elems[0]
	return splice(b, span{l.count.at, e.end}, uv(uint64(len(l.elems)+1)), b[l.count.end:e.end], b[e.at:e.end])
}

// plain parses a list whose elements elem walks.
func (p *parser) plain(elem func()) listed {
	var l listed
	n := 0
	l.count = p.field(func(d *statecodec.Codec) { d.Len(&n, 1) })
	for range n {
		at := p.d.Offset()
		elem()
		l.elems = append(l.elems, span{p.base + at, p.base + p.d.Offset()})
	}
	return l
}

// tailSection locates the instrument sections that end state b: walk
// encodes them alone, and they must be b's last bytes.
func tailSection(b []byte, walk func(*statecodec.Codec)) (*parser, error) {
	e := statecodec.NewEncoder("", 0)
	walk(e)
	enc, err := e.Finish()
	if err != nil {
		return nil, err
	}
	if !bytes.HasSuffix(b, enc[1:]) {
		return nil, errors.New("the instrument sections do not end the state")
	}
	return &parser{d: statecodec.NewDecoder(enc, "", 0), base: len(b) - len(enc)}, nil
}

// reuseFields are a reuse profiler's fields in a state: its buckets,
// counts and access history.
type reuseFields struct {
	hist        []span
	cold, total span
	history     keyed
}

// rank is history entry i's rank.
func (f *reuseFields) rank(i int) span {
	return span{f.history.key[i].end, f.history.elems[i].end}
}

// forgeReuse encodes g and splices the fields of partition 0's counter
// reuse profiler, once its history holds two lines.
func forgeReuse(g *GPU, forge func(b []byte, f *reuseFields) []byte) ([]byte, error) {
	r := g.parts[0].reuse[MetaCounter]
	if r == nil {
		return nil, errNothingToForge
	}
	b, err := g.Snapshot()
	if err != nil {
		return nil, err
	}
	p, err := standalone(b, r.Walk)
	if err != nil {
		return nil, err
	}
	var f reuseFields
	p.u64() // the bucket count
	for range stats.ReuseBuckets {
		f.hist = append(f.hist, p.u64())
	}
	f.cold, f.total = p.u64(), p.u64()
	f.history = p.list(func() { p.u64() })
	if err := p.d.Err(); err != nil {
		return nil, err
	}
	if len(f.history.elems) < 2 {
		return nil, errNothingToForge
	}
	return forge(b, &f), nil
}

// forgeFaults encodes g and splices its injector's per-site
// opportunity and injection counts, which follow the partitions.
func forgeFaults(g *GPU, forge func(b []byte, events, injected []span) []byte) ([]byte, error) {
	if g.inj == nil {
		return nil, errNothingToForge
	}
	b, err := g.Snapshot()
	if err != nil {
		return nil, err
	}
	p, err := tailSection(b, func(c *statecodec.Codec) {
		g.inj.Walk(c)
		if g.probe != nil {
			g.probe.Walk(c, g.now)
		}
	})
	if err != nil {
		return nil, err
	}
	var events, injected []span
	for _, out := range []*[]span{&events, &injected} {
		p.u64() // the site count
		for range faults.NumSites {
			*out = append(*out, p.u64())
		}
	}
	if err := p.d.Err(); err != nil {
		return nil, err
	}
	return forge(b, events, injected), nil
}

// probeFields are the probe's fields in a state: the span count, the
// trace records and the timeline samples.
type probeFields struct {
	spans            span
	records, samples listed
}

// cycle is timeline sample i's cycle, its first field.
func (f *probeFields) cycle(b []byte, i int) span {
	e := f.samples.elems[i]
	_, n := binary.Uvarint(b[e.at:e.end])
	return span{e.at, e.at + n}
}

// forgeProbe encodes g and splices its probe's fields, which end the
// state. A nil forge result means the state holds nothing to forge.
func forgeProbe(g *GPU, forge func(b []byte, f *probeFields) []byte) ([]byte, error) {
	if g.probe == nil || g.probe.Spans == nil || g.probe.Timeline == nil {
		return nil, errNothingToForge
	}
	b, err := g.Snapshot()
	if err != nil {
		return nil, err
	}
	p, err := tailSection(b, func(c *statecodec.Codec) { g.probe.Walk(c, g.now) })
	if err != nil {
		return nil, err
	}
	var f probeFields
	hist := func() {
		for range len(probe.Hist{}.Buckets) + 4 { // bucket count, buckets, count, sum, max
			p.u64()
		}
	}
	kinds := 0
	p.field(func(d *statecodec.Codec) { d.Len(&kinds, 1) })
	for range kinds {
		for range probe.NumStages + 1 { // latency, then each stage
			hist()
		}
		for range probe.NumStages + 1 { // stage count, stage cycles
			p.u64()
		}
	}
	f.spans = p.u64()
	p.u64() // unbalanced
	p.u64() // dropped
	f.records = p.plain(func() {
		// The kind byte, then part, start and the stages.
		p.skip(1)
		for range probe.NumStages + 2 {
			p.u64()
		}
	})
	f.samples = p.plain(func() {
		p.field(func(d *statecodec.Codec) {
			var s probe.Sample
			s.Walk(d)
		})
	})
	if err := p.d.Err(); err != nil {
		return nil, err
	}
	if len(f.records.elems) == 0 || len(f.samples.elems) == 0 {
		return nil, errNothingToForge
	}
	out := forge(b, &f)
	if out == nil {
		return nil, errNothingToForge
	}
	return out, nil
}

// errNothingToForge is a forgery's answer for a state that holds
// nothing it could forge.
var errNothingToForge = errors.New("the state holds nothing to forge")

// marker is an improbable value planted in a tampered field so the
// field can be found in the encoding.
const marker = 0x5eedf00dcafe

// plantAfterFirst encodes g with a marked element added to one of its
// token-keyed maps right after that map's first key, and returns the
// state with the new element's key spliced to the wrapped gap: a
// duplicate of the first key. back is how far the new element's key
// byte lies before the marker.
func plantAfterFirst(g *GPU, plant func(p *partition) bool, back int) ([]byte, error) {
	for _, p := range g.parts {
		if !plant(p) {
			continue
		}
		b, err := g.Snapshot()
		if err != nil {
			return nil, err
		}
		at := bytes.Index(b, uv(marker))
		if at < back || b[at-back] != 0 {
			return nil, errors.New("planted element not found")
		}
		return splice(b, span{at - back, at - back + 1}, wrapped), nil
	}
	return nil, errNothingToForge
}

// zeroFirstToken encodes g with a marked element planted as the first
// entry of one of its partitions' token tables, one below that table's
// lowest token, and returns the state with the element's key (the
// first gap, which is the token itself) spliced to 0. Each later key
// is gap-coded from its predecessor, so the state stays well formed
// and only the reserved token is wrong. back is how many bytes lie
// between the key and the marker.
func zeroFirstToken(g *GPU, plant func(p *partition) (uint64, bool), back int) ([]byte, error) {
	for _, p := range g.parts {
		tok, ok := plant(p)
		if !ok {
			continue
		}
		b, err := g.Snapshot()
		if err != nil {
			return nil, err
		}
		at := bytes.Index(b, uv(marker)) - back
		key := span{at - len(uv(tok)), at}
		if key.at < 0 || !bytes.Equal(b[key.at:key.end], uv(tok)) {
			return nil, errors.New("planted element not found")
		}
		return splice(b, key, uv(0)), nil
	}
	return nil, errNothingToForge
}

// plantToken encodes g with an element added to one of its partitions'
// token tables under the token tok(p) names. A live machine never
// holds the token, yet the encoding is well formed.
func plantToken(g *GPU, plant func(p *partition, tok uint64), tok func(p *partition) uint64) ([]byte, error) {
	p := g.parts[0]
	plant(p, tok(p))
	return g.Snapshot()
}

// loadsList locates the GPU's loads in state b: they follow the
// benchmark name and five counters.
func loadsList(b []byte) keyed {
	d := statecodec.NewDecoder(b, stateMagic, StateVersion)
	var name string
	d.String(&name)
	for range 5 {
		var u uint64
		d.U64(&u)
	}
	p := &parser{d: d}
	return p.list(func() { p.int(); p.int(); p.skip(1) })
}

// forgery turns a real mid-run state into one no machine may restore:
// forge tampers g, a live machine restored from that state, and returns
// its encoding, spliced at the byte level where the forged form is one
// no live machine can hold (a duplicated key, a listed zero way). It
// returns errNothingToForge when the state holds nothing to forge.
// want is a fragment of the error Restore must refuse the result with.
type forgery struct {
	name  string
	forge func(g *GPU) ([]byte, error)
	want  string
}

// stateForgeries are the duplicate keys, unordered keys and impossible
// tag arrays that checkpoint restore must refuse. A forged duplicate
// once restored silently, into a machine holding one load fewer than
// its state listed.
var stateForgeries = []forgery{
	{name: "duplicate-load", want: "overflows", forge: func(g *GPU) ([]byte, error) {
		if g.loads.len() == 0 {
			return nil, errNothingToForge
		}
		b, err := g.Snapshot()
		if err != nil {
			return nil, err
		}
		return loadsList(b).dupFirst(b), nil
	}},
	{name: "unordered-loads", want: "overflows", forge: func(g *GPU) ([]byte, error) {
		if g.loads.len() < 2 {
			return nil, errNothingToForge
		}
		b, err := g.Snapshot()
		if err != nil {
			return nil, err
		}
		l := loadsList(b)
		k0, k1 := l.keys[0], l.keys[1]
		e0, e1 := l.elems[0], l.elems[1]
		return splice(b, span{e0.at, e1.end},
			uv(k1), b[l.key[1].end:e1.end], uv(k0-k1-1), b[l.key[0].end:e0.end]), nil
	}},
	{name: "duplicate-dest", want: "overflows", forge: func(g *GPU) ([]byte, error) {
		// The planted dest's key gap and kind are zero bytes before
		// its marked address.
		return plantAfterFirst(g, func(p *partition) bool {
			if p.dests.len() == 0 {
				return false
			}
			k := p.dests.sortedKeys(nil)[0] + 1
			if _, taken := p.dests.get(k); taken {
				return false
			}
			p.dests.put(k, dest{addr: marker})
			return true
		}, 2)
	}},
	{name: "duplicate-read", want: "overflows", forge: func(g *GPU) ([]byte, error) {
		return plantAfterFirst(g, func(p *partition) bool {
			if p.reads.len() == 0 {
				return false
			}
			k := p.reads.sortedKeys(nil)[0] + 1
			if _, taken := p.reads.get(k); taken {
				return false
			}
			p.reads.put(k, &readState{id: k, globalAddr: marker})
			return true
		}, 1)
	}},
	// Token 0 is every table's empty-slot mark and the wake paths' "no
	// waiter" sentinel; a key sequence may start at 0, but no counter
	// issues it.
	{name: "zero-load-token", want: "token 0 is reserved", forge: func(g *GPU) ([]byte, error) {
		if g.loads.len() == 0 {
			return nil, errNothingToForge
		}
		b, err := g.Snapshot()
		if err != nil {
			return nil, err
		}
		return splice(b, loadsList(b).key[0], uv(0)), nil
	}},
	{name: "zero-dest-token", want: "token 0 is reserved", forge: func(g *GPU) ([]byte, error) {
		// The planted dest's kind is a zero byte before its marked
		// address.
		return zeroFirstToken(g, func(p *partition) (uint64, bool) {
			if p.dests.len() == 0 {
				return 0, false
			}
			k := p.dests.sortedKeys(nil)[0] - 1
			p.dests.put(k, dest{addr: marker})
			return k, true
		}, 1)
	}},
	{name: "zero-read-token", want: "token 0 is reserved", forge: func(g *GPU) ([]byte, error) {
		return zeroFirstToken(g, func(p *partition) (uint64, bool) {
			if p.reads.len() == 0 {
				return 0, false
			}
			k := p.reads.sortedKeys(nil)[0] - 1
			p.reads.put(k, &readState{id: k, globalAddr: marker})
			return k, true
		}, 0)
	}},
	// Partition tokens are (partition id + 1) << 40 | a local count no
	// higher than localTok.
	{name: "foreign-dest-token", want: "not issued by this partition", forge: func(g *GPU) ([]byte, error) {
		return plantToken(g, func(p *partition, tok uint64) { p.dests.put(tok, dest{}) },
			func(p *partition) uint64 { return uint64(p.id+2)<<40 | 1 })
	}},
	{name: "unissued-read-token", want: "was never issued", forge: func(g *GPU) ([]byte, error) {
		return plantToken(g, func(p *partition, tok uint64) { p.reads.put(tok, &readState{id: tok}) },
			func(p *partition) uint64 { return uint64(p.id+1)<<40 | (p.localTok + 1) })
	}},
	{name: "duplicate-mshr", want: "overflows", forge: func(g *GPU) ([]byte, error) {
		return forgeCache(g, func(f *cacheFields) bool { return len(f.mshrs.elems) > 0 },
			func(b []byte, f *cacheFields) []byte { return f.mshrs.dupFirst(b) })
	}},
	{name: "duplicate-dir-tag", want: "overflows", forge: func(g *GPU) ([]byte, error) {
		return forgeCache(g, func(f *cacheFields) bool { return len(f.dir.elems) > 0 },
			func(b []byte, f *cacheFields) []byte { return f.dir.dupFirst(b) })
	}},
	{name: "listed-zero-way", want: "zero way", forge: func(g *GPU) ([]byte, error) {
		return forgeCache(g, withLines(1), func(b []byte, f *cacheFields) []byte {
			// tag, valid, lastUse, rrpv and sectors all zero.
			return splice(b, span{f.lines.key[0].end, f.lines.elems[0].end}, make([]byte, 5))
		})
	}},
	{name: "line-index-past-end", want: "outside the", forge: func(g *GPU) ([]byte, error) {
		return forgeCache(g, withLines(1), func(b []byte, f *cacheFields) []byte {
			last := len(f.lines.keys) - 1
			next := uint64(0)
			if last > 0 {
				next = f.lines.keys[last-1] + 1
			}
			return splice(b, f.lines.key[last], uv(uint64(f.sets*f.ways)-next))
		})
	}},
	{name: "line-index-repeated", want: "overflows", forge: func(g *GPU) ([]byte, error) {
		return forgeCache(g, withLines(2), func(b []byte, f *cacheFields) []byte {
			return splice(b, f.lines.key[1], wrapped)
		})
	}},
	{name: "negative-shape", want: "sets of", forge: func(g *GPU) ([]byte, error) {
		return forgeCache(g, withLines(1), func(b []byte, f *cacheFields) []byte {
			// A positive product.
			return splice(b, span{f.numSets.at, f.assoc.end}, iv(-int64(f.sets)), iv(-int64(f.ways)))
		})
	}},
	{name: "shape-mismatch", want: "sets of", forge: func(g *GPU) ([]byte, error) {
		return forgeCache(g, withLines(1), func(b []byte, f *cacheFields) []byte {
			return splice(b, f.numSets, iv(2*int64(f.sets)))
		})
	}},
	{name: "directory-beside-tag-array", want: "keeps none", forge: func(g *GPU) ([]byte, error) {
		return forgeCache(g, withLines(1), func(b []byte, f *cacheFields) []byte {
			// One valid directory line: tag 0, valid, lastUse, rrpv
			// and sectors.
			return splice(b, f.dir.count, uv(1), []byte{0, 1, 0, 0, 0})
		})
	}},
	// Instrument sections, each checked against the instrument it
	// fills.
	{name: "reuse-bucket-sum", want: "reuse buckets and cold touches sum", forge: func(g *GPU) ([]byte, error) {
		return forgeReuse(g, func(b []byte, f *reuseFields) []byte {
			return splice(b, f.hist[0], uv(val(b, f.hist[0])+1))
		})
	}},
	{name: "reuse-history-short", want: "cold touches", forge: func(g *GPU) ([]byte, error) {
		return forgeReuse(g, func(b []byte, f *reuseFields) []byte {
			l := f.history
			n := len(l.elems)
			return splice(splice(b, l.elems[n-1]), l.count, uv(uint64(n-1)))
		})
	}},
	{name: "reuse-rank-repeated", want: "twice", forge: func(g *GPU) ([]byte, error) {
		return forgeReuse(g, func(b []byte, f *reuseFields) []byte {
			return splice(b, f.rank(1), b[f.rank(0).at:f.rank(0).end])
		})
	}},
	{name: "reuse-rank-out-of-range", want: "outside 1..", forge: func(g *GPU) ([]byte, error) {
		return forgeReuse(g, func(b []byte, f *reuseFields) []byte {
			return splice(b, f.rank(0), uv(uint64(len(f.history.elems)+1)))
		})
	}},
	{name: "reuse-total-off-cache", want: "reuse profiler counts", forge: func(g *GPU) ([]byte, error) {
		// One more access in both the buckets and the total: the
		// profiler is consistent, but its cache saw one access fewer.
		return forgeReuse(g, func(b []byte, f *reuseFields) []byte {
			b = splice(b, f.total, uv(val(b, f.total)+1))
			return splice(b, f.hist[0], uv(val(b, f.hist[0])+1))
		})
	}},
	{name: "fault-injections-past-opportunities", want: "injections at fault site", forge: func(g *GPU) ([]byte, error) {
		return forgeFaults(g, func(b []byte, events, injected []span) []byte {
			s := faults.SiteDRAMData
			return splice(b, injected[s], uv(val(b, events[s])+1))
		})
	}},
	{name: "fault-site-off-plan", want: "does not attack", forge: func(g *GPU) ([]byte, error) {
		return forgeFaults(g, func(b []byte, events, _ []span) []byte {
			return splice(b, events[faults.SiteIcntDrop], uv(1))
		})
	}},
	{name: "span-kind-counts", want: "per-kind span counts", forge: func(g *GPU) ([]byte, error) {
		return forgeProbe(g, func(b []byte, f *probeFields) []byte {
			return splice(b, f.spans, uv(val(b, f.spans)+1))
		})
	}},
	{name: "trace-past-cap", want: "the trace cap", forge: func(g *GPU) ([]byte, error) {
		return forgeProbe(g, func(b []byte, f *probeFields) []byte {
			return f.records.dupFirst(b)
		})
	}},
	{name: "timeline-past-capacity", want: "the ring holds", forge: func(g *GPU) ([]byte, error) {
		return forgeProbe(g, func(b []byte, f *probeFields) []byte {
			return f.samples.dupFirst(b)
		})
	}},
	{name: "timeline-unordered", want: "does not follow", forge: func(g *GPU) ([]byte, error) {
		return forgeProbe(g, func(b []byte, f *probeFields) []byte {
			if len(f.samples.elems) < 2 {
				return nil
			}
			return splice(b, f.cycle(b, 1), b[f.cycle(b, 0).at:f.cycle(b, 0).end])
		})
	}},
	{name: "timeline-sample-ahead", want: "after the machine's cycle", forge: func(g *GPU) ([]byte, error) {
		return forgeProbe(g, func(b []byte, f *probeFields) []byte {
			last := len(f.samples.elems) - 1
			return splice(b, f.cycle(b, last), uv(g.now+1))
		})
	}},
}

// forgeryBase is the state the forgery tables forge: SecureMem on
// srad_v2 at 600 of 1000 cycles, with unlimited metadata caches so its
// partitions carry directories beside the L1 and L2 tag arrays, and
// every instrument on: reuse profiling, bit flips (no drops or
// duplicates, so the interconnect sites stay outside the plan), and
// probes whose trace has dropped records and whose timeline ring has
// wrapped. None of them changes the machine's state.
func forgeryBase(t *testing.T) (Config, []byte) {
	t.Helper()
	cfg := SecureMem()
	cfg.MaxCycles = 1000
	cfg.Secure.UnlimitedMeta = true
	cfg.ProfileReuse = true
	cfg.Faults = &faults.Plan{Seed: 7, Rate: 0.01, Sites: faults.FlipSites}
	cfg.Probe = &probe.Config{Spans: true, Trace: true, TraceCap: 16, TimelineInterval: 50, TimelineCap: 4}
	return cfg, captureAt(t, cfg, "srad_v2", 600)[0]
}

// forged applies f to a machine restored from b, failing the test if
// the state holds nothing for f to forge.
func forged(t *testing.T, cfg Config, b []byte, f forgery) []byte {
	t.Helper()
	out, err := f.forge(restored(t, cfg, "srad_v2", b))
	if err != nil {
		t.Fatalf("%s: %v", f.name, err)
	}
	return out
}

// Each forgery must be refused, for the reason the table names.
func TestDecodeStateRejectsForgeries(t *testing.T) {
	cfg, b := forgeryBase(t)
	for _, f := range stateForgeries {
		t.Run(f.name, func(t *testing.T) {
			refuses(t, cfg, "srad_v2", forged(t, cfg, b, f), f.want)
		})
	}
}

// smFields locates SM 0's scheduler fields in the full state b: each
// warp's phase, compute count and outstanding count, and the greedy
// pointer.
type smFields struct {
	phase, computeLeft, outstanding []span
	greedy                          span
}

func parseSM0(g *GPU, b []byte) (*smFields, error) {
	p, err := standalone(b, g.sms[0].Walk)
	if err != nil {
		return nil, err
	}
	var f smFields
	n := 0
	p.field(func(d *statecodec.Codec) { d.Len(&n, 1) })
	for range n {
		p.int() // iter
		p.int() // compute instructions
		p.int() // compute spacing
		var sectors []uint64
		p.field(func(d *statecodec.Codec) { d.U64s(&sectors) })
		p.skip(1) // write
		p.int()   // active lanes
		s, _ := p.int()
		f.phase = append(f.phase, s)
		s, _ = p.int()
		f.computeLeft = append(f.computeLeft, s)
		p.u64() // readyAt
		s, _ = p.int()
		f.outstanding = append(f.outstanding, s)
		p.u64() // lastIssued
	}
	f.greedy, _ = p.int()
	return &f, p.d.Err()
}

// Restore must reject snapshots from other machines rather than
// installing mismatched state.
func TestRestoreRejectsMismatches(t *testing.T) {
	cfg := SecureMem()
	cfg.MaxCycles = 2000
	states := captureAt(t, cfg, "nw", 1000)
	b := states[0]

	t.Run("wrong-benchmark", func(t *testing.T) {
		refuses(t, cfg, "lbm", b, "benchmark")
	})
	t.Run("wrong-config-shape", func(t *testing.T) {
		base := Baseline()
		base.MaxCycles = 2000
		if err := newGPU(t, base, "nw").Restore(b); err == nil {
			t.Fatal("restored a secure-memory snapshot into a baseline machine")
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		bad := bytes.Clone(b)
		bad[len(stateMagic)] = StateVersion + 1
		refuses(t, cfg, "nw", bad, "version")
	})
	// Scheduler state no SM can reach. Each of these once restored
	// cleanly and then panicked the run: an index out of range, or a
	// completion for a warp that is not blocked.
	const phaseCompute, phaseBlocked = 0, 2 // smcore's warp phases
	sm := restored(t, cfg, "nw", b)
	f, err := parseSM0(sm, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.phase) == 0 {
		t.Fatal("SM 0 has no warps to forge")
	}
	// setWarps writes phase and outstanding count of warps 0..n-1,
	// last first so earlier spans stay put.
	setWarps := func(n int, phase, outstanding int64) []byte {
		out := b
		for w := n - 1; w >= 0; w-- {
			out = splice(out, f.outstanding[w], iv(outstanding))
			out = splice(out, f.phase[w], iv(phase))
		}
		return out
	}
	for _, c := range []struct {
		name, want string
		forged     []byte
	}{
		{"sm-greedy-negative", "greedy", splice(b, f.greedy, iv(-1))},
		{"sm-greedy-past-end", "greedy", splice(b, f.greedy, iv(int64(len(f.phase)+1)))},
		{"sm-unknown-phase", "unknown phase", splice(b, f.phase[0], iv(7))},
		{"sm-negative-compute", "negative compute", splice(b, f.computeLeft[0], iv(-1))},
		{"sm-blocked-without-loads", "outstanding loads", setWarps(len(f.phase), phaseBlocked, 0)},
		{"sm-loads-while-ready", "outstanding loads", setWarps(1, phaseCompute, 1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			refuses(t, cfg, "nw", c.forged, c.want)
		})
	}
	// Duplicate or unordered keys and impossible tag arrays.
	ucfg, ub := forgeryBase(t)
	for _, f := range stateForgeries {
		t.Run(f.name, func(t *testing.T) {
			if err := newGPU(t, ucfg, "srad_v2").Restore(forged(t, ucfg, ub, f)); err == nil {
				t.Fatalf("restored a state with a %s", f.name)
			}
		})
	}
}

// Fields a live machine can hold but never reaches, each of which once
// passed restore and then panicked the resumed run (an index out of
// range), was silently dropped (an unknown DRAM transaction kind) or
// left loads and warps out of step. Restore must refuse every one,
// checked against the machine it fills.
func TestRestoreRefusesStatesThatPanic(t *testing.T) {
	cfg := SecureMem()
	cfg.MaxCycles = 1500
	b := captureAt(t, cfg, "srad_v2", 1000)[0]
	firstRead := func(g *GPU) *readState {
		for _, p := range g.parts {
			if keys := p.reads.sortedKeys(nil); len(keys) > 0 {
				rs, _ := p.reads.get(keys[0])
				return rs
			}
		}
		t.Fatal("no in-flight read to tamper")
		return nil
	}
	firstLoad := func(g *GPU) uint64 {
		if keys := g.loads.sortedKeys(nil); len(keys) > 0 {
			return keys[0]
		}
		t.Fatal("no outstanding load to tamper")
		return 0
	}
	for _, c := range []struct {
		name, want string
		tamper     func(g *GPU)
	}{
		{"read-l2-bank", "L2 bank", func(g *GPU) { firstRead(g).l2Bank = 99 }},
		{"load-sm", "is for SM", func(g *GPU) {
			tok := firstLoad(g)
			lr, _ := g.loads.get(tok)
			lr.sm = 1000
			g.loads.put(tok, lr)
		}},
		{"load-warp", "is for SM", func(g *GPU) {
			tok := firstLoad(g)
			lr, _ := g.loads.get(tok)
			lr.warp = -1
			g.loads.put(tok, lr)
		}},
		{"dram-kind", "kind -3", func(g *GPU) {
			g.parts[0].dram.Enqueue(dram.Request{Addr: 256, Bytes: 32, Kind: -3})
		}},
		{"dram-bytes", "bytes", func(g *GPU) {
			g.parts[0].dram.Enqueue(dram.Request{Addr: 256, Bytes: 1 << 20, Kind: int(KindData)})
		}},
		{"dest-kind", "kind 77", func(g *GPU) {
			dests := &g.parts[0].dests
			for _, tok := range dests.sortedKeys(nil) {
				d, _ := dests.get(tok)
				d.fill = 77
				dests.put(tok, d)
				return
			}
			t.Fatal("no DRAM transaction to tamper")
		}},
		{"unbalanced-loads", "completions", func(g *GPU) {
			// One load fewer than its warp awaits: the warp would be
			// completed by replies for loads no longer tracked, or a
			// reply would complete a warp that is not blocked.
			g.loads.take(firstLoad(g))
		}},
		{"dest-kind-without-cache", "never issues", func(g *GPU) {
			// A key-table fill, which only software encryption issues.
			for _, tok := range g.parts[0].dests.sortedKeys(nil) {
				g.parts[0].dests.put(tok, dest{fill: uint8(MetaKey) + 1})
				return
			}
			t.Fatal("no DRAM transaction to tamper")
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := restored(t, cfg, "srad_v2", b)
			c.tamper(g)
			forged, err := g.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			refuses(t, cfg, "srad_v2", forged, c.want)
		})
	}
}

// Arming a checkpoint sink must not change a single output bit: the
// landing steps it adds at checkpoint boundaries are no-ops.
func TestCheckpointingIsResultTransparent(t *testing.T) {
	cfg := SecureMem()
	cfg.MaxCycles = 4000
	plain := newGPU(t, cfg, "fdtd2d")
	want, err := plain.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ck := newGPU(t, cfg, "fdtd2d")
	// A prime interval lands between fast-forward boundaries on
	// purpose.
	ck.SetCheckpoint(1237, func(uint64, []byte) {})
	got, err := ck.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("checkpointed run diverged:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
}
