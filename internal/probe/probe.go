// Package probe is the simulator's cycle-domain observability layer:
// request-lifecycle spans with per-stage latency attribution, a
// windowed timeline sampler, and bounded span records for Chrome
// trace-event export.
//
// The layer follows the same zero-cost-when-nil contract as
// internal/faults: a nil *Config on sim.Config leaves every hot path
// behind a single nil check and the simulation byte-identical to an
// uninstrumented run. Probes only *observe* — they never schedule
// work, never perturb timing, and derive every number from cycle
// stamps the simulator already computes. With the same configuration
// and workload, a probed run therefore produces the same Result as an
// unprobed one, plus a deterministic Report (see DESIGN.md §9 for the
// determinism contract).
//
// Concurrency and aliasing contract: a probe instance is single-owner
// state attached to one simulator instance and driven from its
// goroutine. Span and timeline records index global cycle-ordered
// state, so the simulator's sharded cycle loop never writes them from
// a shard goroutine: partitions stage their spans during a window, and
// the coordinator records them at the barrier in canonical merge order
// and takes timeline samples there (DESIGN.md "Windowed cycle loop").
package probe

import "fmt"

// Stage identifies one phase of a memory request's lifecycle. The
// stages partition a traced request's issue→reply interval: whatever
// resource is the binding constraint at each point in time owns those
// cycles, so the per-stage durations of a span always sum exactly to
// its end-to-end latency (the conservation property tests enforce).
type Stage int

// Lifecycle stages.
const (
	// StageQueue is interconnect transit (request and reply hops) plus
	// reply-scheduling slack.
	StageQueue Stage = iota
	// StageL2 is L2 bank lookup/hit service time.
	StageL2
	// StageDRAM is DRAM service of the request's own data (queueing in
	// the channel included).
	StageDRAM
	// StageMeta is time waiting on metadata (counter/MAC line fetches)
	// beyond the point the data itself was ready — the paper's
	// "metadata traffic" cost on the critical path.
	StageMeta
	// StageAES is cipher time exposed on the critical path (OTP
	// generation that outlasted the data fetch, or direct decryption).
	StageAES
	// StageVerify is blocking MAC verification time (zero under
	// speculative verification, where the check runs in background).
	StageVerify
	// StageShareFetch is the secret-share fan-out window of a
	// scattered-memory read: from the placement answer to the last
	// share's arrival. Zero for every non-scattered scheme. (Named
	// apart from the StageShare report struct below.)
	StageShareFetch
	// StageCombine is the share-reconstruction (XOR combine) time of a
	// scattered-memory read after its last share lands.
	StageCombine
	// NumStages bounds the stage space.
	NumStages
)

var stageNames = [NumStages]string{
	StageQueue:      "queue",
	StageL2:         "l2",
	StageDRAM:       "dram",
	StageMeta:       "meta",
	StageAES:        "aes",
	StageVerify:     "verify",
	StageShareFetch: "share",
	StageCombine:    "combine",
}

func (s Stage) String() string {
	if s >= 0 && s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Config selects which instruments a run carries. It is a plain value
// struct so it participates in the canonical JSON memo key of a
// simulator Config — probed and unprobed runs memoize separately even
// though their timing is identical.
type Config struct {
	// Spans enables request-lifecycle span collection (per-kind,
	// per-stage latency histograms and cycle attribution).
	Spans bool
	// TimelineInterval samples the windowed timeline every N cycles;
	// 0 disables the sampler.
	TimelineInterval uint64
	// TimelineCap bounds retained timeline samples; when the ring is
	// full the oldest window is evicted. 0 means DefaultTimelineCap.
	TimelineCap int
	// Trace retains bounded per-span records for Chrome trace-event
	// export (implies span collection).
	Trace bool
	// TraceCap bounds retained span records; once full, later spans
	// still feed the histograms but are not recorded. 0 means
	// DefaultTraceCap.
	TraceCap int
}

// Default buffer bounds.
const (
	DefaultTimelineCap = 4096
	DefaultTraceCap    = 65536
)

// Enabled reports whether the config switches any instrument on.
func (c *Config) Enabled() bool {
	return c != nil && (c.Spans || c.Trace || c.TimelineInterval > 0)
}

// Validate reports malformed probe configurations.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if c.TimelineCap < 0 {
		return fmt.Errorf("probe: TimelineCap %d negative", c.TimelineCap)
	}
	if c.TraceCap < 0 {
		return fmt.Errorf("probe: TraceCap %d negative", c.TraceCap)
	}
	return nil
}

// Span is one traced request: its lifecycle window and the exact
// partition of that window across stages.
type Span struct {
	// Kind is the caller's traffic-kind index (see State kinds).
	Kind int
	// Part is the memory partition that serviced the request.
	Part int
	// Start / End bound the lifecycle (issue cycle → reply delivery).
	Start, End uint64
	// Stages attributes every cycle of [Start, End) to a stage.
	Stages [NumStages]uint64
}

// SpanRecord is the compact retained form of a Span for trace export.
type SpanRecord struct {
	Kind   uint8
	Part   uint16
	Start  uint64
	Stages [NumStages]uint32
}

// Hist is a log2-bucketed latency histogram: bucket i counts values v
// with 2^(i-1) <= v < 2^i (bucket 0 counts zeros).
type Hist struct {
	Buckets [33]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// bucketOf returns the bucket index of v.
func bucketOf(v uint64) int {
	b := 0
	for v > 0 {
		b++
		v >>= 1
	}
	return b
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.Buckets[bucketOf(v)]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Mean is the average observed value.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile approximates the q-quantile (q in [0,1]) from the bucket
// boundaries: it returns the upper bound of the bucket holding the
// q-th observation.
func (h *Hist) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(q * float64(h.Count))
	if target >= h.Count {
		target = h.Count - 1
	}
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if seen > target {
			if i == 0 {
				return 0
			}
			return 1 << uint(i-1)
		}
	}
	return h.Max
}

// SpanCollector folds spans into per-kind, per-stage histograms and
// cycle totals, and retains up to traceCap compact records.
type SpanCollector struct {
	kinds       []string
	latency     []Hist            // [kind]: end-to-end latency
	stageHist   [][NumStages]Hist // [kind][stage]: per-stage duration
	stageCycles [][NumStages]uint64
	spans       uint64
	unbalanced  uint64

	records  []SpanRecord
	traceCap int
	dropped  uint64
}

// NewSpanCollector builds a collector over the given kind labels.
// traceCap bounds retained records (0 disables record retention).
func NewSpanCollector(kinds []string, traceCap int) *SpanCollector {
	return &SpanCollector{
		kinds:       kinds,
		latency:     make([]Hist, len(kinds)),
		stageHist:   make([][NumStages]Hist, len(kinds)),
		stageCycles: make([][NumStages]uint64, len(kinds)),
		traceCap:    traceCap,
	}
}

// Record folds one span. A span whose stage durations do not sum to
// its end-to-end latency is still counted, but flags the collector's
// Unbalanced counter — the conservation tests assert it stays zero.
func (c *SpanCollector) Record(s Span) {
	if s.Kind < 0 || s.Kind >= len(c.kinds) {
		return
	}
	c.spans++
	total := s.End - s.Start
	var sum uint64
	for st, d := range s.Stages {
		sum += d
		if d > 0 {
			c.stageHist[s.Kind][st].Observe(d)
			c.stageCycles[s.Kind][st] += d
		}
	}
	if sum != total {
		c.unbalanced++
	}
	c.latency[s.Kind].Observe(total)
	if c.traceCap > 0 {
		if len(c.records) < c.traceCap {
			rec := SpanRecord{Kind: uint8(s.Kind), Part: uint16(s.Part), Start: s.Start}
			for st, d := range s.Stages {
				rec.Stages[st] = uint32(d)
			}
			c.records = append(c.records, rec)
		} else {
			c.dropped++
		}
	}
}

// Spans reports how many spans were recorded.
func (c *SpanCollector) Spans() uint64 { return c.spans }

// Unbalanced reports spans whose stages did not sum to their latency.
func (c *SpanCollector) Unbalanced() uint64 { return c.unbalanced }

// StageCycles returns total cycles attributed to (kind, stage).
func (c *SpanCollector) StageCycles(kind int, st Stage) uint64 {
	if kind < 0 || kind >= len(c.stageCycles) {
		return 0
	}
	return c.stageCycles[kind][st]
}

// State is the live instrument set of one simulation run. Build one
// per GPU with NewState; it is not safe for concurrent use (neither
// is the simulator).
type State struct {
	cfg      Config
	kinds    []string
	Spans    *SpanCollector
	Timeline *Timeline
}

// NewState builds the instruments cfg asks for over the given traffic
// kind labels. Returns nil when cfg enables nothing — callers gate
// every hook on that nil.
func NewState(cfg *Config, kinds []string) *State {
	if !cfg.Enabled() {
		return nil
	}
	s := &State{cfg: *cfg, kinds: kinds}
	if cfg.Spans || cfg.Trace {
		traceCap := 0
		if cfg.Trace {
			traceCap = cfg.TraceCap
			if traceCap == 0 {
				traceCap = DefaultTraceCap
			}
		}
		s.Spans = NewSpanCollector(kinds, traceCap)
	}
	if cfg.TimelineInterval > 0 {
		tlCap := cfg.TimelineCap
		if tlCap == 0 {
			tlCap = DefaultTimelineCap
		}
		s.Timeline = NewTimeline(cfg.TimelineInterval, tlCap, kinds)
	}
	return s
}

// Report freezes the run's observations into the deterministic output
// form carried on sim.Result.
func (s *State) Report() *Report {
	if s == nil {
		return nil
	}
	r := &Report{kinds: s.kinds}
	if s.Spans != nil {
		r.Spans = s.Spans.report()
		r.trace = s.Spans.records
	}
	if s.Timeline != nil {
		r.Timeline = s.Timeline.Samples()
		r.TimelineDropped = s.Timeline.Dropped()
	}
	return r
}

// Report is the output of a probed run: the latency-attribution
// breakdown, the timeline samples, and (not marshalled) the retained
// span records for trace export.
type Report struct {
	Spans           *SpansReport `json:"spans,omitempty"`
	Timeline        []Sample     `json:"timeline,omitempty"`
	TimelineDropped uint64       `json:"timeline_dropped,omitempty"`

	// trace and kinds feed WriteChromeTrace; they are not part of the
	// JSON form (trace files are written separately).
	trace []SpanRecord
	kinds []string
}

// TraceSpans reports how many span records are available for trace
// export.
func (r *Report) TraceSpans() int { return len(r.trace) }

// SpansReport is the per-kind latency-attribution summary.
type SpansReport struct {
	// Spans counts traced requests; Unbalanced counts spans whose
	// stage durations failed to sum to their latency (always 0 unless
	// the attribution logic has a bug).
	Spans      uint64          `json:"spans"`
	Unbalanced uint64          `json:"unbalanced,omitempty"`
	Dropped    uint64          `json:"trace_dropped,omitempty"`
	Kinds      []KindBreakdown `json:"kinds"`
}

// KindBreakdown attributes one traffic kind's cycles across stages.
type KindBreakdown struct {
	Kind        string       `json:"kind"`
	Spans       uint64       `json:"spans"`
	TotalCycles uint64       `json:"total_cycles"`
	MeanLatency float64      `json:"mean_latency"`
	P50         uint64       `json:"p50"`
	P95         uint64       `json:"p95"`
	P99         uint64       `json:"p99"`
	MaxLatency  uint64       `json:"max_latency"`
	Stages      []StageShare `json:"stages"`
}

// StageShare is one stage's slice of a kind's cycles.
type StageShare struct {
	Stage  string  `json:"stage"`
	Cycles uint64  `json:"cycles"`
	Share  float64 `json:"share"`
}

// Stage returns the cycles attributed to (kind, stage), 0 when the
// kind was never traced.
func (r *SpansReport) Stage(kind, stage string) uint64 {
	for _, k := range r.Kinds {
		if k.Kind != kind {
			continue
		}
		for _, s := range k.Stages {
			if s.Stage == stage {
				return s.Cycles
			}
		}
	}
	return 0
}

// Kind returns the breakdown for one kind label, nil when untraced.
func (r *SpansReport) Kind(kind string) *KindBreakdown {
	for i := range r.Kinds {
		if r.Kinds[i].Kind == kind {
			return &r.Kinds[i]
		}
	}
	return nil
}

func (c *SpanCollector) report() *SpansReport {
	rep := &SpansReport{Spans: c.spans, Unbalanced: c.unbalanced, Dropped: c.dropped}
	for k, label := range c.kinds {
		lat := &c.latency[k]
		if lat.Count == 0 {
			continue
		}
		kb := KindBreakdown{
			Kind:        label,
			Spans:       lat.Count,
			TotalCycles: lat.Sum,
			MeanLatency: lat.Mean(),
			P50:         lat.Quantile(0.50),
			P95:         lat.Quantile(0.95),
			P99:         lat.Quantile(0.99),
			MaxLatency:  lat.Max,
		}
		for st := Stage(0); st < NumStages; st++ {
			cyc := c.stageCycles[k][st]
			share := 0.0
			if lat.Sum > 0 {
				share = float64(cyc) / float64(lat.Sum)
			}
			kb.Stages = append(kb.Stages, StageShare{Stage: st.String(), Cycles: cyc, Share: share})
		}
		rep.Kinds = append(rep.Kinds, kb)
	}
	return rep
}
