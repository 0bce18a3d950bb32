package gpusecmem

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"gpusecmem/internal/area"
	"gpusecmem/internal/cache"
	"gpusecmem/internal/faults"
	"gpusecmem/internal/flight"
	"gpusecmem/internal/geometry"
	"gpusecmem/internal/probe"
	"gpusecmem/internal/report"
	"gpusecmem/internal/sim"
	"gpusecmem/internal/stats"
	"gpusecmem/internal/trace"
)

// Options controls how experiments run.
type Options struct {
	// Cycles per simulation (default DefaultCycles). The paper
	// simulates 4M cycles; the workloads here reach steady state within
	// a few thousand, so shorter windows preserve the comparisons.
	Cycles uint64
	// Benchmarks to include (default: all of Table IV).
	Benchmarks []string
	// Audit enables the simulator's per-cycle invariant auditors on
	// every run (see `make audit`). Auditing reads state only — results
	// are byte-identical — but audited and unaudited runs memoize under
	// different keys because Audit is part of the Config.
	Audit bool
	// Shards > 1 advances each simulation's memory partitions on that
	// many shard goroutines (Config.Shards; see DESIGN.md "Windowed
	// cycle loop"). Results are bit-identical at every shard count and
	// Shards is excluded from Config's JSON, so memo keys, disk-cache
	// entries, and golden digests are shared across shard settings. 0
	// and 1 run every window inline on one goroutine.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.Cycles == 0 {
		o.Cycles = DefaultCycles
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = Benchmarks()
	}
	return o
}

// RunKey is the canonical memoization key for one (config, benchmark)
// simulation: the deterministic JSON encoding of the fully resolved
// Config, a separator, and the benchmark name. encoding/json writes
// struct fields in declaration order and sorts map keys, so the key
// stays canonical even if Config later grows pointer or map fields —
// unlike the fmt "%+v" key it replaces, which prints pointer addresses.
func RunKey(cfg Config, benchmark string) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		// Config is a plain value struct; marshalling cannot fail
		// unless a future field breaks that invariant, which tests
		// should catch immediately.
		panic(fmt.Sprintf("gpusecmem: config not canonicalizable: %v", err))
	}
	return string(b) + "|" + benchmark
}

// RunSpec identifies one deduplicated simulation in an execution plan:
// the fully resolved configuration (MaxCycles applied) plus the
// benchmark and the canonical key.
type RunSpec struct {
	Cfg       Config
	Benchmark string
	Key       string
}

// RunError wraps a failed simulation with enough context to report
// which configuration died without aborting the rest of a sweep.
type RunError struct {
	Benchmark string
	Cfg       Config
	Err       error
	// Stack is the goroutine stack at the point of a recovered panic;
	// empty for ordinary simulator errors (stalls, audits, bad
	// configs), which are diagnosable from Err alone.
	Stack string
}

func (e *RunError) Error() string {
	return fmt.Sprintf("simulate %q: %v", e.Benchmark, e.Err)
}

// Unwrap exposes the underlying simulator error to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// ConfigJSON renders the failing configuration canonically, for
// diagnostics.
func (e *RunError) ConfigJSON() string {
	b, err := json.Marshal(e.Cfg)
	if err != nil {
		return fmt.Sprintf("%+v", e.Cfg)
	}
	return string(b)
}

// run is one memoized simulation; its result fields are written, under
// the Context's lock, only before done is set.
type run struct {
	seq  int // start order, for stable stats reporting
	done bool
	res  *Result
	err  error
	wall time.Duration
}

// CacheStats counts memo-cache behaviour across a Context's lifetime.
// Hits include requests that blocked on an in-flight run. DiskHits
// counts memo misses that were then served from the persistent
// ResultCache instead of simulating; cancelled attempts count as
// misses (and miss again when retried). Resumed counts simulations
// that started from a checkpoint Restore accepted (SetCheckpointStore).
type CacheStats struct {
	Hits     uint64
	Misses   uint64
	DiskHits uint64
	Resumed  uint64
}

// ResultCache is a persistent result store layered under the in-memory
// singleflight memo: on a memo miss the Context consults Get before
// simulating and calls Put with every freshly simulated result.
// Implementations must be safe for concurrent use and are expected to
// be content-addressed by the canonical RunKey (internal/resultcache
// is the on-disk implementation). A cache hit must return a Result
// that renders byte-identically to a fresh simulation.
type ResultCache interface {
	Get(key string) (*Result, bool)
	Put(key string, res *Result)
}

// RunStat describes one completed simulation for observability
// (-stats-out and the -progress ticker).
type RunStat struct {
	Key       string
	Benchmark string
	Wall      time.Duration
	Cycles    uint64
	Err       error
}

// CyclesPerSec is simulated cycles per wall-clock second.
func (s RunStat) CyclesPerSec() float64 {
	if sec := s.Wall.Seconds(); sec > 0 {
		return float64(s.Cycles) / sec
	}
	return 0
}

// Context memoizes simulation runs across experiments: many figures
// share configurations (e.g. the secureMem design appears in Figures
// 6, 7, 8, 12, 16 and 17), so each (config, benchmark) pair simulates
// once. Memoization uses singleflight semantics — concurrent requests
// for the same key block on the one in-flight simulation — so a worker
// pool can drive the same Context from many goroutines without
// duplicated or racing runs.
type Context struct {
	opts Options
	// simulate is the simulation entry point; tests substitute it to
	// count calls and inject failures.
	simulate func(context.Context, Config, string) (*Result, error)

	// base is the context consulted by the ctx-less Run entry point
	// experiment bodies use; context.Background() until SetBaseContext.
	base context.Context
	// disk is the optional persistent cache layered under the memo.
	disk ResultCache

	// flights coalesces concurrent requests for an in-flight run.
	flights  flight.Group[*run]
	mu       sync.Mutex
	runs     map[string]*run
	hits     uint64
	misses   uint64
	diskHits uint64
	resumed  uint64

	// Planning mode: Run records specs instead of simulating, so a
	// runner can pre-plan the deduplicated work set of a sweep.
	planning bool
	planSeen map[string]bool
	plan     []RunSpec
}

// NewContext builds a run context.
func NewContext(opts Options) *Context {
	return &Context{
		opts:     opts.withDefaults(),
		simulate: SimulateContext,
		base:     context.Background(),
		runs:     make(map[string]*run),
	}
}

// SetBaseContext sets the context consulted by Run, the ctx-less entry
// point experiment bodies use (RunE takes its context explicitly).
// Cancelling it makes subsequent Run calls panic with the cancellation
// error, which the runner recovers and reports per experiment.
func (c *Context) SetBaseContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.base = ctx
}

// SetResultCache layers a persistent result store under the in-memory
// memo (see ResultCache). Pass nil to detach. Not safe to call while
// runs are in flight.
func (c *Context) SetResultCache(rc ResultCache) { c.disk = rc }

// SetCheckpointStore routes every fresh simulation this Context owns
// through SimulateCheckpointed against cs, snapshotting every `every`
// cycles: sweeps survive crashes and re-runs resume instead of
// restarting. Each run that resumed counts in CacheStats.Resumed. A
// nil store or zero interval restores the plain path. Not safe to call
// while runs are in flight, and it replaces the simulation entry point
// (tests that substitute it should not also arm checkpointing).
func (c *Context) SetCheckpointStore(cs CheckpointStore, every uint64) {
	if cs == nil || every == 0 {
		c.simulate = SimulateContext
		return
	}
	c.simulate = func(ctx context.Context, cfg Config, benchmark string) (*Result, error) {
		res, from, err := SimulateCheckpointed(ctx, cfg, benchmark, cs, every)
		if from > 0 {
			c.mu.Lock()
			c.resumed++
			c.mu.Unlock()
		}
		return res, err
	}
}

// Benchmarks returns the benchmark list in effect.
func (c *Context) Benchmarks() []string { return c.opts.Benchmarks }

// planPlaceholder is what Run returns while planning: a non-nil Result
// whose derived metrics (IPC, miss rates, shares) are all defined, so
// experiment bodies can do their arithmetic harmlessly while their
// requests are being recorded.
func planPlaceholder(benchmark string) *Result {
	return &Result{
		Benchmark:          benchmark,
		Cycles:             1,
		Instructions:       1,
		PeakBandwidthBytes: 1,
	}
}

// RunE simulates (cfg, benchmark), memoized with singleflight
// semantics, and propagates simulator failures as *RunError instead of
// panicking. Errors are memoized too: a deterministic failure is
// reported once per key, not retried per requester.
//
// Cancellation follows the request, not the cache: when ctx is
// cancelled RunE returns (nil, ctx.Err()) — whether it was waiting on
// another request's in-flight run or owned the run itself — and a
// cancelled run is removed from the memo before its waiters wake, so
// a later request re-simulates cleanly. A persistent ResultCache, when
// attached, is consulted on memo misses and fed every fresh result.
func (c *Context) RunE(ctx context.Context, cfg Config, benchmark string) (*Result, error) {
	cfg.MaxCycles = c.opts.Cycles
	if c.opts.Audit {
		cfg.Audit = true
	}
	if c.opts.Shards != 0 {
		cfg.Shards = c.opts.Shards
	}
	key := RunKey(cfg, benchmark)

	c.mu.Lock()
	if c.planning {
		if !c.planSeen[key] {
			c.planSeen[key] = true
			c.plan = append(c.plan, RunSpec{Cfg: cfg, Benchmark: benchmark, Key: key})
		}
		c.mu.Unlock()
		return planPlaceholder(benchmark), nil
	}
	if r, ok := c.runs[key]; ok && r.done {
		c.hits++
		c.mu.Unlock()
		return r.res, r.err
	}
	c.mu.Unlock()
	r, shared, err := c.flights.Do(ctx, key, func() (*run, error) {
		return c.lead(ctx, key, cfg, benchmark)
	})
	if shared {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	return r.res, r.err
}

// lead executes one flight: persistent-cache lookup, simulation, and
// write-back.
func (c *Context) lead(ctx context.Context, key string, cfg Config, benchmark string) (*run, error) {
	c.mu.Lock()
	if r, ok := c.runs[key]; ok && r.done {
		// Completed between RunE's memo check and this flight.
		c.hits++
		c.mu.Unlock()
		return r, nil
	}
	r := &run{seq: len(c.runs)}
	c.runs[key] = r
	c.misses++
	c.mu.Unlock()

	start := time.Now()
	if c.disk != nil {
		if res, ok := c.disk.Get(key); ok {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.diskHits++
			r.res, r.wall, r.done = res, time.Since(start), true
			return r, nil
		}
	}
	res, err, stack := safeSimulate(ctx, c.simulate, cfg, benchmark)
	wall := time.Since(start)
	if err == nil && c.disk != nil && res != nil {
		c.disk.Put(key, res)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// A cancelled run is the requester's fate, not the key's: it is
		// un-memoized, and the flight group sends live waiters to re-lead
		// instead of inheriting the cancellation.
		delete(c.runs, key)
		return nil, err
	}
	if err != nil {
		r.err = &RunError{Benchmark: benchmark, Cfg: cfg, Err: err, Stack: stack}
	}
	r.res, r.wall, r.done = res, wall, true
	return r, nil
}

// safeSimulate converts a simulator panic into an error plus the
// captured stack, so one bad run fails its experiments instead of
// killing the whole sweep — worker goroutines must never die.
func safeSimulate(ctx context.Context, sim func(context.Context, Config, string) (*Result, error), cfg Config, benchmark string) (r *Result, err error, stack string) {
	defer func() {
		if p := recover(); p != nil {
			r, err, stack = nil, fmt.Errorf("simulator panic: %v", p), string(debug.Stack())
		}
	}()
	r, err = sim(ctx, cfg, benchmark)
	return r, err, ""
}

// Run simulates (cfg, benchmark), memoized. A failed simulation
// panics with the *RunError so existing experiment bodies need no
// error plumbing; the runner (internal/runner) recovers it per
// experiment, reports the failing config, and continues the sweep.
// Run consults the Context's base context (SetBaseContext) for
// cancellation; a cancelled run panics with the context error.
func (c *Context) Run(cfg Config, benchmark string) *Result {
	r, err := c.RunE(c.base, cfg, benchmark)
	if err != nil {
		panic(err)
	}
	return r
}

// PlanRuns replays the experiments against a recording shadow context
// and returns the deduplicated (config, benchmark) pairs they need, in
// first-request order. Nothing is simulated. An experiment that
// chokes on placeholder results simply contributes the requests it
// made before bailing; any runs it hides are discovered (and memoized)
// at render time.
func (c *Context) PlanRuns(exps []Experiment) []RunSpec {
	shadow := &Context{
		opts:     c.opts,
		base:     context.Background(),
		planning: true,
		planSeen: make(map[string]bool),
	}
	for _, e := range exps {
		func() {
			defer func() { _ = recover() }()
			e.Run(shadow)
		}()
	}
	return shadow.plan
}

// CachedRuns reports how many distinct runs have been started.
func (c *Context) CachedRuns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.runs)
}

// CacheStats reports memo hit/miss counts so far.
func (c *Context) CacheStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, DiskHits: c.diskHits, Resumed: c.resumed}
}

// RunStats returns per-run observability records for every completed
// simulation, in start order. In-flight runs are skipped.
func (c *Context) RunStats() []RunStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	for k, r := range c.runs {
		if r.done {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return c.runs[keys[i]].seq < c.runs[keys[j]].seq })
	out := make([]RunStat, 0, len(keys))
	for _, k := range keys {
		r := c.runs[k]
		s := RunStat{Key: k, Wall: r.wall, Err: r.err}
		if r.res != nil {
			s.Benchmark = r.res.Benchmark
			s.Cycles = r.res.Cycles
		} else if re, ok := r.err.(*RunError); ok {
			s.Benchmark = re.Benchmark
		}
		out = append(out, s)
	}
	return out
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	// ID is the lookup key ("table1".."table7", "fig3".."fig17",
	// "ablation-*").
	ID string
	// Title is the paper's caption.
	Title string
	// PaperFinding summarizes what the paper reports, for comparison.
	PaperFinding string
	// Run produces the result tables.
	Run func(*Context) []*report.Table
}

// geomean of a slice (zeros clamped to a floor to stay defined).
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		if v < 1e-9 {
			v = 1e-9
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// --- Configuration presets (Tables V and VIII) ---

func cfgSecureNoMSHR() Config {
	cfg := SecureMemConfig()
	cfg.Secure.MetaMSHRs = 0
	return cfg
}

func cfgZeroCrypto() Config {
	cfg := cfgSecureNoMSHR()
	cfg.Secure.AESLatency = 0
	cfg.Secure.MACLatency = 0
	return cfg
}

func cfgPerfMdc() Config {
	cfg := cfgSecureNoMSHR()
	cfg.Secure.PerfectMeta = true
	return cfg
}

func cfgLargeMdc() Config {
	cfg := cfgSecureNoMSHR()
	cfg.Secure.UnlimitedMeta = true
	cfg.Secure.MetaMSHRs = 64
	return cfg
}

func cfgMSHR(n int) Config {
	cfg := SecureMemConfig()
	cfg.Secure.MetaMSHRs = n
	return cfg
}

func cfgMetaSize(kb int) Config {
	cfg := SecureMemConfig()
	cfg.Secure.MetaCacheBytes = kb * 1024
	return cfg
}

func cfgUnified() Config {
	cfg := SecureMemConfig()
	cfg.Secure.Unified = true
	return cfg
}

func cfgEngines(n int) Config {
	cfg := SecureMemConfig()
	cfg.Secure.AESEngines = n
	return cfg
}

// cfgL2 sets the total L2 capacity in KB (64 banks).
func cfgL2(totalKB int, secure bool) Config {
	var cfg Config
	if secure {
		cfg = SecureMemConfig()
	} else {
		cfg = BaselineConfig()
	}
	cfg.L2BankBytes = totalKB * 1024 / (cfg.NumPartitions * cfg.L2BanksPerPartition)
	return cfg
}

func cfgDirect(latency int) Config { return DirectMemConfig(latency, false, false) }

func cfgCtr() Config {
	cfg := SecureMemConfig()
	cfg.Secure.MAC = false
	cfg.Secure.Tree = false
	return cfg
}

func cfgCtrBMT() Config {
	cfg := SecureMemConfig()
	cfg.Secure.MAC = false
	return cfg
}

// --- The per-benchmark normalized-IPC table shared by most figures ---

// A namedConfig is one configuration a figure compares, under its
// column label.
type namedConfig struct {
	Name string
	Cfg  Config
}

// normalizedIPCTableOf has a row per benchmark and a column per
// scheme: the scheme's IPC normalized to the baseline's.
func normalizedIPCTableOf(c *Context, title string, schemes []namedConfig, benchmarks []string) *report.Table {
	headers := []string{"benchmark"}
	for _, s := range schemes {
		headers = append(headers, s.Name)
	}
	t := report.New(title, headers...)
	for _, b := range benchmarks {
		base := c.Run(BaselineConfig(), b)
		row := []any{b}
		for _, s := range schemes {
			row = append(row, report.F3(c.Run(s.Cfg, b).NormalizedIPC(base)))
		}
		t.AddRow(row...)
	}
	return t
}

// normalizedIPCTable covers the context's benchmarks and closes with a
// gmean row over each scheme's column.
func normalizedIPCTable(c *Context, title string, schemes []namedConfig) *report.Table {
	t := normalizedIPCTableOf(c, title, schemes, c.Benchmarks())
	gmean := []any{"gmean"}
	for col := 1; col <= len(schemes); col++ {
		gmean = append(gmean, report.F3(geomean(t.Column(col))))
	}
	t.AddRow(gmean...)
	return t
}

// expRun is an experiment body that renders one table of the schemes
// with table (normalizedIPCTable or ablationTable).
func expRun(table func(*Context, string, []namedConfig) *report.Table, title string, schemes []namedConfig) func(*Context) []*report.Table {
	return func(c *Context) []*report.Table { return []*report.Table{table(c, title, schemes)} }
}

// Experiments returns the full registry, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		expTable1(), expTable2(), expTable3(), expTable4(), expTable5(),
		expFig3(), expFig4(), expFig5(), expFig6(), expFig7(),
		expFig8(), expFig9(), expFig10(), expFig11(), expFig12(),
		expTable6(), expTable7(), expFig13(), expFig14(),
		expFig15(), expFig16(), expFig17(),
		expAblationMergeCap(), expAblationAllocPolicy(), expAblationSpecVerify(),
		expAblationLazyUpdate(), expAblationSectoredL2(),
		expExtSmartUnified(), expExtSelective(), expExtFaultCoverage(),
		expExtLatency(), expExtDesignspace(),
	}
}

// ExperimentByID finds one experiment; ok is false for unknown ids.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func expTable1() Experiment {
	return Experiment{
		ID:           "table1",
		Title:        "Table I: Baseline GPU configuration",
		PaperFinding: "Volta-class: 80 SMs @1132MHz, 6MB L2, 868GB/s over 32 partitions",
		Run: func(c *Context) []*report.Table {
			cfg := BaselineConfig()
			t := report.New("Table I: baseline GPU configuration", "parameter", "value")
			t.AddRow("SMs", cfg.NumSMs)
			t.AddRow("issue width / SM", cfg.IssueWidth)
			t.AddRow("L1 D-cache / SM", fmt.Sprintf("%dKB, %d-way, sectored", cfg.L1Bytes/1024, cfg.L1Assoc))
			t.AddRow("L2 cache", fmt.Sprintf("%d banks/partition, %dKB/bank, %dKB total",
				cfg.L2BanksPerPartition, cfg.L2BankBytes/1024,
				cfg.L2BanksPerPartition*cfg.NumPartitions*cfg.L2BankBytes/1024))
			t.AddRow("DRAM", fmt.Sprintf("%d partitions, 24B/core-cycle each (868GB/s aggregate)", cfg.NumPartitions))
			t.AddRow("DRAM banks / partition", cfg.DRAM.Banks)
			t.AddRow("protected memory", fmt.Sprintf("%dGB", cfg.ProtectedBytes>>30))
			return []*report.Table{t}
		},
	}
}

func expTable2() Experiment {
	return Experiment{
		ID:           "table2",
		Title:        "Table II: Metadata organization and storage",
		PaperFinding: "counter 32MB, MAC 256MB, BMT 2.14MB (6 levels) / MT 17.1MB (7 levels)",
		Run: func(c *Context) []*report.Table {
			t := report.New("Table II: metadata organization and storage (4GB protected)",
				"metadata", "counter-mode", "direct")
			bmt := geometry.MustLayout(4<<30, geometry.BMT).Storage()
			mt := geometry.MustLayout(4<<30, geometry.MT).Storage()
			mb := func(b uint64) string { return fmt.Sprintf("%.2fMB", float64(b)/(1<<20)) }
			t.AddRow("counter (128B/16KB, 7b/blk)", mb(bmt.CounterBytes), "-")
			t.AddRow("MAC (8B/blk, 2B/sector)", mb(bmt.MACBytes), mb(mt.MACBytes))
			t.AddRow(fmt.Sprintf("tree (16-ary, %d/%d levels)", bmt.TreeLevelsIncLeaves, mt.TreeLevelsIncLeaves),
				mb(bmt.TreeBytes), mb(mt.TreeBytes))
			t.AddRow("total", mb(bmt.TotalBytes()), mb(mt.TotalBytes()))
			return []*report.Table{t}
		},
	}
}

func expTable3() Experiment {
	return Experiment{
		ID:           "table3",
		Title:        "Table III: Metadata cache organization",
		PaperFinding: "2KB/type/partition default, 64 MSHRs, allocate-on-fill; unified 6KB/192 MSHRs",
		Run: func(c *Context) []*report.Table {
			sc := SecureMemConfig().Secure
			t := report.New("Table III: metadata cache organization", "cache", "configuration")
			per := fmt.Sprintf("{2,4,8,16,32,64}KB/partition, %dKB default, 128B lines, %d MSHRs, allocate-on-fill",
				sc.MetaCacheBytes/1024, sc.MetaMSHRs)
			t.AddRow("counter cache", per+fmt.Sprintf(", merge cap %d", sc.MergeCapCounter))
			t.AddRow("MAC cache", per+fmt.Sprintf(", merge cap %d", sc.MergeCapMAC))
			t.AddRow("(Bonsai) Merkle tree cache", per+fmt.Sprintf(", merge cap %d", sc.MergeCapTree))
			t.AddRow("unified metadata cache", fmt.Sprintf("%dKB/partition, 128B lines, %d MSHRs, allocate-on-fill",
				sc.UnifiedBytes/1024, sc.UnifiedMSHRs))
			t.AddRow("hash/MAC latency", fmt.Sprintf("%d cycles", sc.MACLatency))
			t.AddRow("AES engines", fmt.Sprintf("{1,2}/partition, %d default, pipelined 16B/mem-cycle", sc.AESEngines))
			return []*report.Table{t}
		},
	}
}

func expTable4() Experiment {
	return Experiment{
		ID:           "table4",
		Title:        "Table IV: Benchmarks (bandwidth utilization and IPC)",
		PaperFinding: "3 classes: <20%, 20-50%, >50% of peak DRAM bandwidth",
		Run: func(c *Context) []*report.Table {
			t := report.New("Table IV: baseline benchmark characterization",
				"benchmark", "bw-util", "IPC", "paper-IPC", "class", "paper-class")
			for _, b := range c.Benchmarks() {
				r := c.Run(BaselineConfig(), b)
				bw := r.BandwidthUtilization()
				var cls trace.Class
				switch {
				case bw < 0.20:
					cls = trace.NonIntensive
				case bw <= 0.50:
					cls = trace.MediumIntensive
				default:
					cls = trace.MemoryIntensive
				}
				t.AddRow(b, report.Pct(bw), report.Num{V: r.IPC(), F: report.Fixed1},
					report.Num{V: trace.PaperIPC(b), F: report.Fixed1}, cls.String(), trace.PaperClass(b).String())
			}
			return []*report.Table{t}
		},
	}
}

func expTable5() Experiment {
	return Experiment{
		ID:           "table5",
		Title:        "Table V: Evaluated designs for counter-mode encryption",
		PaperFinding: "baseline / secureMem / 0_crypto / perf_mdc / large_mdc / mshr_x / separate / unified",
		Run: func(c *Context) []*report.Table {
			t := report.New("Table V: counter-mode design matrix", "scheme", "what it represents")
			t.AddRow("baseline", "GPU without secure memory support")
			t.AddRow("secureMem", "counter-mode encryption + MAC + BMT (no metadata MSHRs in Fig 3/4/5)")
			t.AddRow("0_crypto", "secureMem with 0-cycle MAC and AES latency")
			t.AddRow("perf_mdc", "secureMem with perfect metadata caches")
			t.AddRow("large_mdc", "secureMem with unlimited-capacity metadata caches")
			t.AddRow("mshr_x", "secureMem with x MSHRs per metadata cache")
			t.AddRow("separate", "per-type 2KB metadata caches per partition")
			t.AddRow("unified", "one 6KB metadata cache per partition")
			return []*report.Table{t}
		},
	}
}

func expFig3() Experiment {
	return Experiment{
		ID:           "fig3",
		Title:        "Fig 3: Normalized IPC of counter-mode encryption with BMT",
		PaperFinding: "secureMem -65.9% gmean (up to -91% for lbm); 0_crypto does not help; perf/large metadata caches recover to ~baseline",
		Run: expRun(normalizedIPCTable, "Fig 3: normalized IPC (counter mode + BMT)", []namedConfig{
			{"secureMem", cfgSecureNoMSHR()},
			{"0_crypto", cfgZeroCrypto()},
			{"perf_mdc", cfgPerfMdc()},
			{"large_mdc", cfgLargeMdc()},
		}),
	}
}

func expFig4() Experiment {
	return Experiment{
		ID:           "fig4",
		Title:        "Fig 4: Distribution of memory-request types (secureMem)",
		PaperFinding: "MACs 25.6% and counters 21.8% of requests on average; BMT high for bfs/b+tree/kmeans/nw/lbm",
		Run: func(c *Context) []*report.Table {
			t := report.New("Fig 4: DRAM request distribution under secureMem",
				"benchmark", "data", "ctr", "mac", "bmt", "wb")
			cfg := cfgSecureNoMSHR()
			for _, b := range c.Benchmarks() {
				r := c.Run(cfg, b)
				row := []any{b}
				for k := sim.KindData; k <= sim.KindWB; k++ {
					row = append(row, report.Pct(r.RequestShare(k)))
				}
				t.AddRow(row...)
			}
			t.AddRow(expMeanRow(t)...)
			return []*report.Table{t}
		},
	}
}

func expFig5() Experiment {
	return Experiment{
		ID:           "fig5",
		Title:        "Fig 5: Secondary misses in metadata caches",
		PaperFinding: "secondary misses: ctr 64.96%, MAC 59.67%, BMT 85.63% on average; >90% for streamcluster",
		Run: func(c *Context) []*report.Table {
			t := report.New("Fig 5: secondary-miss ratio of metadata cache misses",
				"benchmark", "ctr", "mac", "bmt")
			cfg := cfgSecureNoMSHR()
			for _, b := range c.Benchmarks() {
				r := c.Run(cfg, b)
				row := []any{b}
				for m := sim.MetaCounter; m <= sim.MetaTree; m++ {
					row = append(row, report.Pct(r.Meta[m].SecondaryRatio()))
				}
				t.AddRow(row...)
			}
			t.AddRow(expMeanRow(t)...)
			return []*report.Table{t}
		},
	}
}

// expMeanRow is a "mean" row: each column's average over the rows
// above, as a percentage.
func expMeanRow(t *report.Table) []any {
	row := []any{"mean"}
	for col := 1; col < len(t.Headers); col++ {
		sum, vs := 0.0, t.Column(col)
		for _, v := range vs {
			sum += v
		}
		row = append(row, report.Pct(sum/float64(len(vs))))
	}
	return row
}

func expFig6() Experiment {
	var schemes []namedConfig
	for _, n := range []int{0, 8, 16, 32, 64, 128} {
		schemes = append(schemes, namedConfig{fmt.Sprintf("mshr_%d", n), cfgMSHR(n)})
	}
	return Experiment{
		ID:           "fig6",
		Title:        "Fig 6: Normalized IPC vs metadata-cache MSHR count",
		PaperFinding: "64 MSHRs per metadata cache is the sweet spot of performance vs cost",
		Run:          expRun(normalizedIPCTable, "Fig 6: normalized IPC vs MSHRs", schemes),
	}
}

func expFig7() Experiment {
	var schemes []namedConfig
	for _, kb := range []int{2, 4, 8, 16, 32, 64} {
		schemes = append(schemes, namedConfig{fmt.Sprintf("%dKB", kb), cfgMetaSize(kb)})
	}
	return Experiment{
		ID:           "fig7",
		Title:        "Fig 7: Normalized IPC vs metadata cache size",
		PaperFinding: "even 64KB/type (6MB total) leaves 46.17% average degradation; kmeans/srad_v2/lbm stay >65% slower",
		Run:          expRun(normalizedIPCTable, "Fig 7: normalized IPC vs metadata cache size", schemes),
	}
}

func expFig8() Experiment {
	return Experiment{
		ID:           "fig8",
		Title:        "Fig 8: Unified vs separate metadata caches",
		PaperFinding: "separate metadata caches outperform a same-capacity unified cache on GPUs (opposite of CPUs)",
		Run: expRun(normalizedIPCTable, "Fig 8: unified vs separate metadata caches", []namedConfig{
			{"separate", SecureMemConfig()},
			{"unified", cfgUnified()},
		}),
	}
}

func expFig9() Experiment {
	return Experiment{
		ID:           "fig9",
		Title:        "Fig 9: Metadata miss rates, unified vs separate",
		PaperFinding: "unified raises miss rates: ctr 22.77->24.03%, MAC 31.75->31.82%, BMT 4.02->5.93%; unified writebacks 1.47x",
		Run: func(c *Context) []*report.Table {
			t := report.New("Fig 9: metadata miss rates (averages over benchmarks)",
				"metadata", "separate", "unified")
			var sep, uni [3]float64
			var sepWB, uniWB uint64
			for _, b := range c.Benchmarks() {
				rs := c.Run(SecureMemConfig(), b)
				ru := c.Run(cfgUnified(), b)
				for m := 0; m < 3; m++ {
					sep[m] += rs.Meta[m].MissRate()
					uni[m] += ru.Meta[m].MissRate()
				}
				sepWB += rs.MetaCacheWritebacks
				uniWB += ru.MetaCacheWritebacks
			}
			n := float64(len(c.Benchmarks()))
			for m := sim.MetaCounter; m <= sim.MetaTree; m++ {
				t.AddRow(m.String(), report.Pct(sep[m]/n), report.Pct(uni[m]/n))
			}
			t.AddRow("writeback ratio (unified/separate)", report.F3(1), report.F3(stats.Ratio(uniWB, sepWB)))
			return []*report.Table{t}
		},
	}
}

// reuseTableRun is an experiment body that tabulates the reuse
// profile picked from a profiled secureMem run of fdtd2d.
func reuseTableRun(title string, pick func(*Result) *stats.ReuseProfiler) func(*Context) []*report.Table {
	return func(c *Context) []*report.Table {
		cfg := SecureMemConfig()
		cfg.ProfileReuse = true
		p := pick(c.Run(cfg, "fdtd2d"))
		if p == nil {
			return nil
		}
		t := report.New(title, "reuse distance", "accesses", "fraction")
		fr := p.Fractions()
		for i, b := range stats.ReuseBuckets {
			t.AddRow(b.Label, p.Hist[i], report.Pct(fr[i]))
		}
		t.AddRow("cold", p.Cold, "-")
		return []*report.Table{t}
	}
}

func expFig10() Experiment {
	return Experiment{
		ID:           "fig10",
		Title:        "Fig 10: Reuse distance of counters (fdtd2d)",
		PaperFinding: "most counter accesses have reuse distance 0 (streaming); a long [65,512] tail needs capacity",
		Run: reuseTableRun("Fig 10: counter reuse distance, fdtd2d (partition 0)",
			func(r *Result) *stats.ReuseProfiler { return r.CounterReuse }),
	}
}

func expFig11() Experiment {
	return Experiment{
		ID:           "fig11",
		Title:        "Fig 11: Reuse distance of MACs (fdtd2d)",
		PaperFinding: "MAC accesses mirror the counter pattern: distance 0 dominates",
		Run: reuseTableRun("Fig 11: MAC reuse distance, fdtd2d (partition 0)",
			func(r *Result) *stats.ReuseProfiler { return r.MACReuse }),
	}
}

func expFig12() Experiment {
	return Experiment{
		ID:           "fig12",
		Title:        "Fig 12: Normalized IPC with 1 vs 2 AES engines per partition",
		PaperFinding: "one pipelined AES engine per partition is enough; metadata traffic, not AES throughput, is the bottleneck",
		Run: expRun(normalizedIPCTable, "Fig 12: AES engines per partition", []namedConfig{
			{"1 engine", cfgEngines(1)},
			{"2 engines", cfgEngines(2)},
		}),
	}
}

func expTable6() Experiment {
	return Experiment{
		ID:           "table6",
		Title:        "Table VI: Published AES engine die areas",
		PaperFinding: "most recent: 4900 um^2 at 14nm (JSSC'20)",
		Run: func(c *Context) []*report.Table {
			t := report.New("Table VI: published AES die areas", "source", "tech", "area (mm^2)")
			for _, d := range area.PublishedAES() {
				t.AddRow(d.Source, fmt.Sprintf("%.0fnm", d.TechNm), report.Num{V: d.AreaMM2, F: report.Shortest})
			}
			return []*report.Table{t}
		},
	}
}

func expTable7() Experiment {
	return Experiment{
		ID:           "table7",
		Title:        "Table VII: Areas scaled to 12nm and the L2 budget",
		PaperFinding: "AES 0.0036mm^2; security hardware costs ~1526KB of L2-equivalent area (24.84% of L2)",
		Run: func(c *Context) []*report.Table {
			m := area.NewModel()
			t := report.New("Table VII: scaled die areas (12nm)", "component", "area (mm^2)")
			t.AddRow("AES engine", report.Num{V: m.AESEngineMM2, F: report.Fixed4})
			t.AddRow("64KB cache", report.Num{V: m.Cache64KBMM2, F: report.Fixed5})
			t.AddRow("96KB cache", report.Num{V: m.Cache96KBMM2, F: report.Fixed5})

			b := report.New("Section V-F: L2-capacity budget", "configuration", "area (mm^2)", "L2-equivalent (KB)", "% of 6MB L2")
			for _, engines := range []int{1, 2} {
				bud := m.SecureMemoryBudget(engines, 32)
				b.AddRow(fmt.Sprintf("%d engine(s)/partition + MAC units + 3x64KB caches", engines),
					report.Num{V: bud.TotalMM2, F: report.Fixed4},
					report.Num{V: bud.L2ReducedKB, F: report.Fixed0},
					report.Num{V: bud.L2ReducedPct, F: report.Points})
			}
			return []*report.Table{t, b}
		},
	}
}

func expFig13() Experiment {
	var schemes []namedConfig
	for _, mb := range []int{4096, 4608, 5120, 5632, 6144} {
		schemes = append(schemes, namedConfig{fmt.Sprintf("%.1fMB", float64(mb)/1024), cfgL2(mb, true)})
	}
	return Experiment{
		ID:           "fig13",
		Title:        "Fig 13: Normalized IPC with reduced L2 capacities (secureMem)",
		PaperFinding: "a few medium-intensive benchmarks are L2-sensitive; compute- and fully-streaming ones are not",
		Run:          expRun(normalizedIPCTable, "Fig 13: secureMem IPC vs L2 capacity", schemes),
	}
}

func expFig14() Experiment {
	return Experiment{
		ID:           "fig14",
		Title:        "Fig 14: Baseline L2 miss rates",
		PaperFinding: "streamcluster ~97% L2 miss; compute-bound kernels have few L2 accesses",
		Run: func(c *Context) []*report.Table {
			t := report.New("Fig 14: baseline L2 miss rate", "benchmark", "L2 miss rate", "L2 accesses")
			for _, b := range c.Benchmarks() {
				r := c.Run(BaselineConfig(), b)
				t.AddRow(b, report.Pct(r.L2.MissRate()), r.L2.Accesses)
			}
			return []*report.Table{t}
		},
	}
}

func expFig15() Experiment {
	return Experiment{
		ID:           "fig15",
		Title:        "Fig 15: Direct encryption with different latencies",
		PaperFinding: "slowdowns of only 1.33% / 3.02% / 5.93% at 40/80/160 cycles; >10% for b+tree, nw, streamcluster at 160",
		Run: expRun(normalizedIPCTable, "Fig 15: direct encryption latency sweep", []namedConfig{
			{"direct_40", cfgDirect(40)},
			{"direct_80", cfgDirect(80)},
			{"direct_160", cfgDirect(160)},
		}),
	}
}

func expFig16() Experiment {
	return Experiment{
		ID:           "fig16",
		Title:        "Fig 16: Direct vs counter-mode encryption",
		PaperFinding: "counter mode without integrity already costs 33.06% (66.44% for lbm); +BMT raises it to 43.94%; direct is near-free",
		Run: expRun(normalizedIPCTable, "Fig 16: direct vs counter-mode encryption", []namedConfig{
			{"direct_40", cfgDirect(40)},
			{"ctr", cfgCtr()},
			{"ctr_bmt", cfgCtrBMT()},
		}),
	}
}

func expFig17() Experiment {
	return Experiment{
		ID:           "fig17",
		Title:        "Fig 17: Encryption with integrity protection",
		PaperFinding: "direct_mac -42.65% beats ctr_mac_bmt -63.45%; direct_mac_mt is worst at -71.87% (taller tree)",
		Run: expRun(normalizedIPCTable, "Fig 17: integrity protection designs", []namedConfig{
			{"ctr_mac_bmt", SecureMemConfig()},
			{"direct_mac", DirectMemConfig(40, true, false)},
			{"direct_mac_mt", DirectMemConfig(40, true, true)},
		}),
	}
}

// --- Ablations of design choices called out in DESIGN.md ---

func ablationBenchmarks(c *Context) []string {
	// One per class keeps ablations cheap but representative.
	all := map[string]bool{}
	for _, b := range c.Benchmarks() {
		all[b] = true
	}
	var out []string
	for _, b := range []string{"b+tree", "kmeans", "fdtd2d", "lbm"} {
		if all[b] {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		out = c.Benchmarks()
	}
	return out
}

func ablationTable(c *Context, title string, schemes []namedConfig) *report.Table {
	return normalizedIPCTableOf(c, title, schemes, ablationBenchmarks(c))
}

func expAblationMergeCap() Experiment {
	small := SecureMemConfig()
	small.Secure.MergeCapCounter = 8
	small.Secure.MergeCapMAC = 8
	small.Secure.MergeCapTree = 8
	return Experiment{
		ID:           "ablation-mergecap",
		Title:        "Ablation: MSHR merge capacity 512/64/64 vs uniform small caps",
		PaperFinding: "(design choice) counter MSHRs must merge up to 512 requests (one counter line covers 512 sectors)",
		Run: expRun(ablationTable, "Ablation: MSHR merge capacity", []namedConfig{
			{"cap 512/64/64", SecureMemConfig()},
			{"cap 8/8/8", small},
		}),
	}
}

func expAblationAllocPolicy() Experiment {
	aom := SecureMemConfig()
	aom.Secure.AllocOnFill = false
	return Experiment{
		ID:           "ablation-allocpolicy",
		Title:        "Ablation: allocate-on-fill vs allocate-on-miss metadata caches",
		PaperFinding: "(design choice) the paper uses allocate-on-fill",
		Run: expRun(ablationTable, "Ablation: metadata cache allocation policy", []namedConfig{
			{"allocate-on-fill", SecureMemConfig()},
			{"allocate-on-miss", aom},
		}),
	}
}

func expAblationSpecVerify() Experiment {
	blocking := SecureMemConfig()
	blocking.Secure.SpeculativeVerify = false
	return Experiment{
		ID:           "ablation-specverify",
		Title:        "Ablation: speculative vs blocking integrity verification",
		PaperFinding: "(design choice) state-of-the-art CPUs use speculative verification; blocking exposes MAC latency",
		Run: expRun(ablationTable, "Ablation: verification policy", []namedConfig{
			{"speculative", SecureMemConfig()},
			{"blocking", blocking},
		}),
	}
}

func expAblationLazyUpdate() Experiment {
	eager := SecureMemConfig()
	eager.Secure.LazyTreeUpdate = false
	return Experiment{
		ID:           "ablation-lazyupdate",
		Title:        "Ablation: lazy vs eager integrity-tree update",
		PaperFinding: "(design choice) lazy update defers parent hashing to metadata eviction time",
		Run: expRun(ablationTable, "Ablation: tree update policy", []namedConfig{
			{"lazy", SecureMemConfig()},
			{"eager", eager},
		}),
	}
}

func expAblationSectoredL2() Experiment {
	return Experiment{
		ID:           "ablation-sectoredl2",
		Title:        "Ablation: sectored vs non-sectored L2",
		PaperFinding: "the sectored L2 is the root cause of secondary metadata misses (Section V-B)",
		Run: func(c *Context) []*report.Table {
			nonsec := cfgSecureNoMSHR()
			nonsec.SectoredL2 = false
			nonsecBase := BaselineConfig()
			nonsecBase.SectoredL2 = false
			t := report.New("Ablation: sectored L2 and secondary metadata misses",
				"benchmark", "sectored ctr-2ndary", "non-sectored ctr-2ndary", "sectored mac-2ndary", "non-sectored mac-2ndary")
			for _, b := range ablationBenchmarks(c) {
				rs := c.Run(cfgSecureNoMSHR(), b)
				rn := c.Run(nonsec, b)
				t.AddRow(b,
					report.Pct(rs.Meta[sim.MetaCounter].SecondaryRatio()),
					report.Pct(rn.Meta[sim.MetaCounter].SecondaryRatio()),
					report.Pct(rs.Meta[sim.MetaMAC].SecondaryRatio()),
					report.Pct(rn.Meta[sim.MetaMAC].SecondaryRatio()))
			}
			return []*report.Table{t}
		},
	}
}

func expExtSmartUnified() Experiment {
	mkUnified := func(p cache.Policy) Config {
		cfg := cfgUnified()
		cfg.Secure.UnifiedPolicy = p
		return cfg
	}
	return Experiment{
		ID:    "ext-smartunified",
		Title: "Extension: smart replacement policies for the unified metadata cache",
		PaperFinding: "(suggested future work, Section V-D) 'use separate metadata caches or adopt smart " +
			"replacement policies to avoid the thrashing behavior'",
		Run: expRun(normalizedIPCTable, "Extension: unified metadata cache replacement policies", []namedConfig{
			{"separate (lru)", SecureMemConfig()},
			{"unified lru", mkUnified(cache.PolicyLRU)},
			{"unified srrip", mkUnified(cache.PolicySRRIP)},
			{"unified brrip", mkUnified(cache.PolicyBRRIP)},
			{"unified dip", mkUnified(cache.PolicyDIP)},
		}),
	}
}

func expExtSelective() Experiment {
	mk := func(frac float64) Config {
		cfg := SecureMemConfig()
		cfg.Secure.ProtectedFraction = frac
		return cfg
	}
	return Experiment{
		ID:    "ext-selective",
		Title: "Extension: selective encryption coverage",
		PaperFinding: "(related work, Zuo et al.) selective memory encryption trades coverage for " +
			"overhead; the paper's design protects everything",
		Run: expRun(normalizedIPCTable, "Extension: fraction of memory protected (ctr_mac_bmt)", []namedConfig{
			{"100%", mk(1.0)},
			{"50%", mk(0.5)},
			{"25%", mk(0.25)},
			{"0%", mk(0.0)},
		}),
	}
}

func expExtFaultCoverage() Experiment {
	return Experiment{
		ID:    "ext-faultcoverage",
		Title: "Extension: fault-injection detection coverage",
		PaperFinding: "(Section II threat model) the active adversary tampers with off-chip data " +
			"and metadata; sector MACs catch data corruption, the BMT catches counter " +
			"corruption — coverage falls as protection layers are removed",
		Run: func(c *Context) []*report.Table {
			plan := &faults.Plan{Seed: 0xfa17, Rate: 5e-3, Sites: faults.FlipSites}
			levels := []namedConfig{
				{"baseline (no protection)", BaselineConfig()},
				{"ctr (encryption only)", schemes["ctr"]()},
				{"ctr_bmt (no data MACs)", schemes["ctr_bmt"]()},
				{"ctr_mac_bmt (secureMem)", SecureMemConfig()},
			}
			t := report.New("Cycle-level campaign: DRAM data/metadata bit-flips ("+plan.String()+")",
				"protection", "benchmark", "corruptions", "detected", "silent", "coverage")
			for _, lv := range levels {
				var det, sil uint64
				for _, b := range ablationBenchmarks(c) {
					cfg := lv.Cfg
					cfg.Faults = plan
					f := c.Run(cfg, b).Faults
					det += f.Detected
					sil += f.Silent
					t.AddRow(lv.Name, b, f.Corruptions(), f.Detected, f.Silent,
						report.Pct(f.DetectionRate()))
				}
				t.AddRow(lv.Name, "all", det+sil, det, sil, report.Pct(stats.Ratio(det, det+sil)))
			}
			return []*report.Table{t, faultGroundTruth(plan)}
		},
	}
}

// faultGroundTruth replays the campaign's bit-flips against the real
// functional secure-memory engine — the cycle-level table above models
// detection structurally; this one actually corrupts a backing store
// and lets the cryptography speak for itself.
func faultGroundTruth(plan *FaultPlan) *report.Table {
	const size = 1 << 18 // 256 KB protected region
	t := report.New("Functional ground truth: the same flips against the real engine (VerifyAll scrub)",
		"protection", "flip target", "flips", "violations", "outcome")

	for _, p := range []struct {
		Name string
		Prot Protection
	}{
		{"full (enc+MAC+BMT)", FullProtection},
		{"none (Protection{})", Protection{}},
	} {
		for _, target := range []string{"data", "counters"} {
			eng, err := NewCounterModeMemory(size, Keys{}, p.Prot)
			if err != nil {
				panic(err)
			}
			line := make([]byte, geometry.LineSize)
			for addr := uint64(0); addr < size; addr += geometry.LineSize {
				for i := range line {
					line[i] = byte(addr>>7) + byte(i)*3
				}
				if err := eng.WriteLine(addr, line); err != nil {
					panic(err)
				}
			}
			lay := eng.Layout()
			base, limit := uint64(0), lay.DataBytes
			if target == "counters" {
				base, limit = lay.CounterBase, lay.MACBase-lay.CounterBase
			}
			flips := plan.FlipAddrs(64, limit)
			b := eng.Backing()
			var one [1]byte
			for _, f := range flips {
				b.Read(base+f.Addr, one[:])
				one[0] ^= 1 << f.Bit
				b.Write(base+f.Addr, one[:])
			}
			rep := eng.VerifyAll()
			outcome := "all flips silent"
			if !rep.OK() {
				outcome = "tampering detected"
			}
			t.AddRow(p.Name, target, len(flips), len(rep.Violations), outcome)
		}
	}
	return t
}

// expExtLatency turns the probe layer on the paper's protection
// ladder: request-lifecycle spans partition every data-request cycle
// across pipeline stages (queue/l2/dram/meta/aes/verify), and the
// metadata traffic kinds (ctr/mac/bmt) carry their own DRAM-residency
// totals. The second table settles the "is it the AES latency or the
// metadata traffic?" question quantitatively: metadata cycles are the
// data path's meta-wait stage plus the total cycles of the ctr/mac/bmt
// spans the scheme generated; AES cycles are the data path's aes
// stage. With speculative verification the data path rarely *waits* on
// metadata, but the metadata traffic itself occupies the memory system
// for far more cycles than encryption ever does.
func expExtLatency() Experiment {
	return Experiment{
		ID:    "ext-latency",
		Title: "Extension: cycle-domain latency attribution",
		PaperFinding: "(Section IV-B analysis) secure-memory slowdown comes from extra metadata " +
			"traffic, not AES latency — attribution shows metadata cycles dwarf AES cycles " +
			"for ctr_mac_bmt on memory-bound workloads",
		Run: func(c *Context) []*report.Table {
			levels := []namedConfig{
				{"baseline", BaselineConfig()},
				{"ctr", schemes["ctr"]()},
				{"ctr_bmt", schemes["ctr_bmt"]()},
				{"ctr_mac_bmt", SecureMemConfig()},
				{"direct_mac_mt", schemes["direct_mac_mt"]()},
				{"scattered", schemes["scattered"]()},
				{"sw_crypto", schemes["sw_crypto"]()},
			}
			pc := &probe.Config{Spans: true}
			stagesT := report.New("Data-request latency attribution (share of data-path cycles)",
				"scheme", "benchmark", "spans", "mean", "p95",
				"queue", "l2", "dram", "meta", "aes", "verify", "share", "combine")
			metaT := report.New("Metadata cycles vs AES cycles (data meta-wait + metadata traffic residency)",
				"scheme", "benchmark", "data meta", "ctr", "mac", "bmt", "smap", "key", "metadata total", "aes", "meta/aes")
			for _, lv := range levels {
				for _, b := range ablationBenchmarks(c) {
					cfg := lv.Cfg
					cfg.Probe = pc
					res := c.Run(cfg, b)
					sp := probeSpans(res)
					if sp == nil {
						continue // planning placeholder
					}
					data := sp.Kind("data")
					if data == nil {
						continue
					}
					share := func(stage string) report.Num {
						return report.Pct(stats.Ratio(sp.Stage("data", stage), data.TotalCycles))
					}
					stagesT.AddRow(lv.Name, b, data.Spans,
						report.Num{V: data.MeanLatency, F: report.Fixed0}, data.P95,
						share("queue"), share("l2"), share("dram"),
						share("meta"), share("aes"), share("verify"),
						share("share"), share("combine"))
					traffic := func(kind string) uint64 {
						if k := sp.Kind(kind); k != nil {
							return k.TotalCycles
						}
						return 0
					}
					dmeta := sp.Stage("data", "meta")
					ctr, mac, bmt := traffic("ctr"), traffic("mac"), traffic("bmt")
					smap, key := traffic("smap"), traffic("key")
					metaTotal := dmeta + ctr + mac + bmt + smap + key
					aes := sp.Stage("data", "aes")
					var ratio any = "-"
					if aes > 0 {
						ratio = report.F3(float64(metaTotal) / float64(aes))
					}
					metaT.AddRow(lv.Name, b, dmeta, ctr, mac, bmt, smap, key, metaTotal, aes, ratio)
				}
			}
			return []*report.Table{stagesT, metaT}
		},
	}
}

// expExtDesignspace grows the paper's design space sideways: the
// hardware schemes it evaluates (counter mode, direct encryption) are
// compared against two post-paper families — Secure Scattered Memory
// (secret-shared placement, arXiv:2402.15824) and MemShield-style
// software encryption (arXiv:2004.09252) — on the same benchmarks,
// with the same normalized-IPC metric plus each family's own traffic
// and metadata-structure costs. Scattered trades the whole AES/MAC/BMT
// stack for a k-times data-traffic multiplier and a share-map cache;
// software crypto trades all hardware for a serial software cipher
// whose key reads are uncached.
func expExtDesignspace() Experiment {
	return Experiment{
		ID:    "ext-designspace",
		Title: "Extension: design-space comparison across scheme families",
		PaperFinding: "(beyond the paper) finding 4 generalizes: the families win or lose on " +
			"memory traffic and critical-path serialization, not cipher strength — scattered's " +
			"k-way fan-out behaves like a bandwidth tax, software crypto like a latency wall",
		Run: func(c *Context) []*report.Table {
			families := []namedConfig{
				{"ctr_mac_bmt", SecureMemConfig()},
				{"direct_mac_mt", schemes["direct_mac_mt"]()},
				{"scattered_k2", ScatteredMemConfig(2)},
				{"scattered_k4", ScatteredMemConfig(4)},
				{"sw_crypto_80", SWCryptoConfig(80)},
				{"sw_crypto_320", SWCryptoConfig(320)},
			}
			ipcT := normalizedIPCTable(c, "Normalized IPC across scheme families", families)
			trafficT := report.New("DRAM request mix by traffic kind (share of the scheme's requests)",
				"scheme", "benchmark", "requests",
				"data", "ctr", "mac", "bmt", "wb", "share", "smap", "key", "vs baseline")
			metaT := report.New("Metadata structures: accesses and miss behaviour",
				"scheme", "benchmark", "type", "accesses", "miss rate", "secondary")
			for _, f := range families {
				for _, b := range ablationBenchmarks(c) {
					res := c.Run(f.Cfg, b)
					base := c.Run(BaselineConfig(), b)
					row := []any{f.Name, b, res.TotalRequests()}
					for k := sim.KindData; k < sim.TrafficKind(len(res.RequestsByKind)); k++ {
						row = append(row, report.Pct(res.RequestShare(k)))
					}
					var overhead any = "-"
					if br := base.TotalRequests(); br > 0 {
						overhead = report.F3(float64(res.TotalRequests()) / float64(br))
					}
					row = append(row, overhead)
					trafficT.AddRow(row...)
					for m := sim.MetaKind(0); m < sim.MetaKind(len(res.Meta)); m++ {
						ms := res.Meta[m]
						if ms.Accesses == 0 {
							continue
						}
						metaT.AddRow(f.Name, b, m.String(), ms.Accesses,
							report.Pct(ms.MissRate()), report.Pct(ms.SecondaryRatio()))
					}
				}
			}
			return []*report.Table{ipcT, trafficT, metaT}
		},
	}
}

// probeSpans extracts a run's span report, nil when the run was a
// planning placeholder or carried no probe.
func probeSpans(res *Result) *probe.SpansReport {
	if res.Probe == nil {
		return nil
	}
	return res.Probe.Spans
}

// SortedIDs returns the experiment ids in registry order (useful for
// CLI help).
func SortedIDs() []string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// GmeanNormalizedIPC is a convenience used by benches and tests: the
// geometric-mean normalized IPC of cfg across the context's
// benchmarks, read from the gmean cell of its normalized-IPC table.
func GmeanNormalizedIPC(c *Context, cfg Config) float64 {
	t := normalizedIPCTable(c, "", []namedConfig{{"", cfg}})
	g, _ := t.Value(len(t.Rows)-1, 1)
	return g
}
