// Command benchsuite is the gpusecmem repository benchmark. It runs
// four named workloads that between them exercise every layer of the
// program the way its users do:
//
//   - paper-sweep: the paper's whole evaluation — all 32 experiments,
//     every scheme and benchmark — through the runner and run memo.
//   - long-run: single long simulations on the sharded engine, the
//     mode a one-answer request uses.
//   - serve-read: a two-node secmemd cluster answering reads from its
//     memory, disk and peer tiers.
//   - serve-write: the same cluster computing new answers, cold and
//     resumed from checkpoints.
//
// A workload run makes its inputs from -seed, measures a window of
// -seconds, checks that every output is correct, and prints one JSON
// line: end-to-end metrics when untraced, per-layer metrics when
// traced. A traced run adds, from outside the program, a CPU profile
// attributed to layers and timing wrappers around the stores, the
// peer transport and the HTTP handler, and writes the spans as Chrome
// trace JSON. README.md lists the metrics, what moves them, and why
// each workload exists.
//
// Usage, from the repository root (run.sh builds, then runs):
//
//	bash benchsuite/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
//	bash benchsuite/run.sh -suite -seed 1 -runs 5 -out a.json [-trace 1]
//	bash benchsuite/run.sh -suite-compare a.json b.json
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// buildDir, relative to the repository root, is where run.sh builds
// and where runs keep their scratch stores, profiles and span files.
const buildDir = ".bench_build"

// workload is one named benchmark input.
type workload struct {
	name string
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps int
	// setup builds a fresh environment, instrumented when tr is non-nil.
	setup func(b *bench, tr *tracer) (env, error)
}

// env is one set-up workload, ready to measure.
type env interface {
	// measure runs the measured window into t, pausing about once a
	// second for a calibration reading when cal is non-nil.
	measure(ctx context.Context, t *tally, cal *calibrator) error
	// verify runs the untimed checks that follow a window; a traced
	// run's may also take per-layer readings that must stay out of the
	// profile.
	verify(t *tally) error
	close()
}

var workloads = []*workload{paperSweep, longRun, serveRead, serveWrite}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// size is the scale of every workload. The benchmark runs fullSize;
// tests run a toy size with its own pinned digests.
type size struct {
	name            string // key of its digests in testdata/pins.json
	sweepCycles     uint64
	sweepBenchmarks []string // nil: all of Table IV
	longCycles      uint64
	longPoints      []point
	readKeys        int
	readCycles      uint64
	readLRU         int // each node's in-memory result LRU
	writePairs      []point
	writeCycles     uint64
	writeResim      int // resumed answers re-simulated after the window
}

var fullSize = size{
	name: "full",
	// A whole sweep at 300 cycles takes about 4 s on a 2-core host, so a
	// window holds several sweeps and no run rests on a single one.
	sweepCycles: 300,
	// 24000 cycles is the default horizon of an /api/run request and of
	// the experiments CLI. These four points keep a steady IPC that far,
	// where fdtd2d and lbm drain into idle skipping.
	longCycles: 24000,
	longPoints: []point{
		{"ctr_mac_bmt", "b+tree"}, {"direct_mac_mt", "srad_v2"},
		{"scattered", "streamcluster"}, {"ctr_bmt", "2Dconvolution"},
	},
	// 96 keys against a 32-entry LRU per node: requests split about a
	// third each across the memory, disk and peer tiers. Results are
	// the same size at any horizon, so warming at 200 cycles keeps
	// set-up short without changing the read path.
	readKeys:   96,
	readCycles: 200,
	readLRU:    32,
	// One pair per scheme family the AES-latency knob reaches, on
	// benchmarks whose cold and resumed costs are alike, so a round's
	// cost barely depends on its order.
	writePairs: []point{
		{"ctr_mac_bmt", "b+tree"}, {"direct_mac_mt", "srad_v2"},
		{"scattered", "streamcluster"}, {"ctr_bmt", "dwt2d"},
		{"sw_crypto", "bfs"}, {"unified", "kmeans"},
		{"ctr", "lavaMD"}, {"direct_mac", "heartwall"},
	},
	writeCycles: 1000,
	writeResim:  8,
}

// sizePins are the digests a size's outputs must reproduce.
type sizePins struct {
	// Sweep maps an experiment ID to the sha256 of its markdown, byte for
	// byte what `cmd/experiments -format md -out` writes.
	Sweep map[string]string `json:"sweep"`
	// Points maps scheme/bench to the sha256 of its Result JSON at
	// longCycles on the sequential engine.
	Points map[string]string `json:"points"`
}

//go:embed testdata/pins.json
var pinsJSON []byte

func loadPins(name string) (sizePins, error) {
	var all map[string]sizePins
	if err := json.Unmarshal(pinsJSON, &all); err != nil {
		return sizePins{}, fmt.Errorf("testdata/pins.json: %w", err)
	}
	p, ok := all[name]
	if !ok {
		return sizePins{}, fmt.Errorf("testdata/pins.json has no %q digests", name)
	}
	return p, nil
}

// bench is one workload run's settings.
type bench struct {
	seed    int64
	window  time.Duration
	size    size
	pins    sizePins
	workdir string // scratch for stores and profiles; removed after the run
	dirs    atomic.Int64
}

// rand returns a generator for one input stream of this seed.
func (b *bench) rand(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(b.seed*1_000_003 + stream))
}

// scratch names a fresh directory under the run's scratch space.
func (b *bench) scratch(name string) string {
	return filepath.Join(b.workdir, fmt.Sprintf("%s%d", name, b.dirs.Add(1)))
}

// metric is one reading. Samples is the number of observations a
// timing summarizes.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// endToEndUnits are the gated metrics, reported by every workload
// untraced; BENCHMARK.json fixes their bounds. The two timings count
// CPU time, not wall time: on a shared host the hypervisor takes vCPUs
// away for stretches (steal), which spread wall-clock readings over ten
// seeds by up to 50% while the same runs' CPU time spread at most 16%.
var endToEndUnits = map[string]string{
	"cpu_ms_per_op": "ms",
	"peak_rss_mb":   "MB",
	"setup_s":       "s",
}

// wallUnits are the untraced window's wall-clock readings. Too noisy to
// gate on a shared host, they are recorded, and a traced run reports
// them as per-layer metrics named "wall.<name>".
var wallUnits = map[string]string{
	"ops_per_s":      "1/s",
	"latency_p50_ms": "ms",
	"latency_p90_ms": "ms",
}

// wallMetrics are a window's wall-clock readings.
func wallMetrics(t *tally) map[string]metric {
	n := len(t.lat)
	return map[string]metric{
		"ops_per_s":      {Value: float64(n) / t.seconds, Unit: "1/s", Samples: n},
		"latency_p50_ms": {Value: percentile(t.lat, 0.50), Unit: "ms", Samples: n},
		"latency_p90_ms": {Value: percentile(t.lat, 0.90), Unit: "ms", Samples: n},
	}
}

// simLayers are the layers whose CPU time is simulator work.
var simLayers = []string{"smcore", "icnt", "cache", "partition", "dram", "eventq", "trace", "sim", "shard"}

// servingTiers are the /api/run answer sources.
var servingTiers = []string{"memory", "disk", "peer", "resumed", "simulated"}

// perLayerUnits are the traced run's metrics. Each workload reports
// all of them; a layer the workload does not exercise reads 0.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"sim.cycles":                        "count",
		"smcore.instructions":               "count",
		"cache.l2_accesses":                 "count",
		"cache.l2_hit_ratio":                "ratio",
		"partition.meta_accesses":           "count",
		"partition.meta_miss_ratio":         "ratio",
		"dram.requests":                     "count",
		"dram.meta_request_share":           "ratio",
		"dram.row_hit_ratio":                "ratio",
		"dram.host_ns_per_request":          "ns",
		"partition.host_ns_per_meta_access": "ns",
		"smcore.host_ns_per_kinst":          "ns",
		"sim.host_ns_per_cycle":             "ns",
		"sim.allocs_per_kcycle":             "count",
		"shard.speedup":                     "ratio",
		"shard.speedup_min":                 "ratio",
		"shard.cpu_util":                    "ratio",
		"runner.busy_share":                 "ratio",
		"memo.hit_ratio":                    "ratio",
		"report.render_s":                   "s",
		"resultcache.get_p50_us":            "us",
		"resultcache.getraw_p50_us":         "us",
		"resultcache.put_p50_us":            "us",
		"resultcache.putraw_p50_us":         "us",
		"cluster.fetch_p50_us":              "us",
		"cluster.forward_p50_us":            "us",
		"checkpoint.put_p50_us":             "us",
		"checkpoint.latest_p50_us":          "us",
		"checkpoint.put_bytes_mean":         "bytes",
		"daemon.handler_p50_us":             "us",
		"net.client_overhead_p50_us":        "us",
		"trace.overhead":                    "ratio",
		"trace.spans":                       "count",
	}
	for _, l := range cpuLayers {
		u[cpuShareName(l)] = "ratio"
	}
	for name, unit := range wallUnits {
		u["wall."+name] = unit
	}
	for _, s := range servingTiers {
		u["daemon.tier_share."+s] = "ratio"
		u["daemon."+s+"_p50_ms"] = "ms"
	}
	return u
}()

func cpuShareName(layer string) string {
	switch layer {
	case "runtime.gc":
		return "runtime.gc_share"
	case "runtime.sched":
		return "runtime.sched_share"
	}
	return layer + ".cpu_share"
}

// record is everything one workload run measured. -out writes it; the
// suite keeps one per workload per run.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Host      hostInfo           `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]metric  `json:"end_to_end"`
	Wall      map[string]metric  `json:"wall,omitempty"`
	PerLayer  map[string]metric  `json:"per_layer,omitempty"`
	Detail    map[string]float64 `json:"detail,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	Spans     string             `json:"spans,omitempty"`
	Error     string             `json:"error,omitempty"`
}

// hostInfo describes where and when a run was measured.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Start      string `json:"start"`
	// HostRefS is the first calibration reading (calib.go), taken before
	// set-up: the CPU time of a fixed sha256, pointer-chase and map
	// kernel that runs no program code. It is recorded, not gated.
	HostRefS float64 `json:"host_ref_s"`
	// Slowness is the median of the run's calibration readings over the
	// reference reading; the gated CPU times are divided by it, so
	// end_to_end times Slowness is what was measured.
	Slowness float64 `json:"slowness"`
}

func hostMeta() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Start:      time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	return h
}

// cpuTime is this process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runWorkload sets the workload up setupReps times, measures one
// untraced window on the last set-up, and, when traced, measures a
// second, instrumented window on a fresh set-up.
func runWorkload(ctx context.Context, b *bench, w *workload, traced bool, spansPath string) (rec record, err error) {
	rec = record{Workload: w.name, Seed: b.seed, Seconds: int(b.window / time.Second), Traced: traced, Host: hostMeta()}
	cal := newCalibrator()
	rec.Host.HostRefS = cal.sample()
	// The first reading, on cold caches and fresh threads, reads high; it
	// is kept as host_ref_s but not counted in the slowness.
	cal.readings = cal.readings[:0]

	// Each timed phase starts from a collected heap, so garbage left by
	// an earlier phase cannot land a GC cycle in it.
	var setups []float64
	var e env
	for i := 0; i < w.setupReps; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		cpu0 := cpuTime()
		if e, err = w.setup(b, nil); err != nil {
			return rec, err
		}
		setups = append(setups, (cpuTime() - cpu0).Seconds())
	}
	var t tally
	runtime.GC()
	cal.sampleN(calibEdgeReadings)
	n0 := len(cal.readings)
	cpu0 := cpuTime()
	err = e.measure(ctx, &t, cal)
	cpu := (cpuTime() - cpu0).Seconds()
	for _, r := range cal.readings[n0:] {
		cpu -= r
	}
	cal.sampleN(calibEdgeReadings)
	if err == nil {
		err = e.verify(&t)
	}
	e.close()
	if err != nil {
		return rec, err
	}
	if len(t.lat) == 0 || t.seconds <= 0 {
		return rec, fmt.Errorf("%s: the window completed no operations", w.name)
	}
	// Scale the CPU times to the reference host speed: on a host running
	// slow by a factor s, the same instructions take s times the CPU time.
	rec.Host.Slowness = cal.slowness()
	rec.EndToEnd = map[string]metric{
		"cpu_ms_per_op": {Value: cpu * 1e3 / float64(len(t.lat)) / rec.Host.Slowness, Unit: "ms", Samples: len(t.lat)},
		"peak_rss_mb":   {Value: peakRSSMB(), Unit: "MB"},
		"setup_s":       {Value: median(setups) / rec.Host.Slowness, Unit: "s", Samples: len(setups)},
	}
	rec.Wall = wallMetrics(&t)
	rec.Detail = map[string]float64{}
	for _, s := range servingTiers {
		if n := len(t.tiers[s]); n > 0 {
			rec.Detail["tier_share "+s] = float64(n) / float64(len(t.lat))
			rec.Detail["tier_p50_ms "+s] = median(t.tiers[s])
		}
	}
	rec.Attempted, rec.Failed, rec.Failures = t.attempted, t.failed, t.failures

	if traced {
		var tt tally
		tr := newTracer()
		if tt, err = measureTraced(ctx, b, w, tr); err != nil {
			return rec, err
		}
		rec.PerLayer = perLayer(&t, &tt, tr)
		rec.Attempted += tt.attempted
		rec.Failed += tt.failed
		rec.Failures = append(rec.Failures, tt.failures...)
		for k, v := range tt.detail {
			rec.Detail[k] = v
		}
		if spansPath != "" {
			if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
				return rec, err
			}
			if err := tr.writeChrome(spansPath); err != nil {
				return rec, fmt.Errorf("write spans: %w", err)
			}
			rec.Spans = spansPath
		}
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// measureTraced runs the instrumented window: a fresh set-up with the
// tracer's wrappers, a CPU profile over the window, then the
// workload's checks, outside the profile.
func measureTraced(ctx context.Context, b *bench, w *workload, tr *tracer) (tally, error) {
	var t tally
	e, err := w.setup(b, tr)
	if err != nil {
		return t, err
	}
	defer e.close()
	tr.reset()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	prof, err := startProfile(filepath.Join(b.workdir, "cpu.pprof"))
	if err != nil {
		return t, err
	}
	err = e.measure(ctx, &t, nil)
	byLayer, perr := prof.stop()
	runtime.ReadMemStats(&m1)
	if err = errors.Join(err, perr); err != nil {
		return t, err
	}
	cpu := map[string]float64{}
	for l, d := range byLayer {
		cpu[l] = float64(d.Nanoseconds())
	}
	for l, s := range shares(byLayer) {
		t.setExtra(cpuShareName(l), s)
	}
	var simNS float64
	for _, l := range simLayers {
		simNS += cpu[l]
	}
	wk := t.work
	t.setExtra("dram.host_ns_per_request", ratio(cpu["dram"], wk.dramRequests))
	t.setExtra("partition.host_ns_per_meta_access", ratio(cpu["partition"], wk.metaAccesses))
	t.setExtra("smcore.host_ns_per_kinst", ratio(cpu["smcore"], wk.instructions/1e3))
	t.setExtra("sim.host_ns_per_cycle", ratio(simNS, wk.cycles))
	t.setExtra("sim.allocs_per_kcycle", ratio(float64(m1.Mallocs-m0.Mallocs), wk.cycles/1e3))
	return t, e.verify(&t)
}

// perLayer assembles the traced run's metrics from the untraced window
// u (tier mix and latencies, which tracing would distort), the traced
// window t, and the tracer's call timings.
func perLayer(u, t *tally, tr *tracer) map[string]metric {
	out := make(map[string]metric, len(perLayerUnits))
	set := func(name string, v float64, samples int) {
		unit, ok := perLayerUnits[name]
		if !ok {
			panic("benchsuite: undeclared per-layer metric " + name)
		}
		out[name] = metric{Value: v, Unit: unit, Samples: samples}
	}
	for name := range perLayerUnits {
		set(name, 0, 0)
	}
	for name, v := range t.extra {
		set(name, v, 0)
	}
	wk := t.work
	set("sim.cycles", wk.cycles, wk.sims)
	set("smcore.instructions", wk.instructions, wk.sims)
	set("cache.l2_accesses", wk.l2Accesses, wk.sims)
	set("cache.l2_hit_ratio", ratio(wk.l2Hits, wk.l2Accesses), wk.sims)
	set("partition.meta_accesses", wk.metaAccesses, wk.sims)
	set("partition.meta_miss_ratio", ratio(wk.metaMisses, wk.metaAccesses), wk.sims)
	set("dram.requests", wk.dramRequests, wk.sims)
	set("dram.meta_request_share", ratio(wk.metaRequests, wk.dramRequests), wk.sims)
	set("dram.row_hit_ratio", ratio(wk.rowHits, wk.rowAccesses), wk.sims)

	served := 0
	for _, s := range servingTiers {
		served += len(u.tiers[s])
	}
	for _, s := range servingTiers {
		set("daemon.tier_share."+s, ratio(float64(len(u.tiers[s])), float64(served)), served)
		set("daemon."+s+"_p50_ms", median(u.tiers[s]), len(u.tiers[s]))
	}
	set("net.client_overhead_p50_us", median(t.overhead), len(t.overhead))
	if len(u.lat) > 0 {
		for name, m := range wallMetrics(u) {
			set("wall."+name, m.Value, m.Samples)
		}
	}
	if len(u.lat) > 0 && len(t.lat) > 0 {
		set("trace.overhead", 1-ratio(float64(len(t.lat))/t.seconds, float64(len(u.lat))/u.seconds), 0)
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, c := range []string{
		"resultcache.get", "resultcache.getraw", "resultcache.put", "resultcache.putraw",
		"cluster.fetch", "cluster.forward", "checkpoint.put", "checkpoint.latest",
	} {
		set(c+"_p50_us", median(tr.calls[c]), len(tr.calls[c]))
	}
	set("checkpoint.put_bytes_mean", mean(tr.putBytes), len(tr.putBytes))
	handled := make([]float64, 0, len(tr.handled))
	for _, us := range tr.handled {
		handled = append(handled, us)
	}
	set("daemon.handler_p50_us", median(handled), len(handled))
	set("trace.spans", float64(len(tr.spans)+tr.dropped), 0)
	return out
}

// line is the benchmark's result: the last line of standard output.
type line struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func resultLine(rec record) ([]byte, error) {
	ms := rec.EndToEnd
	if rec.Traced {
		ms = rec.PerLayer
	}
	l := line{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]map[string]any{}}
	for name, m := range ms {
		l.Metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return json.Marshal(l)
}

// printRecord writes a human-readable summary of a record.
func printRecord(w io.Writer, rec record) {
	fmt.Fprintf(w, "%s seed=%d: %d ops and checks, %d failed, host_ref %.4fs, slowness %.3f\n",
		rec.Workload, rec.Seed, rec.Attempted, rec.Failed, rec.Host.HostRefS, rec.Host.Slowness)
	for _, sec := range []struct {
		title string
		ms    map[string]metric
	}{
		{"end to end (CPU times divided by the slowness)", rec.EndToEnd},
		{"wall clock (not gated)", rec.Wall},
		{"per layer", rec.PerLayer},
	} {
		if len(sec.ms) == 0 {
			continue
		}
		fmt.Fprintf(w, " %s:\n", sec.title)
		names := make([]string, 0, len(sec.ms))
		for n := range sec.ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := sec.ms[n]
			fmt.Fprintf(w, "  %-36s %14.6g %-6s", n, m.Value, m.Unit)
			if m.Samples > 0 {
				fmt.Fprintf(w, " n=%d", m.Samples)
			}
			fmt.Fprintln(w)
		}
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: paper-sweep, long-run, serve-read or serve-write")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 20, "length of the measured window")
		trace   = fs.Int("trace", 0, "1: also run a traced window and report per-layer metrics")
		out     = fs.String("out", "", "write the full record (or the suite's records) as JSON to this file")
		suite   = fs.Bool("suite", false, "run every workload, each in its own process")
		runs    = fs.Int("runs", 1, "suite: repeat the suite with seeds seed, seed+1, ...")
		compare = fs.Bool("suite-compare", false, "compare two suite records A B (arguments) against the BENCHMARK.json bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchsuite: -suite-compare needs two suite records")
			return 2
		}
		return suiteCompare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *suite:
		return runSuite(*seed, *runs, *seconds, *trace == 1, *out, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchsuite: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	pins, err := loadPins(fullSize.name)
	if err != nil {
		fmt.Fprintln(stderr, "benchsuite:", err)
		return 1
	}
	b := &bench{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		size:    fullSize,
		pins:    pins,
		workdir: filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
	}
	spansPath := ""
	if *trace == 1 {
		spansPath = filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
	}
	return runOne(b, w, *trace == 1, spansPath, *out, stdout, stderr)
}

// runOne runs one workload and prints its result line; it exits
// nonzero when the run fails or any output is wrong.
func runOne(b *bench, w *workload, traced bool, spansPath, out string, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchsuite:", err)
		return 1
	}
	defer os.RemoveAll(b.workdir)
	rec, err := runWorkload(context.Background(), b, w, traced, spansPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchsuite: %s: %v\n", w.name, err)
		return 1
	}
	printRecord(stderr, rec)
	if out != "" {
		if err := writeJSON(out, rec); err != nil {
			fmt.Fprintln(stderr, "benchsuite:", err)
			return 1
		}
	}
	raw, err := resultLine(rec)
	if err != nil {
		fmt.Fprintln(stderr, "benchsuite:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	if !rec.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}
