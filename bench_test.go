package gpusecmem

// One testing.B per reproduced table and figure. Each bench regenerates
// its experiment through the shared memoized context (so the suite as a
// whole simulates each distinct configuration once) and reports the
// experiment's headline number as a custom metric where one exists.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Absolute IPC values are not expected to match the paper (the
// substrate is a from-scratch simulator, not the authors' GPGPU-Sim
// testbed); the *shape* — which scheme wins, by roughly what factor —
// is the reproduction target and is recorded in EXPERIMENTS.md.

import (
	"io"
	"sync"
	"testing"
)

// benchCycles keeps the full suite tractable while preserving the
// steady-state comparisons; cmd/experiments defaults to 24000.
const benchCycles = 6000

var (
	benchCtxOnce sync.Once
	benchCtx     *Context
)

func sharedCtx() *Context {
	benchCtxOnce.Do(func() {
		benchCtx = NewContext(Options{Cycles: benchCycles})
	})
	return benchCtx
}

// runExperiment drives one experiment end to end, rendering its tables
// to io.Discard so formatting cost is included but output is not.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := ExperimentByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	ctx := sharedCtx()
	for i := 0; i < b.N; i++ {
		tables := e.Run(ctx)
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
		for _, t := range tables {
			if err := t.WriteText(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func reportGmean(b *testing.B, cfg Config) {
	b.Helper()
	b.ReportMetric(GmeanNormalizedIPC(sharedCtx(), cfg), "gmeanNormIPC")
}

func BenchmarkTable1Baseline(b *testing.B)        { runExperiment(b, "table1") }
func BenchmarkTable2MetadataStorage(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3MetaCacheConfig(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkTable4Workloads(b *testing.B)       { runExperiment(b, "table4") }
func BenchmarkTable5DesignMatrix(b *testing.B)    { runExperiment(b, "table5") }

func BenchmarkFig3CounterModeOverhead(b *testing.B) {
	runExperiment(b, "fig3")
	cfg := SecureMemConfig()
	cfg.Secure.MetaMSHRs = 0
	reportGmean(b, cfg)
}

func BenchmarkFig4TrafficBreakdown(b *testing.B) { runExperiment(b, "fig4") }

func BenchmarkFig5SecondaryMisses(b *testing.B) { runExperiment(b, "fig5") }

func BenchmarkFig6MSHRSweep(b *testing.B) {
	runExperiment(b, "fig6")
	reportGmean(b, SecureMemConfig()) // mshr_64 point
}

func BenchmarkFig7MetaCacheSize(b *testing.B) { runExperiment(b, "fig7") }

func BenchmarkFig8UnifiedVsSeparate(b *testing.B) { runExperiment(b, "fig8") }

func BenchmarkFig9MissRates(b *testing.B) { runExperiment(b, "fig9") }

func BenchmarkFig10CounterReuse(b *testing.B) { runExperiment(b, "fig10") }

func BenchmarkFig11MACReuse(b *testing.B) { runExperiment(b, "fig11") }

func BenchmarkFig12AESEngines(b *testing.B) { runExperiment(b, "fig12") }

func BenchmarkTable6AESAreas(b *testing.B) { runExperiment(b, "table6") }

func BenchmarkTable7Area(b *testing.B) { runExperiment(b, "table7") }

func BenchmarkFig13L2Capacity(b *testing.B) { runExperiment(b, "fig13") }

func BenchmarkFig14L2MissRate(b *testing.B) { runExperiment(b, "fig14") }

func BenchmarkFig15DirectLatency(b *testing.B) {
	runExperiment(b, "fig15")
	reportGmean(b, DirectMemConfig(40, false, false))
}

func BenchmarkFig16DirectVsCounter(b *testing.B) { runExperiment(b, "fig16") }

func BenchmarkFig17Integrity(b *testing.B) {
	runExperiment(b, "fig17")
	reportGmean(b, SecureMemConfig()) // ctr_mac_bmt point
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

func BenchmarkAblationMergeCap(b *testing.B)    { runExperiment(b, "ablation-mergecap") }
func BenchmarkAblationAllocPolicy(b *testing.B) { runExperiment(b, "ablation-allocpolicy") }
func BenchmarkAblationSpecVerify(b *testing.B)  { runExperiment(b, "ablation-specverify") }
func BenchmarkAblationLazyUpdate(b *testing.B)  { runExperiment(b, "ablation-lazyupdate") }
func BenchmarkAblationSectoredL2(b *testing.B)  { runExperiment(b, "ablation-sectoredl2") }

// BenchmarkExtSmartUnified evaluates the paper's Section V-D
// suggestion of thrash-resistant replacement for the unified cache.
func BenchmarkExtSmartUnified(b *testing.B) { runExperiment(b, "ext-smartunified") }

// BenchmarkExtSelective evaluates the related-work trade-off of
// protecting only part of device memory.
func BenchmarkExtSelective(b *testing.B) { runExperiment(b, "ext-selective") }

// BenchmarkExtFaultCoverage measures fault detection across
// protection levels under a deterministic injection campaign.
func BenchmarkExtFaultCoverage(b *testing.B) { runExperiment(b, "ext-faultcoverage") }

// BenchmarkFaultGroundTruth measures one uncached replay of the fault
// campaign against the functional engine, the work ext-faultcoverage
// does once per process.
func BenchmarkFaultGroundTruth(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(faultGroundTruthReplay()) != 4 {
			b.Fatal("ground truth lost a row")
		}
	}
}

// BenchmarkContextMemoHit measures the singleflight cache's hit path
// — key canonicalization plus map lookup — which every memoized
// request pays. It is the fixed overhead the parallel runner adds per
// shared run.
func BenchmarkContextMemoHit(b *testing.B) {
	ctx := NewContext(Options{Cycles: 1000, Benchmarks: []string{"nw"}})
	cfg := SecureMemConfig()
	ctx.Run(cfg, "nw") // warm the one entry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Run(cfg, "nw")
	}
}

// BenchmarkContextMemoHitParallel hammers the hit path from all procs,
// the contention profile of a sweep whose workers mostly share runs.
func BenchmarkContextMemoHitParallel(b *testing.B) {
	ctx := NewContext(Options{Cycles: 1000, Benchmarks: []string{"nw"}})
	cfg := SecureMemConfig()
	ctx.Run(cfg, "nw")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ctx.Run(cfg, "nw")
		}
	})
}

// BenchmarkRunKey isolates canonical-key construction (JSON encoding
// of the full Config).
func BenchmarkRunKey(b *testing.B) {
	cfg := SecureMemConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if RunKey(cfg, "nw") == "" {
			b.Fatal("empty key")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed
// (cycles/sec) on the heaviest configuration, for performance-tracking
// rather than paper reproduction.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := SecureMemConfig()
	cfg.MaxCycles = 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg, "fdtd2d"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.MaxCycles), "cycles/op")
}
