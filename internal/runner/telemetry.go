package runner

import (
	"sync"

	"gpusecmem/internal/telemetry"
)

// sweepInstruments are the sweep's progress counters in the
// process-wide telemetry registry, so the /metrics exposition (on the
// runner's -debug-addr or on secmemd) shows sweep progress alongside
// the serving metrics. The -progress ticker reads two run-local
// atomics instead; both are written from the same worker goroutines,
// and the registry handles are safe for concurrent scrapes.
type sweepInstruments struct {
	planned *telemetry.Gauge
	runs    *telemetry.CounterVec // outcome: ok|failed|cancelled
	sweeps  *telemetry.Counter
}

var (
	sweepMet     sweepInstruments
	sweepMetOnce sync.Once
)

func initSweepInstruments() {
	sweepMetOnce.Do(func() {
		reg := telemetry.Default
		sweepMet = sweepInstruments{
			planned: reg.Gauge("gpusecmem_sweep_planned_runs", "deduplicated simulations the current sweep planned"),
			runs:    reg.CounterVec("gpusecmem_sweep_runs_total", "sweep worker-pool runs by outcome", "outcome"),
			sweeps:  reg.Counter("gpusecmem_sweeps_total", "sweeps started in this process"),
		}
	})
}
