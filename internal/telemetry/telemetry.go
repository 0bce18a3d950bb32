// Package telemetry is the serving-layer metrics registry: a
// dependency-free counter/gauge/histogram store with Prometheus
// text-format exposition (GET /metrics), request trace IDs threaded
// through context.Context, and structured-logging helpers on log/slog.
//
// It is the request/sweep/cache-domain sibling of internal/probe's
// cycle-domain instruments, under the same discipline: telemetry only
// *observes* the serving layer (daemon, runner, cache tiers) and is
// never consulted by the simulator, so simulation results are
// byte-identical whether or not anything scrapes /metrics — the golden
// digest suite enforces it. All serving-layer counters live in one
// Registry (normally Default), and the /metrics exposition is its one
// view.
//
// Cardinality contract: label values must come from small fixed sets
// (route buckets, cache tiers, status codes, outcomes) — never from
// run keys, benchmarks, or request parameters. As a backstop every
// family bounds its series count (MaxSeries); once full, new label
// combinations fold into a single overflow series whose label values
// are all "_other", so a cardinality bug degrades to a coarse counter
// instead of unbounded memory.
//
// Concurrency and aliasing contract: a Registry and every handle it
// returns (Counter, Gauge, Histogram and their Vec forms) are safe for
// concurrent use by any number of goroutines; scrapes may race freely
// with updates. Registration is idempotent — asking for an existing
// family by name returns the same family (a kind or label-arity
// mismatch panics, a programmer error) — and Func collectors replace
// their callback on re-registration, which is what lets a restarted
// server re-arm its per-instance collectors.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpusecmem/internal/probe"
)

// DefaultMaxSeries bounds the distinct label combinations of one
// family before new combinations fold into the "_other" overflow
// series.
const DefaultMaxSeries = 64

// Default is the process-wide registry, in the spirit of the expvar
// package: the daemon, the runner, and the cache tiers all register
// here, and both /metrics endpoints (secmemd and the runner's
// -debug-addr) expose it.
var Default = NewRegistry()

// kind discriminates metric families.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families. Create with NewRegistry, or use
// Default.
type Registry struct {
	mu sync.Mutex
	// MaxSeries bounds per-family label cardinality for families
	// created after it is set (0 means DefaultMaxSeries).
	maxSeries int
	families  map[string]*family
}

// NewRegistry builds an empty registry with the default series bound.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// SetMaxSeries overrides the per-family series bound for families
// created afterwards (tests use a tiny bound to exercise overflow).
func (r *Registry) SetMaxSeries(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxSeries = n
}

// family is one named metric with a fixed label schema.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string

	mu       sync.Mutex
	series   map[string]*series // canonical label-value key -> series
	order    []string           // registration order (sorted at scrape)
	overflow *series            // all label values "_other"; lazily built
	max      int

	fn func() float64 // kindCounterFunc / kindGaugeFunc
}

// series is one label combination's live value. Exactly one of the
// value fields is used, per the family kind.
type series struct {
	values []string

	c atomic.Uint64 // counter
	g atomic.Uint64 // gauge, as math.Float64bits

	hmu sync.Mutex
	h   probe.Hist // histogram (log2 buckets, internal/probe's core)
}

// family returns (creating if needed) the named family, enforcing the
// idempotent-registration contract.
func (r *Registry) family(name, help string, k kind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k && !(isFunc(f.kind) && isFunc(k) && f.kind.String() == k.String()) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", name, k, f.kind))
		}
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: %s re-registered with %d labels (was %d)", name, len(labels), len(f.labels)))
		}
		return f
	}
	max := r.maxSeries
	if max <= 0 {
		max = DefaultMaxSeries
	}
	f := &family{name: name, help: help, kind: k, labels: labels, series: make(map[string]*series), max: max}
	r.families[name] = f
	return f
}

func isFunc(k kind) bool { return k == kindCounterFunc || k == kindGaugeFunc }

// with returns the series for one label-value combination, folding
// into the overflow series when the family is at its series bound.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s needs %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	if len(f.series) >= f.max {
		if f.overflow == nil {
			vals := make([]string, len(f.labels))
			for i := range vals {
				vals[i] = "_other"
			}
			f.overflow = &series{values: vals}
			okey := seriesKey(vals)
			f.series[okey] = f.overflow
			f.order = append(f.order, okey)
		}
		return f.overflow
	}
	vals := append([]string(nil), values...)
	s := &series{values: vals}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// seriesKey canonicalizes label values into a map key. \xff cannot
// appear in label values we emit (they are escaped at exposition, but
// the key only needs to be injective, and 0xff never appears in UTF-8
// text).
func seriesKey(values []string) string {
	if len(values) == 0 {
		return ""
	}
	n := 0
	for _, v := range values {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for _, v := range values {
		b = append(b, v...)
		b = append(b, 0xff)
	}
	return string(b)
}

// --- Counters ---

// Counter is a monotonically increasing uint64.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.s.c.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.s.c.Load() }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for one label-value combination.
func (v *CounterVec) With(values ...string) *Counter { return &Counter{v.f.with(values)} }

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{r.family(name, help, kindCounter, nil).with(nil)}
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, labels)}
}

// --- Gauges ---

// Gauge is a float64 that can go up and down.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.g.Store(math.Float64bits(v)) }

// Add adds delta (atomically, CAS loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.s.g.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.s.g.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.g.Load()) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for one label-value combination.
func (v *GaugeVec) With(values ...string) *Gauge { return &Gauge{v.f.with(values)} }

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{r.family(name, help, kindGauge, nil).with(nil)}
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, labels)}
}

// --- Func collectors ---

// CounterFunc registers a counter whose value is fn() at scrape time —
// the view mechanism for counters owned elsewhere (the resultcache and
// checkpoint stores' Stats). Re-registering replaces fn: the newest
// instance wins, which is what a restarted in-process server needs.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindCounterFunc, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// GaugeFunc registers a gauge whose value is fn() at scrape time.
// Re-registering replaces fn, like CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGaugeFunc, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// --- Histograms ---

// Histogram is a log2-bucketed distribution (internal/probe's Hist
// core: bucket i counts values v with 2^(i-1) <= v < 2^i).
type Histogram struct{ s *series }

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.s.hmu.Lock()
	h.s.h.Observe(v)
	h.s.hmu.Unlock()
}

// ObserveSince records the microseconds elapsed since t0 — the
// convention for every latency histogram in the registry (the _us
// name suffix).
func (h *Histogram) ObserveSince(t0 time.Time) {
	us := time.Since(t0).Microseconds()
	if us < 0 {
		us = 0
	}
	h.Observe(uint64(us))
}

// Snapshot copies the histogram state (racing observers see a
// consistent copy).
func (h *Histogram) Snapshot() probe.Hist {
	h.s.hmu.Lock()
	defer h.s.hmu.Unlock()
	return h.s.h
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(values ...string) *Histogram { return &Histogram{v.f.with(values)} }

// Histogram registers (or returns) an unlabeled histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	return &Histogram{r.family(name, help, kindHistogram, nil).with(nil)}
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, labels)}
}

// sortedFamilies returns the families in name order for deterministic
// exposition.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
