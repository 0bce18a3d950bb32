package daemon

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpusecmem/internal/envelope"
	"gpusecmem/internal/telemetry"
)

// instruments holds the daemon's handles into the telemetry registry.
// These are the *only* request counters the daemon keeps, and the
// /metrics exposition is their one view.
type instruments struct {
	admitted  *telemetry.Counter
	rejected  *telemetry.Counter
	failed    *telemetry.Counter
	cancelled *telemetry.Counter
	watchdog  *telemetry.Counter
	running   *telemetry.Gauge
	queued    *telemetry.Gauge
	completed *telemetry.Counter
	wallMS    *telemetry.Counter

	httpReqs *telemetry.CounterVec   // route, code
	httpDur  *telemetry.HistogramVec // route

	memHits    *telemetry.Counter
	memMisses  *telemetry.Counter
	diskHits   *telemetry.Counter
	diskMisses *telemetry.Counter
	simulated  *telemetry.Counter
	resumed    *telemetry.Counter
	saved      *telemetry.Counter
	runDur     *telemetry.HistogramVec // tier: memory|disk|simulated|resumed

	forwarded        *telemetry.Counter
	forwardFallbacks *telemetry.Counter
	coalesced        *telemetry.Counter

	ckptRestoreUs *telemetry.Histogram
	ckptSaveUs    *telemetry.Histogram
}

var (
	met     instruments
	metOnce sync.Once
)

// initInstruments registers the daemon's metric families in the
// process-wide registry, once. Label sets are fixed and tiny (route
// buckets, cache tiers, status codes) — run keys, benchmarks, and
// request parameters never become labels (the registry's cardinality
// contract; see internal/telemetry).
func initInstruments() {
	metOnce.Do(func() {
		reg := telemetry.Default
		met = instruments{
			admitted:  reg.Counter("gpusecmem_requests_admitted_total", "requests admitted to a simulation slot"),
			rejected:  reg.Counter("gpusecmem_admission_rejected_total", "429s from a full admission queue"),
			failed:    reg.Counter("gpusecmem_requests_failed_total", "simulation or render failures"),
			cancelled: reg.Counter("gpusecmem_requests_cancelled_total", "client disconnects, timeouts, and shutdown cancellations"),
			watchdog:  reg.Counter("gpusecmem_watchdog_fires_total", "served simulations killed by the forward-progress watchdog"),
			running:   reg.Gauge("gpusecmem_admission_running", "simulations running right now"),
			queued:    reg.Gauge("gpusecmem_admission_queued", "admitted requests waiting for a worker slot"),
			completed: reg.Counter("gpusecmem_runs_completed_total", "successfully served requests (feeds the Retry-After estimate)"),
			wallMS:    reg.Counter("gpusecmem_run_wall_ms_total", "summed wall milliseconds of completed requests"),

			httpReqs: reg.CounterVec("gpusecmem_http_requests_total", "HTTP requests by route bucket and status code", "route", "code"),
			httpDur:  reg.HistogramVec("gpusecmem_http_request_duration_us", "HTTP request duration in microseconds by route bucket", "route"),

			simulated: reg.Counter("gpusecmem_runs_simulated_total", "requests that ran a fresh simulation"),
			resumed:   reg.Counter("gpusecmem_checkpoint_restores_total", "served simulations resumed from a checkpoint"),
			saved:     reg.Counter("gpusecmem_checkpoint_saves_total", "checkpoints written while serving"),
			runDur:    reg.HistogramVec("gpusecmem_run_duration_us", "end-to-end request simulation time in microseconds by serving tier", "tier"),

			forwarded:        reg.Counter("gpusecmem_cluster_forwards_total", "/api/run requests proxied to the key's owner for cluster-wide coalescing"),
			forwardFallbacks: reg.Counter("gpusecmem_cluster_forward_fallbacks_total", "forwards abandoned for local simulation because the owner was down or unreachable"),
			coalesced:        reg.Counter("gpusecmem_coalesced_requests_total", "requests that shared another request's in-flight simulation instead of running their own"),

			ckptRestoreUs: reg.Histogram("gpusecmem_checkpoint_restore_us", "checkpoint store Latest (restore lookup) latency in microseconds"),
			ckptSaveUs:    reg.Histogram("gpusecmem_checkpoint_save_us", "checkpoint store Put (snapshot write) latency in microseconds"),
		}
		hits := reg.CounterVec("gpusecmem_cache_hits_total", "result-cache hits by tier", "tier")
		misses := reg.CounterVec("gpusecmem_cache_misses_total", "result-cache misses by tier", "tier")
		met.memHits, met.memMisses = hits.With("memory"), misses.With("memory")
		met.diskHits, met.diskMisses = hits.With("disk"), misses.With("disk")

		// The Retry-After inputs, surfaced so overload behaviour is
		// observable: the derived mean completed-run wall time and the
		// backlog (running + queued) it is multiplied by.
		reg.GaugeFunc("gpusecmem_retry_mean_run_ms", "observed mean completed-run wall time (ms), the Retry-After base", func() float64 {
			if n := met.completed.Value(); n > 0 {
				return float64(met.wallMS.Value()) / float64(n)
			}
			return 0
		})
		reg.GaugeFunc("gpusecmem_retry_backlog", "running + queued requests, the Retry-After multiplier", func() float64 {
			return met.running.Value() + met.queued.Value()
		})
	})
}

// registerServerViews wires the per-instance state of this Server —
// the memory-LRU fill level and the persistent stores' own counters —
// into the registry as Func views. Re-registration replaces the
// callback, so the newest Server wins.
func (s *Server) registerServerViews() {
	reg := telemetry.Default
	reg.GaugeFunc("gpusecmem_memcache_entries", "entries in the in-process result LRU", func() float64 {
		return float64(s.mem.len())
	})
	reg.CounterFunc("gpusecmem_cache_evictions_total", "results evicted from the in-process LRU by capacity pressure", func() float64 {
		return float64(s.mem.evictions.Load())
	})
	for prefix, stats := range s.storeStats() {
		reg.CounterFunc(prefix+"_hits_total", "persistent store lookups that found a valid entry", func() float64 { return float64(stats().Hits) })
		reg.CounterFunc(prefix+"_misses_total", "persistent store lookups that found none", func() float64 { return float64(stats().Misses) })
		reg.CounterFunc(prefix+"_puts_total", "persistent store writes", func() float64 { return float64(stats().Puts) })
		reg.CounterFunc(prefix+"_errors_total", "persistent store self-healed corrupt entries and failed writes", func() float64 { return float64(stats().Errors) })
	}
}

// storeStats returns the counters of the configured persistent stores
// that expose them — the on-disk stores do; test doubles need not —
// keyed by the prefix of their /metrics families.
func (s *Server) storeStats() map[string]func() envelope.Stats {
	out := map[string]func() envelope.Stats{}
	for prefix, store := range map[string]any{"gpusecmem_resultcache": s.cfg.Cache, "gpusecmem_checkpoint_store": s.cfg.Checkpoints} {
		if st, ok := store.(interface{ Stats() envelope.Stats }); ok {
			out[prefix] = st.Stats
		}
	}
	return out
}

// routeLabel buckets a request path into the fixed route label set, so
// path cardinality (experiment IDs, probes for random URLs) can never
// leak into the registry.
func routeLabel(path string) string {
	switch {
	case path == "/api/run":
		return "/api/run"
	case path == "/api/catalogue":
		return "/api/catalogue"
	case path == "/api/cluster":
		return "/api/cluster"
	case strings.HasPrefix(path, "/api/experiment/"):
		return "/api/experiment"
	case path == "/healthz":
		return "/healthz"
	case path == "/metrics":
		return "/metrics"
	case strings.HasPrefix(path, "/debug/"):
		return "/debug"
	default:
		return "other"
	}
}

// statusWriter captures the response status code for the RED metrics
// and the request log line.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// withTelemetry is the daemon's outermost middleware: it mints (or
// validates and adopts) the request trace ID before admission, sets it
// on the response header immediately — even an early 429 carries it —
// threads it through the request context for every downstream log
// line and error body, and records the RED surface (rate by
// route+code, duration by route) once the handler returns.
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := telemetry.EnsureTraceID(r.Header.Get(telemetry.TraceHeader))
		r = r.WithContext(telemetry.WithTraceID(r.Context(), id))
		w.Header().Set(telemetry.TraceHeader, id)

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(t0)

		route := routeLabel(r.URL.Path)
		met.httpReqs.With(route, strconv.Itoa(sw.code)).Inc()
		met.httpDur.With(route).Observe(uint64(elapsed.Microseconds()))

		if s.log == nil {
			return
		}
		// Scrape and liveness chatter logs at Debug; real work at Info.
		level := slog.LevelInfo
		switch route {
		case "/healthz", "/metrics", "/debug":
			level = slog.LevelDebug
		}
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.code),
			slog.Duration("elapsed", elapsed),
		}
		if src := sw.Header().Get("X-Run-Source"); src != "" {
			attrs = append(attrs, slog.String("source", src))
		}
		s.log.LogAttrs(r.Context(), level, "request", attrs...)
	})
}
