// Package daemon implements secmemd, the long-running HTTP/JSON
// service that serves simulation results. It layers the existing
// execution stack instead of duplicating it: each admitted request
// gets a fresh gpusecmem.Context (singleflight memo) wired to the
// daemon's shared result cache — an in-process LRU over the optional
// on-disk store — and a per-request context that cancels the
// simulation cooperatively on client disconnect, timeout, or
// shutdown.
//
// Routes:
//
//	GET /api/catalogue             benchmarks, schemes, experiments, formats
//	GET /api/run                   one (scheme, benchmark) simulation as JSON
//	GET /api/experiment/{id}       a paper table/figure, rendered text|csv|md
//	GET /api/cluster               membership, health, and key placement
//	GET /healthz                   liveness: status, uptime, workers, queue depth
//	GET /metrics                   Prometheus text-format exposition
//	GET /debug/pprof/...           profiles, from the sweep debug layer
//
// The run knobs of /api/run and /api/cluster, and /api/experiment's
// cycles and audit, are gpusecmem's knob table (gpusecmem.ResolveQuery),
// the same one secmemsim's flags bind; any other /api/run key is a 400,
// as is any /api/experiment key but format, benchmarks, cycles and
// audit.
//
// Admission is bounded: at most Workers simulations run concurrently
// and at most QueueDepth more wait; beyond that requests are rejected
// immediately with 429 and a Retry-After hint, so a burst degrades to
// fast failures instead of unbounded goroutine pile-up. Admission
// guards *simulation* only: requests a cached tier can answer —
// memory or disk — are served before taking a slot, so cached
// lookups scale with the HTTP stack rather than the worker pool, and
// concurrent identical misses coalesce onto one in-flight simulation
// via a server-scope singleflight (internal/flight).
//
// Cluster mode (Config.Cluster, DESIGN.md §16) adds one forwarding
// rule to /api/run: a key missing from both local tiers is proxied
// whole to its rendezvous owner (loop-guarded by cluster.HopHeader),
// which answers from its own tiers or simulates, so the owner's
// flight group coalesces identical work cluster-wide. A down owner
// fails open to local simulation, kept in this node's own tiers. A
// client that gives up mid-forward ends the request; it neither marks
// the owner down nor starts a local simulation.
//
// Telemetry: every request is assigned a trace ID at admission
// (honoring a valid inbound X-Secmem-Trace-Id), which rides the
// request context through the cache tiers, the runner, and the
// simulator's cancellation context, and appears on the response
// header, in every log line (via telemetry.ContextHandler), and in
// every JSON error body. All counters live in the process-wide
// telemetry registry, and /metrics is their one view (see DESIGN.md
// "Serving telemetry").
//
// Concurrency and aliasing contract: a Server's handlers run on
// arbitrarily many goroutines; all cross-request state is either
// immutable after New (config, mux, logger), channel-based (the
// admission and worker semaphores), atomic (the telemetry registry's
// instruments), or internally locked (the memCache LRU). Cached
// *Result values are shared between requests and must be treated as
// immutable by everything downstream — render, encode, but never
// mutate.
package daemon

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"gpusecmem"
	"gpusecmem/internal/cluster"
	"gpusecmem/internal/flight"
	"gpusecmem/internal/report"
	"gpusecmem/internal/runner"
	"gpusecmem/internal/telemetry"
)

// Config controls a daemon Server.
type Config struct {
	// Workers is the number of simulations allowed to run concurrently
	// (<=0 means GOMAXPROCS).
	Workers int
	// QueueDepth is how many admitted requests may wait for a worker
	// beyond the ones running (<0 means 2*Workers). Requests beyond
	// Workers+QueueDepth get 429.
	QueueDepth int
	// RequestTimeout bounds one request's simulation work (default
	// 2m). The simulation aborts cooperatively at the deadline and the
	// request fails with 504.
	RequestTimeout time.Duration
	// Cache is the persistent result store shared by all requests
	// (nil: in-memory LRU only).
	Cache gpusecmem.ResultCache
	// MemCacheEntries caps the in-process result LRU (default 256;
	// negative disables it).
	MemCacheEntries int
	// Shards > 1 advances every served simulation's memory partitions
	// on that many shard goroutines. Results — and therefore cache
	// entries — are bit-identical at every shard count, so a cache
	// directory can be shared between daemons with different shard
	// settings. Size Workers down accordingly: each running simulation
	// occupies Shards goroutines.
	Shards int
	// Checkpoints is the optional persistent machine-checkpoint store
	// (nil disables checkpointing). With it, every fresh simulation
	// resumes from the newest valid checkpoint of its lineage — so a
	// longer-horizon request for a config served before simulates only
	// the remaining cycles (source "resumed") — snapshots periodically,
	// and checkpoints once more when a shutdown cancels it mid-run.
	Checkpoints gpusecmem.CheckpointStore
	// CheckpointEvery is the checkpoint interval in cycles (default
	// 5000 when Checkpoints is set).
	CheckpointEvery uint64
	// Logger receives one structured record per request (trace ID,
	// route, status, duration, serving tier) plus lifecycle events.
	// nil disables request logging; build one with telemetry.NewLogger.
	Logger *slog.Logger
	// Cluster joins this daemon to a peer fleet (nil: single node):
	// misses on keys another live member owns are forwarded to it. The
	// caller starts the cluster's health-probe loop.
	Cluster *cluster.Cluster
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Shards > 1 {
			// Each running simulation occupies Shards goroutines; divide
			// the cores between concurrent requests and intra-run shards.
			c.Workers /= c.Shards
		}
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.MemCacheEntries == 0 {
		c.MemCacheEntries = 256
	}
	if c.Checkpoints != nil && c.CheckpointEvery == 0 {
		c.CheckpointEvery = 5000
	}
	return c
}

// observeRun folds one completed request's simulation wall time into
// the Retry-After estimate.
func observeRun(wall time.Duration) {
	met.completed.Inc()
	ms := wall.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	met.wallMS.Add(uint64(ms))
}

// Server is the secmemd request handler plus its shared state. Create
// with New, mount Handler on an http.Server, and call Abort during
// shutdown if draining exceeds its budget.
type Server struct {
	cfg       Config
	mem       *memCache
	flights   flight.Group[outcome] // coalesces identical in-flight simulations
	admission chan struct{}         // Workers+QueueDepth slots: full => 429
	workers   chan struct{}         // Workers slots: queued requests block here
	start     time.Time
	mux       *http.ServeMux
	handler   http.Handler // mux wrapped in the telemetry middleware
	log       *slog.Logger

	base   context.Context // cancelled by Abort to kill in-flight sims
	cancel context.CancelFunc
}

// New builds a Server. The daemon's counters live in the process-wide
// telemetry registry (telemetry.Default), which GET /metrics exposes.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	initInstruments()
	s := &Server{
		cfg:       cfg,
		mem:       newMemCache(cfg.MemCacheEntries),
		admission: make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		workers:   make(chan struct{}, cfg.Workers),
		start:     time.Now(),
		log:       cfg.Logger,
	}
	s.base, s.cancel = context.WithCancel(context.Background())
	s.registerServerViews()

	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/catalogue", s.handleCatalogue)
	mux.HandleFunc("GET /api/run", s.handleRun)
	mux.HandleFunc("GET /api/experiment/{id}", s.handleExperiment)
	mux.HandleFunc("GET /api/cluster", s.handleCluster)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", telemetry.Default.Handler())
	// The sweep debug layer's profiles: /debug/pprof/*.
	mux.Handle("/debug/", runner.NewDebugHandler())
	s.mux = mux
	s.handler = s.withTelemetry(mux)
	return s
}

// Handler returns the daemon's routes wrapped in the telemetry
// middleware (trace IDs, RED metrics, request logging).
func (s *Server) Handler() http.Handler { return s.handler }

// Abort cancels every in-flight simulation. Call it when a graceful
// drain exceeds its budget: blocked handlers fail fast and the
// http.Server shutdown completes.
func (s *Server) Abort() { s.cancel() }

// httpError is the uniform JSON error payload. Every error body
// carries the request's trace ID so a client-reported failure — a
// 429, a 504, a shutdown 503 — can be correlated with the daemon's
// logs and metrics.
func httpError(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	payload := map[string]any{
		"error": fmt.Sprintf(format, args...),
		"code":  code,
	}
	if id := telemetry.TraceID(r.Context()); id != "" {
		payload["trace_id"] = id
	}
	json.NewEncoder(w).Encode(payload)
}

// writeJSON answers with v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// admit claims a simulation slot, or answers the request itself (429
// on a full queue, 503 after Abort) and reports ok=false. On ok the
// caller runs with release deferred and a context that dies with the
// client, the timeout, or the daemon. The returned context carries
// the request's trace ID (from the telemetry middleware) into the
// simulator.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (ctx context.Context, release func(), ok bool) {
	// Post-Abort the select below could still win a free worker slot;
	// refuse deterministically instead.
	if s.base.Err() != nil {
		httpError(w, r, http.StatusServiceUnavailable, "daemon shutting down")
		return nil, nil, false
	}
	select {
	case s.admission <- struct{}{}:
	default:
		met.rejected.Inc()
		w.Header().Set("Retry-After", s.retryAfter())
		httpError(w, r, http.StatusTooManyRequests, "admission queue full (%d running + %d queued)",
			s.cfg.Workers, s.cfg.QueueDepth)
		return nil, nil, false
	}
	met.queued.Add(1)

	// Queued: wait for one of the Workers run slots.
	select {
	case s.workers <- struct{}{}:
	case <-r.Context().Done():
		met.queued.Add(-1)
		<-s.admission
		met.cancelled.Inc()
		httpError(w, r, statusClientClosedRequest, "request cancelled while queued")
		return nil, nil, false
	case <-s.base.Done():
		met.queued.Add(-1)
		<-s.admission
		httpError(w, r, http.StatusServiceUnavailable, "daemon shutting down")
		return nil, nil, false
	}
	met.queued.Add(-1)
	met.running.Add(1)
	met.admitted.Inc()

	ctx, cancel := context.WithTimeout(s.base, s.cfg.RequestTimeout)
	ctx = telemetry.WithTraceID(ctx, telemetry.TraceID(r.Context()))
	stop := context.AfterFunc(r.Context(), cancel)
	release = func() {
		stop()
		cancel()
		met.running.Add(-1)
		<-s.workers
		<-s.admission
	}
	return ctx, release, true
}

// retryAfter estimates (in whole seconds, clamped to [1, 60]) when a
// rejected request is worth retrying: the backlog ahead of it —
// everything running plus everything queued — divided across the
// worker pool, at the observed mean simulation wall time. Before any
// run has completed the estimate degrades to the old one-second hint.
// The two inputs are surfaced as the gpusecmem_retry_mean_run_ms and
// gpusecmem_retry_backlog gauges.
func (s *Server) retryAfter() string {
	mean := time.Second
	if n := met.completed.Value(); n > 0 {
		mean = time.Duration(met.wallMS.Value()/n) * time.Millisecond
	}
	backlog := int64(met.running.Value() + met.queued.Value())
	if backlog < 1 {
		backlog = 1
	}
	secs := int64(math.Ceil(mean.Seconds() * float64(backlog) / float64(s.cfg.Workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.FormatInt(secs, 10)
}

// statusClientClosedRequest is nginx's 499: the client went away
// before we could answer. Nothing standard fits better.
const statusClientClosedRequest = 499

// failStatus maps a simulation error to an HTTP status and counts it.
func (s *Server) failStatus(err error) int {
	var stall *gpusecmem.StallError
	if errors.As(err, &stall) {
		met.watchdog.Inc()
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		met.cancelled.Inc()
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		met.cancelled.Inc()
		if s.base.Err() != nil {
			return http.StatusServiceUnavailable
		}
		return statusClientClosedRequest
	default:
		met.failed.Inc()
		return http.StatusInternalServerError
	}
}

// --- catalogue ---

type catalogueExperiment struct {
	ID           string `json:"id"`
	Title        string `json:"title"`
	PaperFinding string `json:"paper_finding"`
}

func (s *Server) handleCatalogue(w http.ResponseWriter, r *http.Request) {
	exps := gpusecmem.Experiments()
	ces := make([]catalogueExperiment, 0, len(exps))
	for _, e := range exps {
		ces = append(ces, catalogueExperiment{ID: e.ID, Title: e.Title, PaperFinding: e.PaperFinding})
	}
	writeJSON(w, map[string]any{
		"benchmarks":  gpusecmem.Benchmarks(),
		"schemes":     gpusecmem.SchemeNames(),
		"experiments": ces,
		"formats":     []string{"text", "csv", "md"},
	})
}

// --- ad-hoc runs ---

// runResponse is the head of the /api/run payload; writeRun appends
// the run's answer as its last member, "result". Source records where
// the result came from — "memory", "disk", "resumed", or "simulated" —
// so callers (and the CI smoke tests) can assert cache and cluster
// behaviour. TraceID repeats the X-Secmem-Trace-Id header for clients
// that only keep bodies.
type runResponse struct {
	Benchmark string  `json:"benchmark"`
	Scheme    string  `json:"scheme"`
	Key       string  `json:"key"`
	Source    string  `json:"source"`
	TraceID   string  `json:"trace_id,omitempty"`
	WallMS    float64 `json:"wall_ms"`
}

// answer is a completed Result with its /api/run rendering, made once
// and served as often as the result is: the memory tier keeps answers,
// not bare Results.
type answer struct {
	res *gpusecmem.Result
	// digest is runner.KeyDigest of the run's key: the response head's
	// "key", hashed once per answer rather than once per request.
	digest string
	// body is the result's JSON indented as the response's "result"
	// member: what writeJSON makes of json.Marshal(res) held one level
	// deep as a json.RawMessage.
	body []byte
	err  error // why res could not be rendered; answered with a 500
}

// render makes the answer of res, the result of the run keyed key.
func render(key string, res *gpusecmem.Result) *answer {
	ans := &answer{res: res, digest: runner.KeyDigest(key)}
	compact, err := json.Marshal(res)
	if err != nil {
		ans.err = err
		return ans
	}
	var body bytes.Buffer
	body.Grow(2 * len(compact))
	json.Indent(&body, compact, "  ", "  ") // compact is valid JSON
	ans.body = body.Bytes()
	return ans
}

// writeRun renders one /api/run success: tier-attributed duration
// metric, the X-Run-Source header, and the JSON payload — the bytes
// writeJSON makes of runResponse with the result as its last member,
// assembled from the head and the answer's rendering.
func (s *Server) writeRun(w http.ResponseWriter, r *http.Request, ans *answer, source, scheme, bench string, wall time.Duration) {
	if ans.err != nil {
		httpError(w, r, http.StatusInternalServerError, "encode result: %v", ans.err)
		return
	}
	met.runDur.With(source).Observe(uint64(wall.Microseconds()))
	w.Header().Set("X-Run-Source", source)
	// Strings and a finite float: the head always marshals.
	head, _ := json.MarshalIndent(runResponse{
		Benchmark: bench,
		Scheme:    scheme,
		Key:       ans.digest,
		Source:    source,
		TraceID:   telemetry.TraceID(r.Context()),
		WallMS:    float64(wall.Microseconds()) / 1000,
	}, "", "  ")
	// The head ends "\n}"; reopen it for the result member.
	body := make([]byte, 0, len(head)+len(ans.body)+16)
	body = append(body, head[:len(head)-2]...)
	body = append(body, ",\n  \"result\": "...)
	body = append(body, ans.body...)
	body = append(body, "\n}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleRun serves one simulation in escalating cost order. The local
// cached tiers — memory, then disk — answer before admission, so
// cached lookups never wait on, or occupy, a simulation slot. A miss
// on both either forwards the whole request to the key's live owner
// (the one cluster miss path; never when the request already carries
// the hop guard) or admits and simulates locally, with identical
// concurrent misses sharing one flight.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	run, err := gpusecmem.ResolveQuery(r.URL.Query())
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	key := gpusecmem.RunKey(run.Config, run.Benchmark)
	t0 := time.Now()

	view := s.newView()
	if ans, ok := view.lookup(key); ok {
		view.count()
		s.writeRun(w, r, ans, view.source(), run.Scheme, run.Benchmark, time.Since(t0))
		return
	}
	view.count()

	if cl := s.cfg.Cluster; cl != nil && r.Header.Get(cluster.HopHeader) == "" {
		if owner, self := cl.Owner(key); !self && cl.Up(owner) {
			resp, err := cl.Forward(r, owner)
			if err == nil {
				met.forwarded.Inc()
				proxyResponse(w, resp)
				return
			}
			if r.Context().Err() != nil {
				// The client gave up, not the owner: there is no one
				// left to answer, so neither fail open nor blame the
				// owner (Forward left its health alone).
				met.cancelled.Inc()
				httpError(w, r, statusClientClosedRequest, "request cancelled while forwarded")
				return
			}
			// Owner unreachable: fail open to a local simulation (the
			// Forward call already marked the owner down).
			met.forwardFallbacks.Inc()
		}
	}

	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	o, shared, err := s.flights.Do(ctx, key, func() (outcome, error) {
		// The memo consults every cached tier before simulating, so a
		// request that queued behind the worker pool may find its
		// result already landed.
		gctx, view, settle := s.newContext(gpusecmem.Options{Cycles: run.Config.MaxCycles, Shards: s.cfg.Shards})
		res, err := gctx.RunE(ctx, run.Config, run.Benchmark)
		source := settle()
		if err != nil {
			return outcome{}, err
		}
		return outcome{view.answer(key, res), source}, nil
	})
	if err != nil {
		httpError(w, r, s.failStatus(err), "%v", err)
		return
	}
	wall := time.Since(t0)
	if shared {
		met.coalesced.Inc()
	} else {
		// Only flight leaders feed the Retry-After mean: a coalesced
		// waiter's wall time restates the same simulation.
		observeRun(wall)
	}
	s.writeRun(w, r, o.ans, o.source, run.Scheme, run.Benchmark, wall)
}

// outcome is one local simulation's answer, shared by every request
// coalesced onto its flight.
type outcome struct {
	ans    *answer
	source string
}

// --- experiment tables ---

// experimentKeys are the query keys /api/experiment/{id} reads; any
// other key is refused, so a misspelt one cannot silently run the
// defaults.
var experimentKeys = []string{"format", "benchmarks", "cycles", "audit"}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := gpusecmem.ExperimentByID(id)
	if !ok {
		httpError(w, r, http.StatusNotFound, "unknown experiment %q (see /api/catalogue)", id)
		return
	}
	q := r.URL.Query()
	var unknown []string
	for k := range q {
		if !slices.Contains(experimentKeys, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		httpError(w, r, http.StatusBadRequest, "unknown query key(s) %s (known: %s)",
			strings.Join(unknown, ", "), strings.Join(experimentKeys, ", "))
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "text"
	}
	if !report.ValidFormat(format) {
		httpError(w, r, http.StatusBadRequest, "unknown format %q (text|csv|md)", format)
		return
	}
	opts, err := gpusecmem.OptionsFromQuery(q)
	if v := q.Get("benchmarks"); v != "" && err == nil {
		opts.Benchmarks = strings.Split(v, ",")
		for _, b := range opts.Benchmarks {
			err = cmp.Or(err, gpusecmem.CheckBenchmark(b))
		}
	}
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	opts.Shards = s.cfg.Shards

	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	gctx, _, settle := s.newContext(opts)

	// The runner gives us planning, panic recovery, and render-order
	// determinism for free; one job keeps this request to its one
	// admission slot.
	t0 := time.Now()
	rep := runner.Run(ctx, gctx, []gpusecmem.Experiment{e}, runner.Options{Jobs: 1})
	source := settle()
	if rep.Aborted {
		httpError(w, r, s.failStatus(ctx.Err()), "experiment aborted: %v", ctx.Err())
		return
	}
	res := rep.Results[0]
	if res.Err != nil {
		httpError(w, r, s.failStatus(res.Err), "experiment %s: %v", id, res.Err)
		return
	}
	wall := time.Since(t0)
	observeRun(wall)
	met.runDur.With(source).Observe(uint64(wall.Microseconds()))

	switch format {
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Header().Set("X-Run-Source", source)
	fmt.Fprintf(w, "# %s\n# paper: %s\n", e.Title, e.PaperFinding)
	for _, t := range res.Tables {
		if err := t.Write(w, format); err != nil {
			return // headers are out; nothing better to do
		}
		fmt.Fprintln(w)
	}
}

// --- health ---

// handleHealthz is the liveness route cluster probes and wait loops
// poll. Counters are served by /metrics only.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"workers":        s.cfg.Workers,
		"queue_depth":    s.cfg.QueueDepth,
	})
}
