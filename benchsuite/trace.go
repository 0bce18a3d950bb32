package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpusecmem"
	"gpusecmem/internal/checkpoint"
	"gpusecmem/internal/cluster"
	"gpusecmem/internal/resultcache"
	"gpusecmem/internal/telemetry"
)

// maxSpans caps the spans kept in memory; later spans are counted but
// dropped, so a long serving window cannot grow the trace without
// bound.
const maxSpans = 200000

// span is one timed call into a layer, tied to the request (or
// simulation) that caused it.
type span struct {
	layer, op  string
	start, end time.Duration // since the tracer's epoch
	req        uint64
}

// tracer holds what a traced run records from outside the program:
// spans and per-call timings around the calls into each layer. It is
// safe for concurrent use.
type tracer struct {
	t0  time.Time
	seq atomic.Uint64 // ids for spans no client request caused

	mu       sync.Mutex
	spans    []span
	dropped  int
	calls    map[string][]float64 // "layer.op" -> call durations, µs
	putBytes []float64            // checkpoint.Put state sizes
	keyReq   map[string]uint64    // store key -> request that last asked for it
	handled  map[uint64]float64   // request -> server-side /api/run time, µs
	runStart map[string]time.Time // memo key -> start of its simulation
}

func newTracer() *tracer {
	return &tracer{
		t0:       time.Now(),
		calls:    map[string][]float64{},
		keyReq:   map[string]uint64{},
		handled:  map[uint64]float64{},
		runStart: map[string]time.Time{},
	}
}

// reset forgets everything recorded so far, so a traced window's
// numbers exclude its set-up.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.dropped, t.putBytes = nil, 0, nil
	t.calls, t.handled = map[string][]float64{}, map[uint64]float64{}
}

// record closes a span that started at start and returns its length
// in µs.
func (t *tracer) record(layer, op string, req uint64, start time.Time) float64 {
	end := time.Now()
	us := float64(end.Sub(start).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	name := layer + "." + op
	t.calls[name] = append(t.calls[name], us)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{layer: layer, op: op, start: start.Sub(t.t0), end: end.Sub(t.t0), req: req})
	} else {
		t.dropped++
	}
	return us
}

// timed starts a span for a store call on key; call the result when
// the call returns.
func (t *tracer) timed(layer, op, key string) func() {
	start := time.Now()
	return func() { t.record(layer, op, t.reqOf(key), start) }
}

// bind notes that request req is about to ask for the given store
// keys, so store calls, which carry no context, can name their cause.
func (t *tracer) bind(req uint64, keys ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range keys {
		t.keyReq[k] = req
	}
}

func (t *tracer) reqOf(key string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.keyReq[key]
}

// handlerTime is the server-side time of a client-facing /api/run
// request, if it has been recorded.
func (t *tracer) handlerTime(req uint64) (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	us, ok := t.handled[req]
	return us, ok
}

// reqHeader parses the trace ID this benchmark puts on every request
// (0 for requests it did not send).
func reqHeader(h http.Header) uint64 {
	id, err := strconv.ParseUint(h.Get(telemetry.TraceHeader), 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// handler times every request a daemon serves.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		req := reqHeader(r.Header)
		us := t.record("daemon", r.Method+" "+r.URL.Path, req, start)
		if r.URL.Path == "/api/run" && r.Header.Get(cluster.HopHeader) == "" {
			t.mu.Lock()
			t.handled[req] = us
			t.mu.Unlock()
		}
	})
}

// tracedTransport times the cluster client's peer calls: cache fetch,
// write-through push, and request forwarding.
type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	op := "probe"
	switch {
	case r.URL.Path == "/api/cache" && r.Method == http.MethodGet:
		op = "fetch"
	case r.URL.Path == "/api/cache":
		op = "push"
	case r.Header.Get(cluster.HopHeader) != "":
		op = "forward"
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	t.tr.record("cluster", op, reqHeader(r.Header), start)
	return resp, err
}

// tracedResults times every call into a node's result store. Keeping
// GetRaw and PutRaw preserves the raw-envelope face the daemon looks
// for; Stats passes through by embedding.
type tracedResults struct {
	*resultcache.Cache
	tr *tracer
}

func (c tracedResults) Get(key string) (*gpusecmem.Result, bool) {
	defer c.tr.timed("resultcache", "get", key)()
	return c.Cache.Get(key)
}

func (c tracedResults) Put(key string, res *gpusecmem.Result) {
	defer c.tr.timed("resultcache", "put", key)()
	c.Cache.Put(key, res)
}

func (c tracedResults) GetRaw(key string) ([]byte, bool) {
	defer c.tr.timed("resultcache", "getraw", key)()
	return c.Cache.GetRaw(key)
}

func (c tracedResults) PutRaw(key string, raw []byte) error {
	defer c.tr.timed("resultcache", "putraw", key)()
	return c.Cache.PutRaw(key, raw)
}

// tracedCheckpoints times every call into a node's checkpoint store
// and records the size of each stored state.
type tracedCheckpoints struct {
	*checkpoint.Store
	tr *tracer
}

func (c tracedCheckpoints) Latest(key string, maxCycle uint64) (uint64, []byte, bool) {
	defer c.tr.timed("checkpoint", "latest", key)()
	return c.Store.Latest(key, maxCycle)
}

func (c tracedCheckpoints) Put(key string, cycle uint64, state []byte) error {
	defer c.tr.timed("checkpoint", "put", key)()
	c.tr.mu.Lock()
	c.tr.putBytes = append(c.tr.putBytes, float64(len(state)))
	c.tr.mu.Unlock()
	return c.Store.Put(key, cycle, state)
}

// runHook is a gpusecmem.ResultCache that stores nothing: the memo's
// lookup before a fresh simulation opens a span and its write-back
// closes it, so every simulated run of a sweep gets a span and its
// Result is counted.
type runHook struct {
	tr   *tracer
	work *workCounts
}

func (h runHook) Get(key string) (*gpusecmem.Result, bool) {
	h.tr.mu.Lock()
	h.tr.runStart[key] = time.Now()
	h.tr.mu.Unlock()
	return nil, false
}

func (h runHook) Put(key string, res *gpusecmem.Result) {
	h.tr.mu.Lock()
	start, ok := h.tr.runStart[key]
	delete(h.tr.runStart, key)
	h.work.add(res)
	h.tr.mu.Unlock()
	if ok {
		h.tr.record("sim", "run "+res.Benchmark, h.tr.seq.Add(1), start)
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// writeChrome writes the kept spans as Chrome trace JSON, one track per
// layer, each event naming the request that caused it.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	track := map[string]int{}
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		tid, ok := track[s.layer]
		if !ok {
			tid = len(track) + 1
			track[s.layer] = tid
		}
		events = append(events, chromeEvent{
			Name: s.op, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]string{"req": strconv.FormatUint(s.req, 16)},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]int{"dropped_spans": t.dropped},
	})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
