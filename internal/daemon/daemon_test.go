package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gpusecmem"
	"gpusecmem/internal/checkpoint"
	"gpusecmem/internal/envelope"
	"gpusecmem/internal/resultcache"
	"gpusecmem/internal/sim"
	"gpusecmem/internal/telemetry"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestCatalogue(t *testing.T) {
	ts := newTestServer(t, Config{})
	var cat struct {
		Benchmarks  []string `json:"benchmarks"`
		Schemes     []string `json:"schemes"`
		Experiments []struct {
			ID    string `json:"id"`
			Title string `json:"title"`
		} `json:"experiments"`
		Formats []string `json:"formats"`
	}
	if code := getJSON(t, ts.URL+"/api/catalogue", &cat); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(cat.Benchmarks) == 0 || len(cat.Schemes) == 0 || len(cat.Experiments) == 0 {
		t.Fatalf("catalogue incomplete: %+v", cat)
	}
	found := false
	for _, e := range cat.Experiments {
		if e.ID == "fig8" && e.Title != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("catalogue missing fig8")
	}
}

// TestRunCacheSources drives the full tiering story: a fresh run
// simulates, a repeat is served from memory, and a new daemon sharing
// the same cache directory — a restart — serves it from disk, all
// byte-identical.
func TestRunCacheSources(t *testing.T) {
	dir := t.TempDir()
	disk, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Cache: disk})
	url := ts.URL + "/api/run?bench=nw&scheme=ctr_mac_bmt&cycles=1500"

	var first, second, third struct {
		Source string          `json:"source"`
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	if code := getJSON(t, url, &first); code != 200 {
		t.Fatalf("first run: status %d", code)
	}
	if first.Source != "simulated" {
		t.Fatalf("first run source = %q, want simulated", first.Source)
	}
	if code := getJSON(t, url, &second); code != 200 {
		t.Fatalf("second run: status %d", code)
	}
	if second.Source != "memory" {
		t.Fatalf("second run source = %q, want memory", second.Source)
	}

	// "Restart": a new daemon, empty memory tier, same disk.
	disk2, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestServer(t, Config{Cache: disk2})
	if code := getJSON(t, ts2.URL+"/api/run?bench=nw&scheme=ctr_mac_bmt&cycles=1500", &third); code != 200 {
		t.Fatalf("post-restart run: status %d", code)
	}
	if third.Source != "disk" {
		t.Fatalf("post-restart source = %q, want disk", third.Source)
	}

	if string(first.Result) != string(second.Result) || string(first.Result) != string(third.Result) {
		t.Fatal("cached results differ from the fresh simulation")
	}
	if first.Key == "" || first.Key != third.Key {
		t.Fatalf("key mismatch: %q vs %q", first.Key, third.Key)
	}
}

// TestForgedCachePutRejected is the regression test for the network
// write path into the result store. A validly framed envelope holding
// a made-up Result for a real run key carries a correct sha256 and
// embedded key, so only the absence of any write route keeps it out:
// the PUT must be refused, and /api/run must simulate the honest
// answer instead of serving the forgery from disk.
func TestForgedCachePutRejected(t *testing.T) {
	disk, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Cache: disk})
	const query = "bench=nw&scheme=ctr_mac_bmt&cycles=1500"
	q, _ := url.ParseQuery(query)
	run, err := gpusecmem.ResolveQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	key := gpusecmem.RunKey(run.Config, run.Benchmark)

	fake := gpusecmem.Result{Cycles: 1500, Instructions: 123456789}
	payload, err := sim.EncodeResult(&fake)
	if err != nil {
		t.Fatal(err)
	}
	forged := envelope.Encode(resultcache.Schema, key, payload)
	// The forgery is a valid entry down to its payload: a store that
	// held it would serve it.
	if other, err := resultcache.Open(t.TempDir()); err != nil {
		t.Fatal(err)
	} else if err := other.PutRaw(key, forged); err != nil {
		t.Fatalf("the forged entry is not a valid one: %v", err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/api/cache?key="+url.QueryEscape(key), bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("forged PUT /api/cache: status %d, want 404 or 405", resp.StatusCode)
	}

	var got struct {
		Source string          `json:"source"`
		Result json.RawMessage `json:"result"`
	}
	if code := getJSON(t, ts.URL+"/api/run?"+query, &got); code != 200 {
		t.Fatalf("run: status %d", code)
	}
	if got.Source != "simulated" {
		t.Fatalf("run source = %q, want simulated (the forged entry was served)", got.Source)
	}
	honest, err := gpusecmem.Simulate(run.Config, run.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(honest)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, got.Result); err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Fatal("served result differs from an honest library run")
	}
}

// oldRunResponse is the /api/run payload as one struct, the result a
// json.RawMessage member: what the daemon rendered on every request
// before answers were rendered once.
type oldRunResponse struct {
	Benchmark string          `json:"benchmark"`
	Scheme    string          `json:"scheme"`
	Key       string          `json:"key"`
	Source    string          `json:"source"`
	TraceID   string          `json:"trace_id,omitempty"`
	WallMS    float64         `json:"wall_ms"`
	Result    json.RawMessage `json:"result"`
}

// TestRunAnswerBytes pins the served bytes: from every tier — a fresh
// simulation, the memory LRU, and the disk store after a restart — and
// with or without a trace ID, an /api/run response's headers and body
// are exactly what writeJSON makes of oldRunResponse around
// json.Marshal of an honest library run.
func TestRunAnswerBytes(t *testing.T) {
	const query = "bench=nw&scheme=ctr_mac_bmt&cycles=1500"
	q, _ := url.ParseQuery(query)
	run, err := gpusecmem.ResolveQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := gpusecmem.Simulate(run.Config, run.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	result, err := json.Marshal(honest)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			dir := t.TempDir()
			serve := func(s *Server, want string) {
				t.Helper()
				req := httptest.NewRequest(http.MethodGet, "/api/run?"+query, nil)
				var h http.Handler = s.mux // no middleware: no trace ID
				if traced {
					req.Header.Set(telemetry.TraceHeader, "0123456789abcdef")
					h = s.Handler()
				}
				got := httptest.NewRecorder()
				h.ServeHTTP(got, req)
				if got.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", want, got.Code, got.Body)
				}
				var head oldRunResponse
				if err := json.Unmarshal(got.Body.Bytes(), &head); err != nil {
					t.Fatal(err)
				}
				if head.Source != want {
					t.Fatalf("source %q, want %q", head.Source, want)
				}
				old := httptest.NewRecorder()
				if traced {
					old.Header().Set(telemetry.TraceHeader, head.TraceID)
				}
				old.Header().Set("X-Run-Source", head.Source)
				head.Result = result
				writeJSON(old, head)
				if !reflect.DeepEqual(got.Header(), old.Header()) {
					t.Errorf("%s: headers %v, want %v", want, got.Header(), old.Header())
				}
				if !bytes.Equal(got.Body.Bytes(), old.Body.Bytes()) {
					t.Errorf("%s: body differs from the old rendering:\n%s\nwant\n%s", want, got.Body, old.Body)
				}
			}
			open := func() *Server {
				disk, err := resultcache.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				return New(Config{Cache: disk})
			}
			s := open()
			serve(s, "simulated")
			serve(s, "memory")
			serve(open(), "disk")
		})
	}
}

// BenchmarkRunCached times /api/run answered from each cached tier,
// cycling over a 200-cycle fdtd2d run of every scheme: "memory" from
// the LRU, "disk" from the persistent store with the LRU disabled.
func BenchmarkRunCached(b *testing.B) {
	disk, err := resultcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	var urls []string
	for _, scheme := range gpusecmem.SchemeNames() {
		u := "/api/run?bench=fdtd2d&cycles=200&scheme=" + scheme
		urls = append(urls, u)
		w := httptest.NewRecorder()
		New(Config{Cache: disk, MemCacheEntries: -1}).Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, u, nil))
		if w.Code != http.StatusOK {
			b.Fatalf("%s: status %d", u, w.Code)
		}
	}
	for _, tier := range []struct {
		name    string
		entries int
	}{{"memory", 0}, {"disk", -1}} {
		b.Run(tier.name, func(b *testing.B) {
			h := New(Config{Cache: disk, MemCacheEntries: tier.entries}).Handler()
			for _, u := range urls { // warm the memory tier
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, u, nil))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, urls[i%len(urls)], nil))
				if src := w.Header().Get("X-Run-Source"); src != tier.name {
					b.Fatalf("served from %q, want %s", src, tier.name)
				}
			}
		})
	}
}

// TestRunPresetsMatchLibrary is the HTTP half of secmemsim's
// TestSchemePresetsMatchLibrary: with no knob in the query, every scheme
// name serves exactly the library's result for its preset.
func TestRunPresetsMatchLibrary(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, scheme := range gpusecmem.SchemeNames() {
		var got struct {
			Result json.RawMessage `json:"result"`
		}
		if code := getJSON(t, ts.URL+"/api/run?bench=fdtd2d&cycles=3000&scheme="+scheme, &got); code != 200 {
			t.Fatalf("scheme %s: status %d", scheme, code)
		}
		cfg, err := gpusecmem.ConfigForScheme(scheme)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MaxCycles = 3000
		res, err := gpusecmem.Simulate(cfg, "fdtd2d")
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, got.Result); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("scheme %s: /api/run result differs from gpusecmem.Simulate of its preset", scheme)
		}
	}
}

// TestRunValidation: every query the knob table cannot decode, or that
// resolves to an invalid Config, fails closed with a 400 and a message.
// Rows that start with a path test that route instead of /api/run.
func TestRunValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		query string
		code  int
	}{
		{"scheme=no-such-scheme", 400},
		{"bench=no-such-bench", 400},
		{"cycles=abc", 400},
		{"cycles=0", 400}, // Config.Validate: MaxCycles must be positive
		{"scheme=ctr_mac_bmt&aes-engines=0", 400},
		{"aes-latency=banana", 400},
		{"aes-latency=-5", 400},
		{"mshrs=-3", 400},
		{"meta-kb=-1", 400},
		{"meta-kb=50000000", 400},          // beyond one partition's metadata
		{"meta-kb=18014398509481985", 400}, // kb*1024 would wrap to 1 KB
		// Bools parse with strconv.ParseBool, as the flags do.
		{"unified=yes", 400},
		{"audit=on", 400},
		// A value is parsed even where its knob does not apply.
		{"scheme=baseline&aes-latency=banana", 400},
		{"scheme=baseline&mshrs=-3", 400},
		// A key that names no knob, or names one twice, is refused.
		{"mshr=8", 400},
		{"mshrs=8&mshrs=16", 400},
		{"aes-engines=100000", 400}, // would allocate 100k engines per partition
		{"/api/experiment/fig8?audit=yes", 400},
		{"/api/experiment/fig8?cycles=0", 400},
		{"/api/experiment/fig8?cycles=1500&cycles=1600", 400},
		// /api/experiment refuses keys it does not read, misspelt or
		// meant for /api/run, rather than rendering the defaults.
		{"/api/experiment/table1?cylces=1500", 400},
		{"/api/experiment/table1?fromat=csv", 400},
		{"/api/experiment/table1?scheme=ctr_mac_bmt", 400},
	} {
		var e struct {
			Error string `json:"error"`
		}
		target := "/api/run?" + tc.query
		if strings.HasPrefix(tc.query, "/") {
			target = tc.query
		}
		code := getJSON(t, ts.URL+target, &e)
		if code != tc.code {
			t.Errorf("query %q: status %d, want %d", tc.query, code, tc.code)
		}
		if e.Error == "" {
			t.Errorf("query %q: empty error message", tc.query)
		}
	}
}

func TestExperimentEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/api/experiment/fig8?cycles=1500&benchmarks=nw&format=csv")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if src := resp.Header.Get("X-Run-Source"); src != "simulated" {
		t.Fatalf("X-Run-Source = %q, want simulated", src)
	}
	if !strings.Contains(string(body), "benchmark") {
		t.Fatalf("rendered table missing header column: %s", body)
	}

	// Same request again: every run comes from the shared memory tier.
	resp2, err := http.Get(ts.URL + "/api/experiment/fig8?cycles=1500&benchmarks=nw&format=csv")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if src := resp2.Header.Get("X-Run-Source"); src != "memory" {
		t.Fatalf("repeat X-Run-Source = %q, want memory", src)
	}
	if string(body) != string(body2) {
		t.Fatal("cached experiment render differs from fresh render")
	}

	if code := getJSON(t, ts.URL+"/api/experiment/no-such-exp", nil); code != 404 {
		t.Fatalf("unknown experiment: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/api/experiment/fig8?format=xml", nil); code != 400 {
		t.Fatalf("bad format: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/api/experiment/fig8?benchmarks=bogus", nil); code != 400 {
		t.Fatalf("bad benchmark subset: status %d, want 400", code)
	}
}

// waitRunning polls /metrics until the daemon reports n running
// simulations.
func waitRunning(t *testing.T, url string, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if metricValue(t, url, "gpusecmem_admission_running") == float64(n) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("daemon never reached %d running simulations", n)
}

// TestAdmissionOverflow fills the single worker slot with a run too
// long to finish, asserts the next request bounces with 429 +
// Retry-After, then cancels the long run and checks the slot frees.
func TestAdmissionOverflow(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, QueueDepth: 0})

	longCtx, cancelLong := context.WithCancel(context.Background())
	defer cancelLong()
	longDone := make(chan struct{})
	go func() {
		defer close(longDone)
		req, _ := http.NewRequestWithContext(longCtx, "GET",
			ts.URL+"/api/run?bench=nw&cycles=4000000000", nil)
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitRunning(t, ts.URL, 1)

	resp, err := http.Get(ts.URL + "/api/run?bench=nw&cycles=1000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Client disconnect cancels the simulation cooperatively and frees
	// the slot: the same request now gets through.
	cancelLong()
	<-longDone
	waitRunning(t, ts.URL, 0)
	if code := getJSON(t, ts.URL+"/api/run?bench=nw&cycles=1000", nil); code != 200 {
		t.Fatalf("post-cancel run: status %d, want 200", code)
	}
}

// TestRequestTimeout bounds a runaway simulation with the per-request
// budget: the handler answers 504 instead of hanging.
func TestRequestTimeout(t *testing.T) {
	ts := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	var e struct {
		Error string `json:"error"`
	}
	code := getJSON(t, ts.URL+"/api/run?bench=nw&cycles=4000000000", &e)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", code, e.Error)
	}
}

// TestAbortFailsInFlight is the drain-expired shutdown path: Abort
// cancels a stuck in-flight run and its handler returns 503.
func TestAbortFailsInFlight(t *testing.T) {
	d := New(Config{Workers: 1, QueueDepth: 0})
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)

	type result struct {
		code int
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/api/run?bench=nw&cycles=4000000000")
		if err != nil {
			got <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got <- result{code: resp.StatusCode}
	}()
	waitRunning(t, ts.URL, 1)

	d.Abort()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.code != http.StatusServiceUnavailable {
			t.Fatalf("aborted run status %d, want 503", r.code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not return after Abort")
	}

	// A post-abort request is refused rather than hung.
	if code := getJSON(t, ts.URL+"/api/run?bench=nw&cycles=1000", nil); code == 200 {
		t.Fatal("daemon accepted work after Abort")
	}
}

func TestHealthzAndDebugRoutes(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 3, QueueDepth: 5})
	// /healthz is liveness only; every counter is served by /metrics.
	var h map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &h); code != 200 || h["status"] != "ok" {
		t.Fatalf("healthz: code %d body %v", code, h)
	}
	var keys []string
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"queue_depth", "status", "uptime_seconds", "workers"}; !slices.Equal(keys, want) {
		t.Fatalf("healthz members %v, want %v", keys, want)
	}
	if h["workers"] != 3.0 || h["queue_depth"] != 5.0 {
		t.Fatalf("healthz workers %v queue_depth %v, want 3 and 5", h["workers"], h["queue_depth"])
	}
	// /metrics is the one metrics view: no expvar or progress route
	// answers, and the debug layer serves only profiles.
	for path, want := range map[string]int{
		"/metrics":      200,
		"/debug/pprof/": 200,
		"/debug/vars":   404,
		"/progress":     404,
	} {
		if code := getJSON(t, ts.URL+path, nil); code != want {
			t.Fatalf("%s status %d, want %d", path, code, want)
		}
	}
}

// TestMemCacheLRU exercises the bounded memory tier directly.
func TestMemCacheLRU(t *testing.T) {
	m := newMemCache(2)
	resA, resB, resC := &gpusecmem.Result{}, &gpusecmem.Result{}, &gpusecmem.Result{}
	m.put("a", resA)
	m.put("b", resB)
	if _, ok := m.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("miss on a")
	}
	m.put("c", resC)
	if _, ok := m.get("b"); ok {
		t.Fatal("LRU kept b over recently-used a")
	}
	if _, ok := m.get("a"); !ok {
		t.Fatal("evicted the recently-used entry")
	}
	if m.len() != 2 {
		t.Fatalf("len = %d, want 2", m.len())
	}
	if got := m.evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1 (b displaced by c)", got)
	}
	m.put("a", resB) // overwrite in place: not a capacity eviction
	if got := m.evictions.Load(); got != 1 {
		t.Fatalf("evictions after overwrite = %d, want still 1", got)
	}

	disabled := newMemCache(0)
	disabled.put("x", resA)
	if _, ok := disabled.get("x"); ok {
		t.Fatal("disabled cache served a hit")
	}
}

// TestIncrementalServing drives the horizon-extension story: a short
// run leaves a final checkpoint, and a later, longer request — here to
// a freshly restarted daemon sharing only the checkpoint directory —
// resumes from it instead of simulating from cycle 0, reports
// source=resumed, and still returns a result byte-identical to an
// uninterrupted full-horizon simulation.
func TestIncrementalServing(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Checkpoints: store, CheckpointEvery: 1000})

	var short struct {
		Source string `json:"source"`
	}
	if code := getJSON(t, ts.URL+"/api/run?bench=nw&scheme=ctr_mac_bmt&cycles=2000", &short); code != 200 {
		t.Fatalf("short run: status %d", code)
	}
	if short.Source != "simulated" {
		t.Fatalf("short run source = %q, want simulated", short.Source)
	}

	// "Restart": a new daemon with no caches, same checkpoint store.
	store2, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestServer(t, Config{Checkpoints: store2, CheckpointEvery: 1000})
	restores := metricValue(t, ts2.URL, "gpusecmem_checkpoint_restores_total")
	var long struct {
		Source string          `json:"source"`
		Result json.RawMessage `json:"result"`
	}
	if code := getJSON(t, ts2.URL+"/api/run?bench=nw&scheme=ctr_mac_bmt&cycles=6000", &long); code != 200 {
		t.Fatalf("long run: status %d", code)
	}
	if long.Source != "resumed" {
		t.Fatalf("long run source = %q, want resumed", long.Source)
	}

	cfg, err := gpusecmem.ConfigForScheme("ctr_mac_bmt")
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxCycles = 6000
	want, err := gpusecmem.Simulate(cfg, "nw")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var gotJSON bytes.Buffer
	if err := json.Compact(&gotJSON, long.Result); err != nil {
		t.Fatal(err)
	}
	if gotJSON.String() != string(wantJSON) {
		t.Fatal("resumed daemon result differs from an uninterrupted simulation")
	}

	// The restarted daemon's checkpoint store counters and the
	// restores counter surface in /metrics.
	if n := metricValue(t, ts2.URL, "gpusecmem_checkpoint_restores_total") - restores; n != 1 {
		t.Fatalf("gpusecmem_checkpoint_restores_total moved by %v over one resumed run, want 1", n)
	}
	for _, series := range []string{"gpusecmem_checkpoint_store_hits_total", "gpusecmem_checkpoint_store_puts_total"} {
		if v := metricValue(t, ts2.URL, series); v == 0 {
			t.Fatalf("%s = 0 after a resumed, checkpointed run", series)
		}
	}
}

// A checkpoint that Restore refuses cannot be resumed, so a run over it
// simulates from cycle 0: the response must say "simulated" and the
// restores counter must not move. Two such states: one of another
// StateVersion, as every store holds after a wire-format change (the
// store itself refuses it), and a current-version state cut by its
// last byte, whose header and envelope are valid, so only Restore can
// tell.
func TestStaleVersionCheckpointIsSimulated(t *testing.T) {
	cfg, err := gpusecmem.ConfigForScheme("ctr_mac_bmt")
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxCycles = 2000
	seed, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gpusecmem.SimulateCheckpointed(context.Background(), cfg, "nw", seed, 1000); err != nil {
		t.Fatal(err)
	}
	key := gpusecmem.CheckpointKey(cfg, "nw")
	cycle, state, ok := seed.Latest(key, cfg.MaxCycles)
	if !ok {
		t.Fatal("no seed checkpoint")
	}
	for _, c := range []struct {
		name  string
		state func() []byte
	}{
		{"stale-version", func() []byte {
			stale := bytes.Clone(state)
			stale[len("GSMSTATE")]++ // the StateVersion byte
			return stale
		}},
		{"truncated", func() []byte { return bytes.Clone(state[:len(state)-1]) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			store, err := checkpoint.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			store.Put(key, cycle, c.state())

			ts := newTestServer(t, Config{Checkpoints: store, CheckpointEvery: 1000})
			before := met.resumed.Value()
			var run struct {
				Source string `json:"source"`
			}
			if code := getJSON(t, ts.URL+"/api/run?bench=nw&scheme=ctr_mac_bmt&cycles=6000", &run); code != 200 {
				t.Fatalf("status %d", code)
			}
			if run.Source != "simulated" {
				t.Fatalf("source = %q over a refused checkpoint, want simulated", run.Source)
			}
			if n := met.resumed.Value() - before; n != 0 {
				t.Fatalf("checkpoint restores counter moved by %d, want 0", n)
			}
		})
	}
}

// failingStore is a checkpoint store that holds nothing and fails
// every write.
type failingStore struct{}

func (failingStore) Latest(string, uint64) (uint64, []byte, bool) { return 0, nil, false }
func (failingStore) Put(string, uint64, []byte) error             { return errors.New("disk full") }

// A checkpoint the store failed to write is not a save: a run whose
// every Put errors must leave gpusecmem_checkpoint_saves_total where
// it was.
func TestFailedCheckpointWritesAreNotCounted(t *testing.T) {
	ts := newTestServer(t, Config{Checkpoints: failingStore{}, CheckpointEvery: 500})
	const saves = "gpusecmem_checkpoint_saves_total"
	m0 := metricValue(t, ts.URL, saves)
	if code := getJSON(t, ts.URL+"/api/run?bench=nw&scheme=ctr_mac_bmt&cycles=2000", nil); code != 200 {
		t.Fatalf("run status %d", code)
	}
	if m1 := metricValue(t, ts.URL, saves); m1 != m0 {
		t.Fatalf("four failed writes counted as saves: %s %v -> %v", saves, m0, m1)
	}
}
