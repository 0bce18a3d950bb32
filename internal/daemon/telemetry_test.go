package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gpusecmem"
	"gpusecmem/internal/telemetry"
)

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	return string(body)
}

// metricValue scrapes base's /metrics and returns the value of one
// series, named as the exposition prints it (labels included).
func metricValue(t *testing.T, base, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(scrapeMetrics(t, base), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("/metrics %s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

// TestMetricsEndpoint drives a run through the daemon and asserts the
// exposition carries the RED surface and the tier counters.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code := getJSON(t, ts.URL+"/api/run?bench=nw&scheme=ctr_mac_bmt&cycles=1500", nil); code != 200 {
		t.Fatalf("run status %d", code)
	}
	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`gpusecmem_http_requests_total{route="/api/run",code="200"} `,
		`gpusecmem_http_request_duration_us_bucket{route="/api/run",le="+Inf"} `,
		"gpusecmem_runs_simulated_total ",
		"gpusecmem_requests_admitted_total ",
		`gpusecmem_run_duration_us_count{tier="simulated"} `,
		"gpusecmem_retry_mean_run_ms ",
		"gpusecmem_retry_backlog ",
		"gpusecmem_memcache_entries ",
		"# TYPE gpusecmem_http_requests_total counter",
		"# TYPE gpusecmem_run_duration_us histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// A memory-tier repeat shows up under the cache-hit counter.
	if code := getJSON(t, ts.URL+"/api/run?bench=nw&scheme=ctr_mac_bmt&cycles=1500", nil); code != 200 {
		t.Fatalf("repeat run status %d", code)
	}
	text = scrapeMetrics(t, ts.URL)
	if !strings.Contains(text, `gpusecmem_cache_hits_total{tier="memory"} `) {
		t.Error("/metrics missing memory-tier hit counter after repeat run")
	}
}

// TestTraceIDRoundTrip checks the trace-ID contract: every response
// carries X-Secmem-Trace-Id, a valid inbound ID is adopted, an invalid
// one is replaced, and error bodies carry the same ID as the header.
func TestTraceIDRoundTrip(t *testing.T) {
	ts := newTestServer(t, Config{})

	// No inbound ID: one is minted.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	minted := resp.Header.Get(telemetry.TraceHeader)
	if !telemetry.ValidTraceID(minted) {
		t.Fatalf("minted trace ID %q invalid", minted)
	}

	do := func(inbound, path string) (*http.Response, []byte) {
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		req.Header.Set(telemetry.TraceHeader, inbound)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	// A valid inbound ID is echoed on the header and the success body.
	resp, body := do("cafe1234deadbeef", "/api/run?bench=nw&scheme=baseline&cycles=1500")
	if got := resp.Header.Get(telemetry.TraceHeader); got != "cafe1234deadbeef" {
		t.Fatalf("valid inbound ID not adopted: header %q", got)
	}
	var run struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &run); err != nil || run.TraceID != "cafe1234deadbeef" {
		t.Fatalf("run body trace_id = %q (err %v), want cafe1234deadbeef", run.TraceID, err)
	}

	// An invalid inbound ID (here non-hex text; the same check rejects
	// injection attempts with control characters) is replaced.
	resp, _ = do("evil id {injected}", "/healthz")
	if got := resp.Header.Get(telemetry.TraceHeader); !telemetry.ValidTraceID(got) || got == "evil id {injected}" {
		t.Fatalf("invalid inbound ID not replaced: %q", got)
	}

	// Error bodies carry the trace ID too.
	resp, body = do("beefbeefbeefbeef", "/api/run?cycles=abc")
	if resp.StatusCode != 400 {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error   string `json:"error"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.TraceID != "beefbeefbeefbeef" {
		t.Fatalf("error body trace_id = %q, want beefbeefbeefbeef", e.TraceID)
	}
}

// TestRequestLogging asserts one structured line per request, carrying
// the trace ID and the serving tier.
func TestRequestLogging(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	lockedWriter := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	logger, err := telemetry.NewLogger(lockedWriter, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Logger: logger})

	req, _ := http.NewRequest("GET", ts.URL+"/api/run?bench=nw&scheme=baseline&cycles=1500", nil)
	req.Header.Set(telemetry.TraceHeader, "feedfacefeedface")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// /healthz scrapes log at debug, which info-level drops.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz status %d", code)
	}

	mu.Lock()
	lines := strings.TrimSpace(buf.String())
	mu.Unlock()
	var rec struct {
		Msg     string `json:"msg"`
		Path    string `json:"path"`
		Status  int    `json:"status"`
		Source  string `json:"source"`
		TraceID string `json:"trace_id"`
	}
	found := false
	for _, line := range strings.Split(lines, "\n") {
		if line == "" {
			continue
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %v\n%s", err, line)
		}
		if rec.Msg == "request" && rec.Path == "/api/run" {
			found = true
			if rec.Status != 200 || rec.TraceID != "feedfacefeedface" || rec.Source != "simulated" {
				t.Fatalf("request log line incomplete: %+v", rec)
			}
		}
		if rec.Path == "/healthz" {
			t.Fatalf("healthz scrape logged at info level: %s", line)
		}
	}
	if !found {
		t.Fatalf("no request log line for /api/run:\n%s", lines)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestTelemetryByteIdentity is the zero-cost contract at the serving
// boundary: the result payload served with full telemetry active is
// byte-identical to a direct library simulation with none of it.
func TestTelemetryByteIdentity(t *testing.T) {
	logger, err := telemetry.NewLogger(io.Discard, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Logger: logger})
	var run struct {
		Result json.RawMessage `json:"result"`
	}
	if code := getJSON(t, ts.URL+"/api/run?bench=nw&scheme=ctr_mac_bmt&cycles=2000", &run); code != 200 {
		t.Fatalf("run status %d", code)
	}
	// Scrape mid-stream for good measure: observation must not perturb.
	scrapeMetrics(t, ts.URL)

	cfg, err := gpusecmem.ConfigForScheme("ctr_mac_bmt")
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxCycles = 2000
	want, err := gpusecmem.Simulate(cfg, "nw")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, run.Result); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(wantJSON) {
		t.Fatal("served result differs from direct simulation — telemetry is not zero-cost")
	}
}

// TestMetricsConcurrentScrape races scrapes against served runs; under
// -race this covers the daemon's whole instrumented path.
func TestMetricsConcurrentScrape(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				resp, err := http.Get(ts.URL + "/api/run?bench=nw&scheme=baseline&cycles=1500")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		scrapeMetrics(t, ts.URL)
	}
	wg.Wait()
}
