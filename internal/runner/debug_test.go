package runner

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestDebugHandlerRoutes(t *testing.T) {
	srv := httptest.NewServer(NewDebugHandler())
	defer srv.Close()

	code, body := get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") || !strings.Contains(body, "/debug/pprof/") {
		t.Fatalf("index: code %d body %q", code, body)
	}
	// /metrics is the one metrics view: no expvar or progress route
	// answers, and the index names none.
	if strings.Contains(body, "/progress") || strings.Contains(body, "/debug/vars") {
		t.Fatalf("index names a deleted route:\n%s", body)
	}
	for _, path := range []string{"/not-a-route", "/progress", "/debug/vars"} {
		if code, _ := get(t, srv, path); code != http.StatusNotFound {
			t.Fatalf("%s returned %d, want 404", path, code)
		}
	}

	// pprof index responds (profiles themselves are too slow for a unit
	// test).
	if code, _ := get(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof index returned %d", code)
	}

	// /metrics serves the Prometheus exposition of the shared registry,
	// including the sweep progress families once a sweep has
	// registered them.
	initSweepInstruments()
	code, body = get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics returned %d", code)
	}
	for _, want := range []string{
		"# TYPE gpusecmem_sweep_planned_runs gauge",
		"# TYPE gpusecmem_sweep_runs_total counter",
		"gpusecmem_sweeps_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestStartDebugServerBindFailure(t *testing.T) {
	var log strings.Builder
	stop := startDebugServer("256.256.256.256:0", &log)
	stop() // must be a callable no-op
	if !strings.Contains(log.String(), "endpoint disabled") {
		t.Fatalf("bind failure not reported: %q", log.String())
	}
}

func TestStartDebugServerServes(t *testing.T) {
	var log strings.Builder
	stop := startDebugServer("127.0.0.1:0", &log)
	defer stop()
	out := log.String()
	if !strings.Contains(out, "serving http://") {
		t.Fatalf("no serving line: %q", out)
	}
	addr := strings.TrimPrefix(strings.Fields(out)[2], "http://")
	addr = strings.TrimSuffix(addr, "/")
	for path, want := range map[string]int{
		"/metrics":      http.StatusOK,
		"/debug/pprof/": http.StatusOK,
		"/progress":     http.StatusNotFound,
		"/debug/vars":   http.StatusNotFound,
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("live server %s returned %d, want %d", path, resp.StatusCode, want)
		}
	}
	if strings.Contains(out, "/progress") || strings.Contains(out, "/debug/vars") {
		t.Fatalf("serving line names a deleted route: %q", out)
	}
}
