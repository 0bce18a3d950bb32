package telemetry

import (
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// parseExposition is a minimal exposition-format reader: it checks
// line-level validity (HELP/TYPE comments, `name{labels} value`
// samples) and returns the samples.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typed := map[string]string{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if parts[1] == "TYPE" {
				switch parts[3] {
				case "counter", "gauge", "histogram", "untyped":
				default:
					t.Fatalf("line %d: bad TYPE %q", ln+1, parts[3])
				}
				typed[parts[2]] = parts[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		key, valstr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valstr, 64)
		if err != nil && valstr != "+Inf" {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valstr, err)
		}
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unterminated label set in %q", ln+1, line)
			}
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate sample %q", ln+1, key)
		}
		samples[key] = val
	}
	if len(typed) == 0 {
		t.Fatal("no TYPE lines in exposition")
	}
	return samples
}

func scrape(t *testing.T, r *Registry) (string, map[string]float64) {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String(), parseExposition(t, sb.String())
}

func TestPrometheusScalars(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "a counter").Add(3)
	r.Gauge("g", "a gauge").Set(1.5)
	r.CounterVec("v_total", "labeled", "tier").With("memory").Add(2)
	r.GaugeFunc("fn", "func gauge", func() float64 { return 9 })
	text, samples := scrape(t, r)
	if samples["c_total"] != 3 {
		t.Fatalf("c_total = %v, want 3\n%s", samples["c_total"], text)
	}
	if samples["g"] != 1.5 {
		t.Fatalf("g = %v, want 1.5", samples["g"])
	}
	if samples[`v_total{tier="memory"}`] != 2 {
		t.Fatalf("labeled sample missing:\n%s", text)
	}
	if samples["fn"] != 9 {
		t.Fatalf("fn = %v, want 9", samples["fn"])
	}
	// Families are emitted in name order.
	idx := func(s string) int { return strings.Index(text, "# HELP "+s+" ") }
	order := []int{idx("c_total"), idx("fn"), idx("g"), idx("v_total")}
	if !sort.IntsAreSorted(order) || order[0] < 0 {
		t.Fatalf("families not in name order: %v\n%s", order, text)
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", `help with \ and newline`+"\n", "k").
		With("a\"b\\c\nd").Inc()
	text, _ := scrape(t, r)
	if !strings.Contains(text, `esc_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", text)
	}
	if !strings.Contains(text, `# HELP esc_total help with \\ and newline\n`) {
		t.Fatalf("help not escaped:\n%s", text)
	}
}

func TestPrometheusHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_us", "latency")
	// Values across several log2 buckets, including zeros.
	for _, v := range []uint64{0, 0, 1, 2, 3, 5, 100} {
		h.Observe(v)
	}
	text, samples := scrape(t, r)

	if samples[`lat_us_bucket{le="0"}`] != 2 {
		t.Fatalf("le=0 bucket = %v, want 2\n%s", samples[`lat_us_bucket{le="0"}`], text)
	}
	if samples[`lat_us_bucket{le="1"}`] != 3 { // 0,0,1
		t.Fatalf("le=1 bucket = %v, want 3", samples[`lat_us_bucket{le="1"}`])
	}
	if samples[`lat_us_bucket{le="3"}`] != 5 { // + 2,3
		t.Fatalf("le=3 bucket = %v, want 5", samples[`lat_us_bucket{le="3"}`])
	}
	if samples[`lat_us_bucket{le="+Inf"}`] != 7 {
		t.Fatalf("le=+Inf bucket = %v, want 7", samples[`lat_us_bucket{le="+Inf"}`])
	}
	if samples["lat_us_count"] != 7 || samples["lat_us_sum"] != 111 {
		t.Fatalf("count/sum = %v/%v, want 7/111", samples["lat_us_count"], samples["lat_us_sum"])
	}

	// Cumulative buckets must be monotonically non-decreasing in le
	// order, ending at +Inf == count.
	var les []float64
	byLe := map[float64]float64{}
	for key, v := range samples {
		if !strings.HasPrefix(key, `lat_us_bucket{le="`) {
			continue
		}
		lestr := strings.TrimSuffix(strings.TrimPrefix(key, `lat_us_bucket{le="`), `"}`)
		le := float64(1 << 62)
		if lestr != "+Inf" {
			var err error
			le, err = strconv.ParseFloat(lestr, 64)
			if err != nil {
				t.Fatalf("bad le %q", lestr)
			}
		}
		les = append(les, le)
		byLe[le] = v
	}
	sort.Float64s(les)
	prev := -1.0
	for _, le := range les {
		if byLe[le] < prev {
			t.Fatalf("bucket counts not monotone at le=%v: %v < %v\n%s", le, byLe[le], prev, text)
		}
		prev = byLe[le]
	}
	if prev != samples["lat_us_count"] {
		t.Fatalf("last bucket %v != count %v", prev, samples["lat_us_count"])
	}
}

func TestPrometheusBoundedCardinality(t *testing.T) {
	r := NewRegistry()
	r.SetMaxSeries(8)
	v := r.CounterVec("keys_total", "help", "key")
	// Many distinct label values — as if run keys leaked into labels.
	for i := 0; i < 10000; i++ {
		v.With("key-" + strconv.Itoa(i)).Inc()
	}
	text, samples := scrape(t, r)
	n := 0
	for key := range samples {
		if strings.HasPrefix(key, "keys_total{") {
			n++
		}
	}
	if n > 9 { // 8 distinct + the overflow series
		t.Fatalf("cardinality unbounded: %d series\n%s", n, text)
	}
	if samples[`keys_total{key="_other"}`] < 9000 {
		t.Fatalf("overflow series did not absorb the tail: %v", samples[`keys_total{key="_other"}`])
	}
}

func TestPrometheusHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "c_total 1") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}
}

// TestConcurrentScrape races scrapes against updates and registration;
// run under -race this is the registry's central safety test.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	v := r.CounterVec("v_total", "help", "k")
	h := r.Histogram("h_us", "help")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; ; j++ {
				c.Inc()
				v.With("k" + strconv.Itoa(j%4)).Inc()
				h.Observe(uint64(j))
				r.GaugeFunc("fn", "help", func() float64 { return float64(n) })
				select {
				case <-stop:
					return
				default:
				}
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	_, samples := scrape(t, r)
	if samples["c_total"] == 0 {
		t.Fatal("no updates observed")
	}
}
