package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
	// Idempotent registration returns the same underlying series.
	if got := r.Counter("c_total", "help").Value(); got != 5 {
		t.Fatalf("re-registered counter Value = %d, want 5", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Add(1.5)
	if got := g.Value(); got != 4 {
		t.Fatalf("Value = %v, want 4", got)
	}
	g.Add(-5)
	if got := g.Value(); got != -1 {
		t.Fatalf("Value = %v, want -1", got)
	}
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "help", "route", "code")
	v.With("/api/run", "200").Add(3)
	v.With("/api/run", "500").Inc()
	if got := v.With("/api/run", "200").Value(); got != 3 {
		t.Fatalf("200 count = %d, want 3", got)
	}
	if got := v.With("/api/run", "500").Value(); got != 1 {
		t.Fatalf("500 count = %d, want 1", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_us", "help")
	for _, v := range []uint64{0, 1, 2, 3, 100} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 5 {
		t.Fatalf("Count = %d, want 5", snap.Count)
	}
	if snap.Sum != 106 {
		t.Fatalf("Sum = %d, want 106", snap.Sum)
	}
	if snap.Max != 100 {
		t.Fatalf("Max = %d, want 100", snap.Max)
	}
	h.ObserveSince(time.Now())
	if got := h.Snapshot().Count; got != 6 {
		t.Fatalf("Count after ObserveSince = %d, want 6", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x", "help")
}

func TestLabelArityMismatchPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("y", "help", "a", "b")
	t.Run("registration", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on label-arity mismatch")
			}
		}()
		r.CounterVec("y", "help", "a")
	})
	t.Run("with", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on With arity mismatch")
			}
		}()
		v.With("only-one")
	})
}

func TestFuncCollectorsReplaceOnReregister(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("f", "help", func() float64 { return 1 })
	r.GaugeFunc("f", "help", func() float64 { return 2 })
	if _, samples := scrape(t, r); samples["f"] != 2 {
		t.Fatalf("replaced GaugeFunc = %v, want 2", samples["f"])
	}
	r.CounterFunc("cf", "help", func() float64 { return 7 })
	r.CounterFunc("cf", "help", func() float64 { return 8 })
	if _, samples := scrape(t, r); samples["cf"] != 8 {
		t.Fatalf("replaced CounterFunc = %v, want 8", samples["cf"])
	}
}

func TestSeriesOverflowFoldsIntoOther(t *testing.T) {
	r := NewRegistry()
	r.SetMaxSeries(2)
	v := r.CounterVec("bounded_total", "help", "key")
	v.With("a").Inc()
	v.With("b").Inc()
	// At the cap: every further combination lands on the "_other"
	// series instead of growing the map.
	for i := 0; i < 100; i++ {
		v.With("c").Inc()
		v.With("d").Inc()
	}
	if got := v.With("_other").Value(); got != 200 {
		t.Fatalf("_other count = %d, want 200", got)
	}
	if got := v.With("a").Value(); got != 1 {
		t.Fatalf("a count = %d, want 1", got)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	v := r.CounterVec("v_total", "help", "k")
	h := r.Histogram("h_us", "help")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				v.With("a").Inc()
				h.Observe(uint64(j))
			}
		}(i)
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := v.With("a").Value(); got != 8000 {
		t.Fatalf("vec counter = %d, want 8000", got)
	}
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}
