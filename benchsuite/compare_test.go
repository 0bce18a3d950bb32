package main

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins quartiles against Python's
// statistics.quantiles(data, n=4) on the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}},
		{[]float64{1.2, 0.9, 1.1, 1.0, 1.05, 0.95}, [3]float64{0.9375, 1.025, 1.125}},
	} {
		q1, q2, q3 := quartiles(c.in)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
				break
			}
		}
	}
}

func TestVerdictTable(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"equal", steady, steady, false, 0.1, same},
		{"within bound", steady, []float64{105, 106, 104, 105, 105}, false, 0.1, same},
		{"slower latency", steady, []float64{120, 121, 119, 120, 120}, false, 0.1, worse},
		{"faster latency", steady, []float64{80, 81, 79, 80, 80}, false, 0.1, better},
		{"lower throughput", steady, []float64{80, 81, 79, 80, 80}, true, 0.1, worse},
		{"higher throughput", steady, []float64{120, 121, 119, 120, 120}, true, 0.1, better},
		{"noisy", steady, []float64{60, 140, 100, 70, 130}, false, 0.1, unresolved},
		{"noisy but every run better", steady, []float64{50, 90, 60, 70, 95}, false, 0.1, better},
		{"noisy but every run worse", steady, []float64{150, 110, 140, 105, 145}, false, 0.1, unresolved},
	} {
		if got, _ := verdict(c.a, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestFailedShare(t *testing.T) {
	sr := suiteRecord{Runs: []suiteRun{
		{Workloads: map[string]record{"w": {Attempted: 10, Failed: 1}}},
		{Workloads: map[string]record{"w": {Error: "crashed"}}},
	}}
	if got := sr.failedShare("w"); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("failed share %v, want 2/11", got)
	}
}
