package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gpusecmem"
	"gpusecmem/internal/runner"
)

// After an intentional change to simulator output, regenerate the
// pinned digests of both sizes with:
//
//	go test -run TestUpdatePins -update-pins
var updatePins = flag.Bool("update-pins", false, "rewrite testdata/pins.json from the current tree")

// toySize runs every workload in about a second.
var toySize = size{
	name:            "toy",
	sweepCycles:     150,
	sweepBenchmarks: []string{"nw"},
	longCycles:      1500,
	longPoints:      fullSize.longPoints[:2],
	readKeys:        12,
	readCycles:      100,
	readLRU:         4,
	writePairs:      fullSize.writePairs[:2],
	writeCycles:     300,
	writeResim:      2,
}

// computePins simulates a size's outputs and returns their digests.
func computePins(t *testing.T, s size) sizePins {
	t.Helper()
	p := sizePins{Sweep: map[string]string{}, Points: map[string]string{}}
	opts := gpusecmem.Options{Cycles: s.sweepCycles, Benchmarks: s.sweepBenchmarks}
	rep := runner.Run(context.Background(), gpusecmem.NewContext(opts), gpusecmem.Experiments(), runner.Options{Jobs: sweepJobs})
	for _, res := range rep.Results {
		d, err := renderDigest(res, opts)
		if err != nil {
			t.Fatalf("%s: %v", res.Experiment.ID, err)
		}
		p.Sweep[res.Experiment.ID] = d
	}
	for _, pt := range s.longPoints {
		cfg, err := pt.config(s.longCycles)
		if err != nil {
			t.Fatal(err)
		}
		res, err := gpusecmem.Simulate(cfg, pt.bench)
		if err != nil {
			t.Fatalf("%s: %v", pt, err)
		}
		if p.Points[pt.String()], err = digest(res); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestUpdatePins(t *testing.T) {
	if !*updatePins {
		t.Skip("pass -update-pins to regenerate testdata/pins.json")
	}
	all := map[string]sizePins{}
	for _, s := range []size{toySize, fullSize} {
		all[s.name] = computePins(t, s)
	}
	raw, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/pins.json", append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func toyBench(t *testing.T, pins sizePins) *bench {
	t.Helper()
	return &bench{seed: 7, window: 300 * time.Millisecond, size: toySize, pins: pins, workdir: t.TempDir()}
}

func toyPins(t *testing.T) sizePins {
	t.Helper()
	p, err := loadPins(toySize.name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	var bf benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program
// declaring the same workloads and metrics with the same units.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.ReplaceAll(workloadNames(), ", ", ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, c := range []struct {
		what      string
		file, pgm map[string]string
	}{{"end_to_end", e2e, endToEndUnits}, {"per_layer", layers, perLayerUnits}} {
		if len(c.file) != len(c.pgm) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", c.what, len(c.file), len(c.pgm))
		}
		for n, u := range c.pgm {
			if c.file[n] != u {
				t.Errorf("%s %s: BENCHMARK.json unit %q, program %q", c.what, n, c.file[n], u)
			}
		}
	}
}

// TestWorkloadsToy is the smoke run: every workload, traced, at toy
// size. Every declared metric must be present, no operation may fail,
// and the CPU shares must cover the whole profile.
func TestWorkloadsToy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	pins := toyPins(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := toyBench(t, pins)
			spans := filepath.Join(t.TempDir(), "spans.json")
			rec, err := runWorkload(context.Background(), b, w, true, spans)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d/%d: %v", rec.Correct, rec.Failed, rec.Attempted, rec.Failures)
			}
			for _, m := range bf.EndToEnd {
				if v, ok := rec.EndToEnd[m.Name]; !ok || !(v.Value > 0) {
					t.Errorf("end-to-end %s = %v (present %v); want > 0", m.Name, v.Value, ok)
				}
			}
			for _, m := range bf.PerLayer {
				if _, ok := rec.PerLayer[m.Name]; !ok {
					t.Errorf("per-layer %s missing", m.Name)
				}
			}
			total := 0.0
			for _, l := range cpuLayers {
				total += rec.PerLayer[cpuShareName(l)].Value
			}
			if math.Abs(total-1) > 0.01 {
				t.Errorf("CPU shares sum to %.4f, want 1", total)
			}
			var chrome struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := readJSON(spans, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
				t.Errorf("span file: %v, %d events", err, len(chrome.TraceEvents))
			}
		})
	}
}

// TestCorruptPinFailsRun plants one wrong pinned digest and checks the
// run reports the mismatch and exits nonzero.
func TestCorruptPinFailsRun(t *testing.T) {
	pins := toyPins(t)
	bad := sizePins{Sweep: pins.Sweep, Points: map[string]string{}}
	for k, v := range pins.Points {
		bad.Points[k] = v
	}
	p := toySize.longPoints[0].String()
	bad.Points[p] = strings.Repeat("0", 64)
	b := toyBench(t, bad)
	var stdout, stderr bytes.Buffer
	if code := runOne(b, longRun, false, "", "", &stdout, &stderr); code == 0 {
		t.Fatalf("run with a corrupted pin exited 0; stderr:\n%s", stderr.String())
	}
	var l line
	out := strings.TrimSpace(stdout.String())
	if err := json.Unmarshal([]byte(out[strings.LastIndexByte(out, '\n')+1:]), &l); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if l.Correct || l.Failed == 0 {
		t.Errorf("result line %+v: want correct=false and failed > 0", l)
	}
	if !strings.Contains(stderr.String(), p) {
		t.Errorf("stderr does not name the mismatched point %s:\n%s", p, stderr.String())
	}
}

func TestResultLineKeys(t *testing.T) {
	rec := record{Correct: true, Attempted: 3, EndToEnd: map[string]metric{"setup_s": {Value: 0.25, Unit: "s", Samples: 5}}}
	raw, err := resultLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Errorf("keys %v", keys)
	}
	if string(got["metrics"]) != `{"setup_s":{"unit":"s","value":0.25}}` {
		t.Errorf("metrics %s", got["metrics"])
	}
}
