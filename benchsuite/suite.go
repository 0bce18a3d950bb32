package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// suiteRecord is what -suite writes: every workload's record for each
// run of the suite.
type suiteRecord struct {
	Host    hostInfo   `json:"host"`
	Seconds int        `json:"seconds"`
	Traced  bool       `json:"traced"`
	Runs    []suiteRun `json:"runs"`
}

type suiteRun struct {
	Seed      int64             `json:"seed"`
	Workloads map[string]record `json:"workloads"`
}

// runSuite runs every workload `runs` times, seeds seed, seed+1, ...,
// each workload in a child process of its own so peak memory and
// garbage-collector state do not carry from one workload to the next.
func runSuite(seed int64, runs, seconds int, traced bool, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchsuite:", err)
		return 1
	}
	tmp := filepath.Join(buildDir, "work", fmt.Sprintf("suite-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchsuite:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	trace := "0"
	if traced {
		trace = "1"
	}
	sr := suiteRecord{Host: hostMeta(), Seconds: seconds, Traced: traced}
	code := 0
	for r := 0; r < runs; r++ {
		run := suiteRun{Seed: seed + int64(r), Workloads: map[string]record{}}
		for _, w := range workloads {
			recPath := filepath.Join(tmp, w.name+".json")
			os.Remove(recPath)
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(run.Seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", trace, "-out", recPath)
			cmd.Stdout, cmd.Stderr = io.Discard, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchsuite: %s seed %d: %v\n", w.name, run.Seed, err)
				code = 1
			}
			var rec record
			raw, err := os.ReadFile(recPath)
			if err == nil {
				err = json.Unmarshal(raw, &rec)
			}
			if err != nil {
				rec = record{Workload: w.name, Seed: run.Seed, Error: err.Error()}
			}
			run.Workloads[w.name] = rec
		}
		sr.Runs = append(sr.Runs, run)
	}
	printSuite(stdout, sr)
	if out != "" {
		if err := writeJSON(out, sr); err != nil {
			fmt.Fprintln(stderr, "benchsuite:", err)
			return 1
		}
	}
	return code
}

// values collects one workload metric across a suite's runs.
func (sr suiteRecord) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range sr.Runs {
		if m, ok := r.Workloads[workload].EndToEnd[metric]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// failedShare is a workload's failed operations over attempted ones,
// across a suite's runs; a run that produced no record counts as one
// failed operation.
func (sr suiteRecord) failedShare(workload string) float64 {
	var failed, attempted int
	for _, r := range sr.Runs {
		rec, ok := r.Workloads[workload]
		if !ok || rec.Error != "" || rec.Attempted == 0 {
			failed++
			attempted++
			continue
		}
		failed += rec.Failed
		attempted += rec.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

func printSuite(w io.Writer, sr suiteRecord) {
	names := make([]string, 0, len(endToEndUnits))
	for n := range endToEndUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d run(s), %ds windows, nproc %d, GOMAXPROCS %d, %s\n",
		len(sr.Runs), sr.Seconds, sr.Host.NumCPU, sr.Host.GOMAXPROCS, sr.Host.GoVersion)
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s (failed share %.4g)\n", wl.name, sr.failedShare(wl.name))
		for _, n := range names {
			vs := sr.values(wl.name, n)
			fmt.Fprintf(w, "  %-16s median %12.6g %-4s spread %6.2f%%  n=%d\n",
				n, median(vs), endToEndUnits[n], 100*spread(vs), len(vs))
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one metric on one workload, comparing set B against set A.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict compares B's runs of a metric with A's. B is worse (better)
// when its median is worse (better) than A's by more than the bound.
// When either set's spread exceeds the bound the difference cannot be
// told from noise: the verdict is unresolved, unless every run of B
// reads better than every run of A.
func verdict(a, b []float64, higherIsBetter bool, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	change := ratio(mb-ma, math.Abs(ma)) // > 0: B reads higher
	if !higherIsBetter {
		change = -change
	}
	// change > 0 now means B is better.
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, higherIsBetter) {
			return better, change
		}
		return unresolved, change
	}
	switch {
	case change < -bound:
		return worse, change
	case change > bound:
		return better, change
	}
	return same, change
}

func allBetter(a, b []float64, higherIsBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if higherIsBetter && y <= x || !higherIsBetter && y >= x {
				return false
			}
		}
	}
	return true
}

// suiteCompare prints a verdict for every workload and end-to-end
// metric of BENCHMARK.json, B against A, and exits 1 when any is worse
// or B fails a larger share of its operations.
func suiteCompare(benchJSON, aPath, bPath string, stdout, stderr io.Writer) int {
	var bf benchmarkFile
	var a, b suiteRecord
	for _, f := range []struct {
		path string
		v    any
	}{{benchJSON, &bf}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "benchsuite:", err)
			return 2
		}
	}
	code := 0
	fmt.Fprintf(stdout, "B = %s (%d runs) against A = %s (%d runs)\n", bPath, len(b.Runs), aPath, len(a.Runs))
	fmt.Fprintf(stdout, "%-12s %-16s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "B gain", "sprd A", "sprd B", "bound", "verdict")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			v, change := verdict(va, vb, m.Better == "higher", m.Bound)
			if len(va) == 0 || len(vb) == 0 {
				v = unresolved
			}
			if v == worse {
				code = 1
			}
			fmt.Fprintf(stdout, "%-12s %-16s %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%% %6.2f  %s\n",
				w.Name, m.Name, median(va), median(vb), 100*change, 100*spread(va), 100*spread(vb), m.Bound, v)
		}
		fa, fb := a.failedShare(w.Name), b.failedShare(w.Name)
		v := same
		if fb > fa {
			v, code = worse, 1
		}
		fmt.Fprintf(stdout, "%-12s %-16s %12.4g %12.4g %8s %8s %8s %6s  %s\n",
			w.Name, "failed_share", fa, fb, "", "", "", "", v)
	}
	return code
}
