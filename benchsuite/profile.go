package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// cpuLayers lists every layer a CPU sample can be charged to, so the
// shares over them sum to one. Names follow the modules; bench is this
// benchmark's own load generator and checker.
var cpuLayers = []string{
	"smcore", "icnt", "cache", "partition", "dram", "eventq", "trace", "sim", "shard",
	"runner", "memo", "report", "secmem", "crypto",
	"daemon", "resultcache", "checkpoint", "cluster", "telemetry", "json", "gob", "net",
	"bench", "runtime.gc", "runtime.sched",
}

// pkgLayers maps a package path to its layer. Packages not listed
// (internal/stats, internal/mem, the runtime, syscall, ...) are charged
// to the nearest listed caller.
var pkgLayers = map[string]string{
	"gpusecmem/internal/smcore":             "smcore",
	"gpusecmem/internal/icnt":               "icnt",
	"gpusecmem/internal/cache":              "cache",
	"gpusecmem/internal/dram":               "dram",
	"gpusecmem/internal/eventq":             "eventq",
	"gpusecmem/internal/trace":              "trace",
	"gpusecmem/internal/shard":              "shard",
	"gpusecmem/internal/runner":             "runner",
	"gpusecmem/internal/report":             "report",
	"gpusecmem/internal/secmem":             "secmem",
	"gpusecmem/internal/crypto":             "crypto",
	"gpusecmem/internal/daemon":             "daemon",
	"gpusecmem/internal/resultcache":        "resultcache",
	"gpusecmem/internal/checkpoint":         "checkpoint",
	"gpusecmem/internal/cluster":            "cluster",
	"gpusecmem/internal/telemetry":          "telemetry",
	"encoding/json":                         "json",
	"encoding/gob":                          "gob",
	"net":                                   "net",
	"net/http":                              "net",
	"net/http/internal":                     "net",
	"net/textproto":                         "net",
	"net/url":                               "net",
	"vendor/golang.org/x/net/http/httpguts": "net",
	"main":                                  "bench",
}

// funcName strips the decorations pprof adds to a frame: the
// " (inline)" marker and generic type arguments, which embed other
// package paths.
func funcName(frame string) string {
	frame = strings.TrimSuffix(strings.TrimSpace(frame), " (inline)")
	if i := strings.IndexByte(frame, '['); i >= 0 {
		frame = frame[:i]
	}
	return frame
}

// splitFunc splits a symbol into its package path and the rest.
func splitFunc(fn string) (pkg, rest string) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+1+dot+1:]
}

// reportFuncs prefix the root package's experiment bodies and the
// table arithmetic they share.
var reportFuncs = []string{
	"exp", "Experiment", "SortedIDs", "ablation", "normalizedIPCTable", "reuseTable",
	"geomean", "GmeanNormalizedIPC", "faultGroundTruth", "probeSpans", "profiledRun", "cfg",
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// frameLayer maps one frame to its layer, or "" when unmapped. The
// simulator core (internal/sim) is split by receiver into the memory
// partition, the shard engine's merge machinery, and the rest. The
// root package splits into the run memo, the experiment bodies, and
// the simulation entry points and scheme catalogue, which count as sim.
func frameLayer(frame string) string {
	pkg, rest := splitFunc(funcName(frame))
	switch pkg {
	case "gpusecmem/internal/sim":
		switch {
		case hasAnyPrefix(rest, "(*partition).", "replyEvent."):
			return "partition"
		case hasAnyPrefix(rest, "(*parEngine).", "(*replyStage).", "mergeKey."):
			return "shard"
		}
		return "sim"
	case "gpusecmem":
		switch {
		case hasAnyPrefix(rest, "(*Context).", "RunKey", "safeSimulate", "planPlaceholder"):
			return "memo"
		case hasAnyPrefix(rest, reportFuncs...):
			return "report"
		}
		return "sim"
	}
	return pkgLayers[pkg]
}

// gcRoots are the runtime frames that mark a stack as garbage
// collection work when no layer frame is on it.
var gcRoots = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.GC", "runtime._GC",
	"runtime.markroot", "runtime.scanobject", "runtime.sweepone",
}

// stackLayer charges one sampled stack (innermost frame first) to the
// innermost frame whose package is in the layer map, so runtime
// helpers such as mapaccess and mallocgc count against their caller.
// A stack with no mapped frame is garbage collection or scheduling.
func stackLayer(frames []string) string {
	for _, f := range frames {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	for _, f := range frames {
		name := funcName(f)
		for _, p := range gcRoots {
			if strings.HasPrefix(name, p) {
				return "runtime.gc"
			}
		}
	}
	return "runtime.sched"
}

// parseTraces reads `go tool pprof -traces` output and returns the
// sampled CPU time charged to each layer.
func parseTraces(r io.Reader) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	var (
		val    time.Duration
		frames []string
		inBody bool
	)
	flush := func() {
		if inBody && len(frames) > 0 {
			out[stackLayer(frames)] += val
		}
		frames, inBody = frames[:0], false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			val = -1
			continue
		}
		t := strings.TrimSpace(line)
		// Sample label lines ("key:  value") precede the stack.
		if !inBody || t == "" || strings.Contains(t, ":  ") {
			continue
		}
		if val >= 0 {
			frames = append(frames, t)
			continue
		}
		v, frame, ok := strings.Cut(t, " ")
		if !ok {
			return nil, fmt.Errorf("pprof traces: malformed sample line %q", line)
		}
		d, err := parseSampleValue(v)
		if err != nil {
			return nil, err
		}
		val = d
		frames = append(frames, strings.TrimSpace(frame))
	}
	flush()
	return out, sc.Err()
}

// parseSampleValue parses pprof's scaled durations: Go duration syntax
// plus its "mins" and "hrs" units.
func parseSampleValue(s string) (time.Duration, error) {
	for suffix, unit := range map[string]time.Duration{"mins": time.Minute, "hrs": time.Hour} {
		if strings.HasSuffix(s, suffix) {
			f, err := strconv.ParseFloat(strings.TrimSuffix(s, suffix), 64)
			if err != nil {
				return 0, fmt.Errorf("pprof traces: bad value %q", s)
			}
			return time.Duration(f * float64(unit)), nil
		}
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("pprof traces: bad value %q", s)
	}
	return d, nil
}

// cpuProfile is a running CPU profile of this process.
type cpuProfile struct {
	path string
	f    *os.File
}

func startProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends the profile and returns the CPU time charged to each layer,
// attributed with `go tool pprof -traces`.
func (p *cpuProfile) stop() (map[string]time.Duration, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	raw, err := exec.Command(goBin, "tool", "pprof", "-traces", p.path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(bytes.NewReader(raw))
}

// shares turns per-layer CPU time into shares of the total, one entry
// per cpuLayers name.
func shares(byLayer map[string]time.Duration) map[string]float64 {
	var total time.Duration
	for _, d := range byLayer {
		total += d
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = ratio(float64(byLayer[l]), float64(total))
	}
	return out
}
