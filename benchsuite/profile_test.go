package main

import (
	"strings"
	"testing"
	"time"
)

func TestStackLayer(t *testing.T) {
	for _, c := range []struct {
		name   string
		frames []string
		want   string
	}{
		{"gob under resultcache", []string{
			"encoding/gob.(*Decoder).compileDec",
			"encoding/gob.(*Decoder).Decode",
			"gpusecmem/internal/resultcache.DecodeEnvelope",
			"gpusecmem/internal/resultcache.(*Cache).read",
		}, "gob"},
		{"mapaccess under partition", []string{
			"internal/runtime/maps.(*Map).getWithKeySmall",
			"runtime.mapaccess2_fast64",
			"gpusecmem/internal/sim.(*partition).handleL2Read",
			"gpusecmem/internal/sim.(*GPU).step",
		}, "partition"},
		{"gc worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2",
			"runtime.systemstack",
			"runtime.gcBgMarkWorker",
		}, "runtime.gc"},
		{"scheduler", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime.sched"},
		{"inline generic frame", []string{
			"slices.insertionSortCmpFunc[go.shape.struct { encoding/json.v reflect.Value }] (inline)",
			"gpusecmem/internal/eventq.(*Queue[...]).Pop",
		}, "eventq"},
		{"shard merge", []string{"gpusecmem/internal/sim.(*parEngine).mergeBarrier"}, "shard"},
		{"memo", []string{"sync.(*Mutex).Lock", "gpusecmem.(*Context).RunE"}, "memo"},
		{"experiment body", []string{"gpusecmem.expFig6.func1"}, "report"},
		{"functional crypto under the fault ground truth", []string{
			"gpusecmem/internal/crypto.(*state).mixColumns",
			"gpusecmem/internal/crypto.(*Cipher).Encrypt",
			"gpusecmem/internal/secmem.(*CounterMode).WriteLine",
			"gpusecmem.faultGroundTruth",
		}, "crypto"},
		{"http client in bench", []string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "main.(*fleet).get"}, "net"},
		{"bench checker", []string{"crypto/sha256.Sum256", "main.bodyDigest"}, "bench"},
	} {
		if got := stackLayer(c.frames); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

// tracesSample is `go tool pprof -traces` output, trimmed.
const tracesSample = `File: benchsuite
Type: cpu
Time: 2026-10-16 03:36:27 UTC
Duration: 1.62s, Total samples = 1.47s (90.73%)
-----------+-------------------------------------------------------
      10ms   encoding/gob.(*Decoder).compileDec
             encoding/gob.(*Decoder).Decode
             gpusecmem/internal/resultcache.DecodeEnvelope
-----------+-------------------------------------------------------
     1.50s   runtime.mapaccess2_fast64 (inline)
             gpusecmem/internal/sim.(*partition).tick
-----------+-------------------------------------------------------
   thread:  main
      20ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	got, err := parseTraces(strings.NewReader(tracesSample))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"gob":        10 * time.Millisecond,
		"partition":  1500 * time.Millisecond,
		"runtime.gc": 20 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("%s: got %v, want %v", l, got[l], d)
		}
	}
	s := shares(got)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	if len(s) != len(cpuLayers) || sum < 0.999 || sum > 1.001 {
		t.Errorf("shares over %d layers sum to %v", len(s), sum)
	}
}

func TestParseSampleValue(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"10ms": 10 * time.Millisecond, "1.50s": 1500 * time.Millisecond,
		"1.50mins": 90 * time.Second, "250us": 250 * time.Microsecond,
	} {
		if got, err := parseSampleValue(in); err != nil || got != want {
			t.Errorf("%s: got %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseSampleValue("ten"); err == nil {
		t.Error("parsed a malformed value")
	}
}
