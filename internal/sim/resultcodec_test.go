package sim_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"gpusecmem/internal/cache"
	"gpusecmem/internal/faults"
	"gpusecmem/internal/probe"
	"gpusecmem/internal/sim"
	"gpusecmem/internal/stats"
)

// fullResult sets every field a stored result keeps, with each kind of
// optional section both nil and empty somewhere.
func fullResult() *sim.Result {
	r := &sim.Result{
		Benchmark: "srad_v2", Cycles: 1500, Instructions: 1 << 40,
		RowHits: 11, RowMisses: 12,
		L1:                  cache.Stats{Accesses: 1, Hits: 2, MissesPrimary: 3, MissesSecondary: 4, MissesBypass: 5, Fills: 6, Evictions: 7, Writebacks: 8},
		L2:                  cache.Stats{Accesses: 9, Hits: 10, MissesPrimary: 11, MissesSecondary: 12, MissesBypass: 13, Fills: 14, Evictions: 15, Writebacks: 16},
		MetaCacheWritebacks: 17,
		CounterReuse:        &stats.ReuseProfiler{Hist: [6]uint64{1, 2, 3, 4, 5, 6}, Cold: 7, Total: 28},
		MACReuse:            &stats.ReuseProfiler{Cold: 1, Total: 1},
		PeakBandwidthBytes:  1 << 50,
		Faults:              sim.FaultStats{Detected: 3, Silent: 1, DroppedReplies: 5, DuplicatedReplies: 6},
		Probe: &probe.Report{
			Spans: &probe.SpansReport{Spans: 9, Unbalanced: 1, Dropped: 2, Kinds: []probe.KindBreakdown{
				{Kind: "data", Spans: 9, TotalCycles: 900, MeanLatency: 100.125, P50: 64, P95: 128, P99: 256, MaxLatency: 300,
					Stages: []probe.StageShare{{Stage: "queue", Cycles: 450, Share: 0.5}, {Stage: "dram", Cycles: 450, Share: 0.5}}},
				{Kind: "ctr", Stages: []probe.StageShare{}},
				{Kind: "mac"},
			}},
			Timeline: []probe.Sample{
				{Cycle: 250, Instructions: 4000, IPC: 16, DRAMReads: 3, DRAMWrites: 1, RowHitRate: 1.0 / 3,
					Bytes: map[string]uint64{"data": 128, "ctr": 0}, Requests: map[string]uint64{},
					CtrMissRate: 0.25, MACMissRate: 0.75, TreeMissRate: 1e-300,
					MetaMSHRs: 1, L2MSHRs: 2, DRAMQueue: 3, BusyBanks: 4, OutstandingLoads: 5, BlockedWarps: 6},
				{Cycle: 500},
			},
			TimelineDropped: 4,
		},
	}
	for i := range r.RequestsByKind {
		r.RequestsByKind[i] = uint64(100 + i)
		r.BytesByKind[i] = uint64(1000 + i)
	}
	for i := range r.Meta {
		r.Meta[i] = sim.MetaStats{Accesses: uint64(20 + i), MissesPrimary: uint64(i), MissesSecondary: 1}
	}
	for i := range r.Faults.Injected {
		r.Faults.Injected[i] = uint64(i + 1)
	}
	return r
}

// A stored result decodes to exactly what was encoded, every field,
// nil and empty sections kept apart, and re-encodes to the same bytes.
func TestResultCodecKeepsEveryField(t *testing.T) {
	for _, r := range []*sim.Result{fullResult(), {}, {Probe: &probe.Report{Spans: &probe.SpansReport{Kinds: []probe.KindBreakdown{}}, Timeline: []probe.Sample{}}}} {
		b, err := sim.EncodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.DecodeResult(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("decoded %+v, want %+v", got, r)
		}
		if again, _ := sim.EncodeResult(got); !bytes.Equal(again, b) {
			t.Error("the decoded result re-encodes differently")
		}
	}
	// fullResult must exercise every Result field: one added to Result
	// and missed by the walk then fails the comparison above.
	v := reflect.ValueOf(fullResult()).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("fullResult leaves Result.%s zero", v.Type().Field(i).Name)
		}
	}
}

// Decoding refuses every cut, trailing byte and non-canonical form,
// naming it.
func TestDecodeResultRefusals(t *testing.T) {
	b, err := sim.EncodeResult(fullResult())
	if err != nil {
		t.Fatal(err)
	}
	for n := range b {
		if _, err := sim.DecodeResult(b[:n]); err == nil {
			t.Fatalf("accepted the first %d of %d bytes", n, len(b))
		}
	}
	if _, err := sim.DecodeResult(append(bytes.Clone(b), 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: error %v", err)
	}
	if _, err := sim.DecodeResult(append([]byte("GSMSTATE"), b[len("GSMRESULT"):]...)); err == nil || !strings.Contains(err.Error(), `"GSMRESULT"`) {
		t.Fatalf("bad magic: error %v, want one naming the expected magic", err)
	}
	r := fullResult()
	r.Probe.Timeline[0].Bytes = map[string]uint64{"ctr": 1, "data": 2}
	sorted, err := sim.EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	swapped := bytes.Replace(sorted, []byte("\x03ctr\x01\x04data\x02"), []byte("\x04data\x02\x03ctr\x01"), 1)
	if bytes.Equal(swapped, sorted) {
		t.Fatal("test input lost its map entries")
	}
	if _, err := sim.DecodeResult(swapped); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("unordered map keys: error %v", err)
	}
}

// FuzzDecodeResult decodes mutations of real stored results: the disk
// tier's bytes cross a trust boundary. DecodeResult must never panic
// or allocate beyond decodeAllocBound, and any input it accepts must
// re-encode to exactly the same bytes.
func FuzzDecodeResult(f *testing.F) {
	full, err := sim.EncodeResult(fullResult())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	for _, scheme := range []string{"ctr_mac_bmt", "scattered", "sw_crypto"} {
		for _, instrumented := range []bool{false, true} {
			cfg := schemeConfig(f, scheme, 600)
			if instrumented {
				cfg.Probe = &probe.Config{Spans: true, TimelineInterval: 200}
				cfg.ProfileReuse = true
				cfg.Faults = &faults.Plan{Seed: 7, Rate: 0.01, Sites: faults.FlipSites}
			}
			res, err := sim.Run(cfg, "nw")
			if err != nil {
				f.Fatal(err)
			}
			b, err := sim.EncodeResult(res)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
			f.Add(b[:len(b)/2])
		}
	}
	f.Add([]byte("GSMRESULT"))
	// A forged length: a current-version header, an empty benchmark
	// name, then 1,000,000 traffic kinds backed by three bytes.
	f.Add([]byte("GSMRESULT\x01\x00\x00\x00\xc0\x84\x3d\x01\x02\x03"))
	f.Fuzz(func(t *testing.T, b []byte) {
		before := heapAllocated()
		res, err := sim.DecodeResult(b)
		if grown := heapAllocated() - before; grown > decodeAllocBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(b), grown)
		}
		if err != nil {
			return
		}
		again, err := sim.EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("accepted input re-encodes differently:\n in %x\nout %x", b, again)
		}
	})
}
