package sim_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime/metrics"
	"testing"

	"gpusecmem"
	"gpusecmem/internal/sim"
	"gpusecmem/internal/trace"
)

func newMachine(t testing.TB, cfg sim.Config, bench string) *sim.GPU {
	t.Helper()
	gen, err := trace.New(bench)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sim.New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// midRunState runs cfg/bench to its horizon with a checkpoint every
// `every` cycles and returns the first checkpoint, encoded, with the
// cycle it was taken at.
func midRunState(t testing.TB, cfg sim.Config, bench string, every uint64) ([]byte, uint64) {
	t.Helper()
	g := newMachine(t, cfg, bench)
	var first []byte
	var at uint64
	g.SetCheckpoint(every, func(cycle uint64, state []byte) {
		if first == nil {
			first, at = state, cycle
		}
	})
	if _, err := g.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("no checkpoint fired")
	}
	return first, at
}

func schemeConfig(t testing.TB, scheme string, cycles uint64) sim.Config {
	t.Helper()
	cfg, err := gpusecmem.ConfigForScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxCycles = cycles
	return cfg
}

// tinyMachine shrinks a scheme's machine to one SM and two partitions
// with 1-2 KB caches, so a mid-run nw state is one or two kilobytes:
// small enough to decode at every prefix and to fuzz quickly, while
// it still holds in-flight loads, DRAM transactions, secure reads and
// MSHR entries.
func tinyMachine(t testing.TB, scheme string) sim.Config {
	t.Helper()
	cfg := schemeConfig(t, scheme, 1500)
	cfg.NumSMs = 1
	cfg.NumPartitions = 2
	cfg.L1Bytes = 1 << 10
	cfg.L2BankBytes = 2 << 10
	cfg.L2BanksPerPartition = 1
	return cfg
}

// stateSHA256 pins each scheme's srad_v2 state at cycle 1000 (of
// 1500), so a change to any walk that moves a byte of the wire format
// fails here and must bump StateVersion.
var stateSHA256 = map[string]string{
	"baseline":      "00bc46594fd292f25b9aaab8f480bfcb5a1a3792896c9243d32049197f1d7f8b",
	"ctr":           "5efd6835d7881082715572862c9a81e3e0a03f301773884ac5f0fc89ad4cccf5",
	"ctr_bmt":       "4b083e4993446c4002d8782b16a5fe68396032d0967806d8db8d2e6925c73dfa",
	"ctr_mac_bmt":   "b7cd2716e1413ab6a8bba88ebcb0e6beef7d88e4c4aa58f655b23dbb9db79c8a",
	"direct":        "c178c35d5adc3e7c90c29777368fa6382c34e5f73f815f63665c7ee98a36c092",
	"direct_mac":    "eaa8ed9d70364d32a8c31c2b4fc619f4ef83ef2a17358b0dc77ab77b463de870",
	"direct_mac_mt": "24de68883e66e5019e0b6c533a0e8b3574598b2a1649750ffd20b553a2da184d",
	"scattered":     "6f17263a952bc9f3a91004c5ef88c1d4b19f4f7181f1ed9741e6888bb7c37526",
	"secure":        "b7cd2716e1413ab6a8bba88ebcb0e6beef7d88e4c4aa58f655b23dbb9db79c8a",
	"secure_nomshr": "51c50819584f8caffa6304f0e77d8759667cdf0ee553a9344cc2525bccc6e90d",
	"sw_crypto":     "66778f4d29cedb4690689a7e9b4fe88c34c4a47a9dae6677e09a5c305d00fb40",
	"unified":       "2efc0745953735dbcf5bbec29b5549131798420802d1742199f388f65352f017",
}

// A snapshot restored into a fresh machine and re-snapshotted must
// encode to the same bytes, for every scheme in the catalogue: restore
// loses nothing, and the sorted-key/raw-heap discipline plus the
// codec's one-encoding-per-value rule make identical states encode
// identically. The bytes themselves are pinned by stateSHA256.
func TestSnapshotRestoreRoundTripBytes(t *testing.T) {
	for _, scheme := range gpusecmem.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			cfg := schemeConfig(t, scheme, 1500)
			b, at := midRunState(t, cfg, "srad_v2", 1000)
			if at != 1000 {
				t.Fatalf("first checkpoint at cycle %d, want the mid-run 1000", at)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != stateSHA256[scheme] {
				t.Errorf("state SHA-256 %s, pinned %s (%d bytes)", got, stateSHA256[scheme], len(b))
			}
			g := newMachine(t, cfg, "srad_v2")
			if err := g.Restore(b); err != nil {
				t.Fatal(err)
			}
			b2, err := g.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, b2) {
				t.Fatalf("snapshot not byte-stable across restore: %d vs %d bytes", len(b), len(b2))
			}
		})
	}
}

// Restore must refuse a real state cut short anywhere, or with
// anything appended.
func TestDecodeStateRejectsTruncationAndTrailingBytes(t *testing.T) {
	cfg := tinyMachine(t, "ctr_mac_bmt")
	b, _ := midRunState(t, cfg, "nw", 1000)
	if err := newMachine(t, cfg, "nw").Restore(b); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		if err := newMachine(t, cfg, "nw").Restore(b[:n]); err == nil {
			t.Fatalf("accepted a %d-byte prefix of a %d-byte state", n, len(b))
		}
	}
	if err := newMachine(t, cfg, "nw").Restore(append(b[:len(b):len(b)], 0)); err == nil {
		t.Fatal("accepted a state with a trailing byte")
	}
}

// decodeAllocBound caps what Restore may allocate for an n-byte
// input. Every element of a decoded slice or map is paid for by at
// least one byte per field, and no decoded element allocates more than
// ~25 times that, so real and forged inputs alike stay far below
// this; a length read without that check could ask for gigabytes.
func decodeAllocBound(n int) uint64 { return 64*uint64(n) + 1<<20 }

// heapAllocated is the process's cumulative heap allocation. Unlike
// runtime.ReadMemStats it does not stop the world, which keeps the
// fuzzer's input minimization fast.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// fuzzTarget is one machine shape the decoder fuzzer restores into.
type fuzzTarget struct {
	cfg   sim.Config
	bench string
}

// FuzzDecodeState restores mutations of real mid-run states into fresh
// tiny machines, one of each shape the seeds come from. Restore must
// never panic or allocate beyond decodeAllocBound; any input a machine
// accepts must re-encode to exactly the same bytes, and the machine
// must then run to its horizon without panicking (an error, such as a
// stalled run the watchdog catches, is allowed).
func FuzzDecodeState(f *testing.F) {
	var targets []fuzzTarget
	for _, scheme := range []string{"ctr_mac_bmt", "unified", "scattered", "sw_crypto"} {
		cfg := tinyMachine(f, scheme)
		targets = append(targets, fuzzTarget{cfg, "nw"})
		b, _ := midRunState(f, cfg, "nw", 1000)
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
	}
	// Forged states: duplicated and unordered keys, a listed zero way,
	// out-of-range line indices and impossible tag-array shapes, from a
	// tiny machine whose unlimited metadata caches keep directories.
	cfg := tinyMachine(f, "ctr_mac_bmt")
	cfg.Secure.UnlimitedMeta = true
	targets = append(targets, fuzzTarget{cfg, "srad_v2"})
	base, _ := midRunState(f, cfg, "srad_v2", 600)
	forged, err := sim.ForgedStates(cfg, "srad_v2", base)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range forged {
		f.Add(b)
	}
	// An instrumented state: probe spans, trace and timeline, faults at
	// every site and reuse profiling, with its instrument forgeries.
	cfg = tinyMachine(f, "ctr_mac_bmt")
	cfg.ProfileReuse = true
	plan, err := gpusecmem.ParseFaultPlan("seed=1,rate=1e-3,sites=all")
	if err != nil {
		f.Fatal(err)
	}
	cfg.Faults = plan
	cfg.Probe = &gpusecmem.ProbeConfig{Spans: true, Trace: true, TraceCap: 32, TimelineInterval: 100, TimelineCap: 4}
	targets = append(targets, fuzzTarget{cfg, "nw"})
	base, _ = midRunState(f, cfg, "nw", 1000)
	f.Add(base)
	if forged, err = sim.ForgedStates(cfg, "nw", base); err != nil {
		f.Fatal(err)
	}
	for _, b := range forged {
		f.Add(b)
	}
	f.Add([]byte("GSMSTATE"))
	// A forged length: a current-version header, an empty benchmark name
	// and five zero counters, then 1,000,000 loads backed by three
	// bytes.
	f.Add(append([]byte("GSMSTATE"), sim.StateVersion, 0, 0, 0, 0, 0, 0, 0xc0, 0x84, 0x3d, 1, 2, 3))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, tg := range targets {
			g := newMachine(t, tg.cfg, tg.bench)
			before := heapAllocated()
			err := g.Restore(b)
			if grown := heapAllocated() - before; grown > decodeAllocBound(len(b)) {
				t.Fatalf("restoring %d bytes allocated %d bytes", len(b), grown)
			}
			if err != nil {
				continue
			}
			re, err := g.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, b) {
				t.Fatalf("accepted input re-encodes differently: %d vs %d bytes", len(b), len(re))
			}
			g.RunContext(context.Background()) // an error is allowed; a panic fails
		}
	})
}

// BenchmarkCheckpointRoundTrip measures one checkpoint's whole life,
// Snapshot (the encoding walk) then Restore (the decoding walk), for a
// SecureMem srad_v2 machine at 1000 cycles, and reports the encoded
// state's size.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	cfg := sim.SecureMem()
	cfg.MaxCycles = 1000
	g := newMachine(b, cfg, "srad_v2")
	if _, err := g.RunContext(context.Background()); err != nil {
		b.Fatal(err)
	}
	into := newMachine(b, cfg, "srad_v2")
	var size int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := g.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if err := into.Restore(raw); err != nil {
			b.Fatal(err)
		}
		size = len(raw)
	}
	b.ReportMetric(float64(size), "state-bytes")
}
