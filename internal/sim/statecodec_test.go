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
	"baseline":      "46622f00ad239bc113b6cb6cb85a8bf299354cd2851af1280d3eb6915a3be998",
	"ctr":           "1eed3cebaa62b00a79faf35e7067b7b9dcfc2a2ce589a3bf56e8d6bc24de69e0",
	"ctr_bmt":       "5a29df8964773ba51b3c47893e952c620378e56bf5526c6a8998d15761e3a6e8",
	"ctr_mac_bmt":   "e35e2cff168cb7c65b795cc795b9666c7b475017a05aedb9ae78165dbe310e49",
	"direct":        "37196ce9685702f43a789295e6ea04926567f4d07c5cb4392b8bca7f85829529",
	"direct_mac":    "e22d67f9ebba07c5b88041083fd5c6cf03b87df1955d437bf4715e7426e64580",
	"direct_mac_mt": "3237f894056745ec1d41a4fa1e86cd079193d7d4c6ba37ca527dee7fbbec9816",
	"scattered":     "3787162181f1738a7c994de53d6cbfe61547d75c0e8b87a82cac62f720b23a26",
	"secure":        "e35e2cff168cb7c65b795cc795b9666c7b475017a05aedb9ae78165dbe310e49",
	"secure_nomshr": "6ff7963e34a5f983719c9aae867edf67e893237b65895f31ff58be97ed275a85",
	"sw_crypto":     "a6b256b559bb7d45a0a8abf79a9e9270f554729925b701416aef9fd34627e249",
	"unified":       "87332f5b8dd8f3b5f66dcfc62d29f49485f36f8dba50d861ae23ea0f7f8d78cd",
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
	f.Add([]byte("GSMSTATE"))
	// A forged length: a current-version header, an empty benchmark name
	// and seven zero counters, then 1,000,000 loads backed by three
	// bytes.
	f.Add(append([]byte("GSMSTATE"), sim.StateVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0xc0, 0x84, 0x3d, 1, 2, 3))
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
