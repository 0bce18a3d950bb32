package sim_test

import (
	"bytes"
	"context"
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
// `every` cycles and returns the first checkpoint, encoded.
func midRunState(t testing.TB, cfg sim.Config, bench string, every uint64) []byte {
	t.Helper()
	g := newMachine(t, cfg, bench)
	var first []byte
	g.SetCheckpoint(every, func(_ uint64, st *sim.MachineState) {
		if first != nil {
			return
		}
		b, err := sim.EncodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		first = b
	})
	if _, err := g.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("no checkpoint fired")
	}
	return first
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

// A snapshot restored into a fresh machine and re-snapshotted must
// encode to the same bytes, for every scheme in the catalogue: restore
// loses nothing, and the sorted-slice/raw-heap discipline plus the
// codec's one-encoding-per-value rule make identical states encode
// identically.
func TestSnapshotRestoreRoundTripBytes(t *testing.T) {
	for _, scheme := range gpusecmem.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			cfg := schemeConfig(t, scheme, 1500)
			b := midRunState(t, cfg, "srad_v2", 1000)
			st, err := sim.DecodeState(b)
			if err != nil {
				t.Fatal(err)
			}
			if st.Now != 1000 {
				t.Fatalf("first checkpoint at cycle %d, want the mid-run 1000", st.Now)
			}
			g := newMachine(t, cfg, "srad_v2")
			if err := g.Restore(st); err != nil {
				t.Fatal(err)
			}
			st2, err := g.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			b2, err := sim.EncodeState(st2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, b2) {
				t.Fatalf("snapshot not byte-stable across restore: %d vs %d bytes", len(b), len(b2))
			}
		})
	}
}

// DecodeState must refuse a real state cut short anywhere, or with
// anything appended.
func TestDecodeStateRejectsTruncationAndTrailingBytes(t *testing.T) {
	b := midRunState(t, tinyMachine(t, "ctr_mac_bmt"), "nw", 1000)
	if _, err := sim.DecodeState(b); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := sim.DecodeState(b[:n]); err == nil {
			t.Fatalf("accepted a %d-byte prefix of a %d-byte state", n, len(b))
		}
	}
	if _, err := sim.DecodeState(append(b[:len(b):len(b)], 0)); err == nil {
		t.Fatal("accepted a state with a trailing byte")
	}
}

// decodeAllocBound caps what DecodeState may allocate for an n-byte
// input. Every element of a decoded slice is paid for by at least its
// zero value's encoding, and no decoded struct is more than ~25 times
// its minimal encoding, so real and forged inputs alike stay far below
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

// FuzzDecodeState feeds DecodeState mutations of real mid-run states.
// It must never panic or allocate beyond decodeAllocBound, and any
// input it accepts must re-encode to exactly the same bytes.
func FuzzDecodeState(f *testing.F) {
	for _, scheme := range []string{"ctr_mac_bmt", "unified", "scattered", "sw_crypto"} {
		b := midRunState(f, tinyMachine(f, scheme), "nw", 1000)
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
	}
	// Forged states: duplicated and unordered keys, a listed zero way,
	// out-of-range line indices and impossible tag-array shapes, from a
	// tiny machine whose unlimited metadata caches keep directories.
	cfg := tinyMachine(f, "ctr_mac_bmt")
	cfg.Secure.UnlimitedMeta = true
	forged, err := sim.ForgedStates(midRunState(f, cfg, "srad_v2", 600))
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
		before := heapAllocated()
		st, err := sim.DecodeState(b)
		if grown := heapAllocated() - before; grown > decodeAllocBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(b), grown)
		}
		if err != nil {
			return
		}
		re, err := sim.EncodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted input re-encodes differently: %d vs %d bytes", len(b), len(re))
		}
	})
}

// BenchmarkCheckpointRoundTrip measures one checkpoint's whole life,
// Snapshot → EncodeState → DecodeState → Restore, for a SecureMem
// srad_v2 machine at 1000 cycles, and reports the encoded state's size.
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
		st, err := g.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		raw, err := sim.EncodeState(st)
		if err != nil {
			b.Fatal(err)
		}
		back, err := sim.DecodeState(raw)
		if err != nil {
			b.Fatal(err)
		}
		if err := into.Restore(back); err != nil {
			b.Fatal(err)
		}
		size = len(raw)
	}
	b.ReportMetric(float64(size), "state-bytes")
}
