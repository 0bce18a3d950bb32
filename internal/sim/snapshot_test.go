package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"gpusecmem/internal/cache"
	"gpusecmem/internal/faults"
	"gpusecmem/internal/smcore"
	"gpusecmem/internal/trace"
)

func newGPU(t *testing.T, cfg Config, bench string) *GPU {
	t.Helper()
	gen, err := trace.New(bench)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// captureAt runs cfg/bench with a checkpoint sink armed at `every` and
// returns the encoded snapshots in fire order.
func captureAt(t *testing.T, cfg Config, bench string, every uint64) [][]byte {
	t.Helper()
	g := newGPU(t, cfg, bench)
	var states [][]byte
	g.SetCheckpoint(every, func(cycle uint64, st *MachineState) {
		b, err := EncodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, b)
	})
	if _, err := g.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	return states
}

// forgery turns a real mid-run state into one no Snapshot produces. It
// reports false when the state holds nothing to forge.
type forgery struct {
	name  string
	forge func(st *MachineState) bool
	// enc and dec say whether EncodeState and DecodeState still accept
	// the forged state. Restore refuses every forgery.
	enc, dec bool
}

// firstCache returns the first cache state in st, L1s then partitions,
// that satisfies ok, or nil.
func firstCache(st *MachineState, ok func(*cache.State) bool) *cache.State {
	all := slices.Clone(st.L1s)
	for _, p := range st.Parts {
		all = append(append(all, p.Banks...), p.Ctr, p.MAC, p.Tree)
	}
	for _, c := range all {
		if c != nil && ok(c) {
			return c
		}
	}
	return nil
}

// firstPart returns the first partition state that satisfies ok, or
// nil.
func firstPart(st *MachineState, ok func(*PartitionState) bool) *PartitionState {
	for _, p := range st.Parts {
		if ok(p) {
			return p
		}
	}
	return nil
}

// dupFirst repeats s[0] right after itself.
func dupFirst[T any](s []T) []T { return slices.Insert(s, 1, s[0]) }

// withLines forges the first cache listing at least n tag-array lines.
func withLines(n int, forge func(c *cache.State)) func(*MachineState) bool {
	return func(st *MachineState) bool {
		c := firstCache(st, func(c *cache.State) bool { return len(c.Lines) >= n })
		if c != nil {
			forge(c)
		}
		return c != nil
	}
}

// stateForgeries are the duplicate keys, unordered keys and impossible
// tag arrays that checkpoint restore must refuse. A forged duplicate
// once restored silently, into a machine holding one load fewer than
// its state listed.
var stateForgeries = []forgery{
	{name: "duplicate-load", forge: func(st *MachineState) bool {
		if len(st.Loads) == 0 {
			return false
		}
		st.Loads = dupFirst(st.Loads)
		return true
	}},
	{name: "unordered-loads", forge: func(st *MachineState) bool {
		if len(st.Loads) < 2 {
			return false
		}
		st.Loads[0], st.Loads[1] = st.Loads[1], st.Loads[0]
		return true
	}},
	{name: "duplicate-dest", forge: func(st *MachineState) bool {
		p := firstPart(st, func(p *PartitionState) bool { return len(p.Dests) > 0 })
		if p != nil {
			p.Dests = dupFirst(p.Dests)
		}
		return p != nil
	}},
	{name: "duplicate-read", forge: func(st *MachineState) bool {
		p := firstPart(st, func(p *PartitionState) bool { return len(p.Reads) > 0 })
		if p != nil {
			p.Reads = dupFirst(p.Reads)
		}
		return p != nil
	}},
	{name: "duplicate-mshr", forge: func(st *MachineState) bool {
		c := firstCache(st, func(c *cache.State) bool { return len(c.MSHRs) > 0 })
		if c != nil {
			c.MSHRs = dupFirst(c.MSHRs)
		}
		return c != nil
	}},
	{name: "duplicate-dir-tag", forge: func(st *MachineState) bool {
		c := firstCache(st, func(c *cache.State) bool { return len(c.Dir) > 0 })
		if c != nil {
			c.Dir = dupFirst(c.Dir)
		}
		return c != nil
	}},
	{name: "listed-zero-way", enc: true, forge: withLines(1, func(c *cache.State) {
		c.Lines[0].WayState = cache.WayState{}
	})},
	{name: "line-index-past-end", enc: true, forge: withLines(1, func(c *cache.State) {
		c.Lines[len(c.Lines)-1].Index = c.NumSets * c.Assoc
	})},
	{name: "line-index-repeated", forge: withLines(2, func(c *cache.State) {
		c.Lines[1].Index = c.Lines[0].Index
	})},
	{name: "negative-shape", enc: true, forge: withLines(1, func(c *cache.State) {
		c.NumSets, c.Assoc = -c.NumSets, -c.Assoc // a positive product
	})},
	{name: "shape-mismatch", enc: true, dec: true, forge: withLines(1, func(c *cache.State) {
		c.NumSets *= 2
	})},
	{name: "directory-beside-tag-array", enc: true, forge: withLines(1, func(c *cache.State) {
		c.Dir = []cache.WayState{{Valid: true, Tag: c.Lines[0].Tag}}
	})},
}

// forgeryBase is the state the forgery tables forge: SecureMem on
// srad_v2 at 600 of 1000 cycles, with unlimited metadata caches so its
// partitions carry directories beside the L1 and L2 tag arrays.
func forgeryBase(t *testing.T) (Config, []byte) {
	t.Helper()
	cfg := SecureMem()
	cfg.MaxCycles = 1000
	cfg.Secure.UnlimitedMeta = true
	return cfg, captureAt(t, cfg, "srad_v2", 600)[0]
}

// forged decodes b and applies f, failing the test if the state holds
// nothing for f to forge.
func forged(t *testing.T, b []byte, f forgery) *MachineState {
	t.Helper()
	st, err := DecodeState(b)
	if err != nil {
		t.Fatal(err)
	}
	if !f.forge(st) {
		t.Fatalf("the state holds nothing for %s to forge", f.name)
	}
	return st
}

// Each forgery must fail closed in the codec as the table says, and
// any input the decoder still accepts must be refused by Restore.
func TestDecodeStateRejectsForgeries(t *testing.T) {
	cfg, b := forgeryBase(t)
	for _, f := range stateForgeries {
		t.Run(f.name, func(t *testing.T) {
			st := forged(t, b, f)
			raw, err := EncodeState(st)
			if (err == nil) != f.enc {
				t.Fatalf("EncodeState error %v, want accepted=%v", err, f.enc)
			}
			if f.enc && !bytes.Equal(raw, encodeUnchecked(st)) {
				t.Fatal("EncodeState and the unchecked encoder disagree")
			}
			got, err := DecodeState(encodeUnchecked(st))
			if (err == nil) != f.dec {
				t.Fatalf("DecodeState error %v, want accepted=%v", err, f.dec)
			}
			if err == nil {
				if err := newGPU(t, cfg, "srad_v2").Restore(got); err == nil {
					t.Fatal("restored a forged state the decoder accepted")
				}
			}
		})
	}
}

// Restore must reject snapshots from other machines rather than
// installing mismatched state.
func TestRestoreRejectsMismatches(t *testing.T) {
	cfg := SecureMem()
	cfg.MaxCycles = 2000
	states := captureAt(t, cfg, "nw", 1000)
	st, err := DecodeState(states[0])
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong-benchmark", func(t *testing.T) {
		g := newGPU(t, cfg, "lbm")
		if err := g.Restore(st); err == nil {
			t.Fatal("restored an nw snapshot into an lbm machine")
		}
	})
	t.Run("wrong-config-shape", func(t *testing.T) {
		base := Baseline()
		base.MaxCycles = 2000
		g := newGPU(t, base, "nw")
		if err := g.Restore(st); err == nil {
			t.Fatal("restored a secure-memory snapshot into a baseline machine")
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		bad, err := DecodeState(states[0])
		if err != nil {
			t.Fatal(err)
		}
		bad.Version = StateVersion + 1
		g := newGPU(t, cfg, "nw")
		if err := g.Restore(bad); err == nil {
			t.Fatal("restored a snapshot with a foreign StateVersion")
		}
	})
	// Scheduler state no SM can reach. Each of these once restored
	// cleanly and then panicked the run: an index out of range, or a
	// completion for a warp that is not blocked.
	const phaseCompute, phaseBlocked = 0, 2 // smcore's warp phases
	for _, c := range []struct {
		name  string
		forge func(*smcore.State)
	}{
		{"sm-greedy-negative", func(s *smcore.State) { s.Greedy = -1 }},
		{"sm-greedy-past-end", func(s *smcore.State) { s.Greedy = len(s.Warps) + 1 }},
		{"sm-unknown-phase", func(s *smcore.State) { s.Warps[0].Phase = 7 }},
		{"sm-negative-compute", func(s *smcore.State) { s.Warps[0].ComputeLeft = -1 }},
		{"sm-blocked-without-loads", func(s *smcore.State) {
			for w := range s.Warps {
				s.Warps[w].Phase, s.Warps[w].Outstanding = phaseBlocked, 0
			}
		}},
		{"sm-loads-while-ready", func(s *smcore.State) {
			s.Warps[0].Phase, s.Warps[0].Outstanding = phaseCompute, 1
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad, err := DecodeState(states[0])
			if err != nil {
				t.Fatal(err)
			}
			if len(bad.SMs[0].Warps) == 0 {
				t.Fatal("SM 0 has no warps to forge")
			}
			c.forge(bad.SMs[0])
			g := newGPU(t, cfg, "nw")
			if err := g.Restore(bad); err == nil {
				t.Fatal("restored forged scheduler state")
			}
		})
	}
	// Duplicate or unordered keys and impossible tag arrays, installed
	// without the codec.
	ucfg, ub := forgeryBase(t)
	for _, f := range stateForgeries {
		t.Run(f.name, func(t *testing.T) {
			if err := newGPU(t, ucfg, "srad_v2").Restore(forged(t, ub, f)); err == nil {
				t.Fatalf("restored a state with a %s", f.name)
			}
		})
	}
}

// Configurations whose auxiliary state is not captured refuse to
// checkpoint: Snapshot errors and SetCheckpoint stays unarmed, so runs
// silently fall back to starting from cycle 0.
func TestCheckpointRefusesUncoveredConfigs(t *testing.T) {
	cfg := SecureMem()
	cfg.MaxCycles = 1000
	cfg.Faults = &faults.Plan{Seed: 7, Rate: 0.01, Sites: faults.FlipSites}
	g := newGPU(t, cfg, "nw")
	if _, err := g.Snapshot(); err == nil {
		t.Fatal("snapshot succeeded with fault injection enabled")
	}
	fired := false
	g.SetCheckpoint(500, func(uint64, *MachineState) { fired = true })
	if _, err := g.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("checkpoint sink fired for a faulted run")
	}
}

// Arming a checkpoint sink must not change a single output bit: the
// landing steps it adds at checkpoint boundaries are no-ops.
func TestCheckpointingIsResultTransparent(t *testing.T) {
	cfg := SecureMem()
	cfg.MaxCycles = 4000
	plain := newGPU(t, cfg, "fdtd2d")
	want, err := plain.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ck := newGPU(t, cfg, "fdtd2d")
	// A prime interval lands between fast-forward boundaries on
	// purpose.
	ck.SetCheckpoint(1237, func(uint64, *MachineState) {})
	got, err := ck.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("checkpointed run diverged:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
}
