package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

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
