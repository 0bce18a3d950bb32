package gpusecmem

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"gpusecmem/internal/checkpoint"
	"gpusecmem/internal/sim"
)

// The resume-identity net for checkpoint/restore: a run interrupted at
// an arbitrary checkpoint and resumed in a second process (modeled
// here by a second store handle and a fresh simulation) must produce a
// Result bit-identical to a never-interrupted run — which
// TestGoldenResultDigests pins against the pre-checkpoint tree, so
// identity here is transitively golden-pinned.

func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func schemeCfg(t *testing.T, scheme string, cycles uint64, shards int) Config {
	t.Helper()
	cfg, err := ConfigForScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxCycles = cycles
	cfg.Shards = shards
	return cfg
}

func ckptStore(t *testing.T) *checkpoint.Store {
	t.Helper()
	s, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runCheckpointed(t *testing.T, cfg Config, bench string, cs CheckpointStore, every uint64) *Result {
	t.Helper()
	res, err := SimulateCheckpointed(context.Background(), cfg, bench, cs, every)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResumeIdentity interrupts runs at a shorter horizon and resumes
// them to the golden horizon, across schemes, checkpoint intervals on
// and off idle-skip boundaries, and shard counts (checkpoint under
// four shards, resume with one, and the reverse). Every resumed digest
// must equal the uninterrupted run's.
func TestResumeIdentity(t *testing.T) {
	type combo struct {
		scheme, bench             string
		every                     uint64
		shardsFirst, shardsSecond int
	}
	combos := []combo{
		// Intervals: 1500 divides typical probe/watchdog-free horizons
		// evenly; 1237 is prime, so checkpoints land mid-window, off any
		// idle-skip boundary.
		{"ctr_mac_bmt", "fdtd2d", 1500, 0, 0},
		{"ctr_mac_bmt", "fdtd2d", 1237, 0, 0},
		{"direct_mac_mt", "srad_v2", 1237, 0, 0},
		{"baseline", "fdtd2d", 1500, 0, 0},
		{"unified", "bfs", 1237, 0, 0},
		// Cross-shard: barrier checkpoints are the same states at every
		// shard count, in both directions.
		{"ctr_mac_bmt", "fdtd2d", 1500, 4, 0},
		{"ctr_mac_bmt", "fdtd2d", 1500, 0, 4},
	}
	for _, c := range combos {
		c := c
		name := c.scheme + "/" + c.bench
		if testing.Short() && !shortPairs[name] {
			continue
		}
		t.Run(namef(c.scheme, c.bench, c.every, c.shardsFirst, c.shardsSecond), func(t *testing.T) {
			want := referenceDigest(t, c.scheme, c.bench)
			store := ckptStore(t)

			// Phase 1: the "interrupted" run, to half the horizon. Its
			// final checkpoint at 3000 is what phase 2 resumes from.
			short := schemeCfg(t, c.scheme, goldenCycles/2, c.shardsFirst)
			runCheckpointed(t, short, c.bench, store, c.every)

			// Phase 2: the full-horizon run must resume, not restart.
			full := schemeCfg(t, c.scheme, goldenCycles, c.shardsSecond)
			if from := ResumedFrom(full, c.bench, store); from != goldenCycles/2 {
				t.Fatalf("would resume from cycle %d, want %d", from, goldenCycles/2)
			}
			res := runCheckpointed(t, full, c.bench, store, c.every)
			if got := resultDigest(t, res); got != want {
				t.Errorf("resumed run digest %s != uninterrupted %s", got, want)
			}
		})
	}
}

func namef(scheme, bench string, every uint64, s1, s2 int) string {
	return fmt.Sprintf("%s/%s/every=%d/shards=%d-%d", scheme, bench, every, s1, s2)
}

// referenceDigests memoizes the uninterrupted reference runs: several
// combos share one (scheme, bench) pair.
var referenceDigests = map[string]string{}

func referenceDigest(t *testing.T, scheme, bench string) string {
	t.Helper()
	key := scheme + "/" + bench
	if d, ok := referenceDigests[key]; ok {
		return d
	}
	d := goldenDigest(t, scheme, bench, 0)
	referenceDigests[key] = d
	return d
}

// A request whose horizon equals an existing checkpoint's cycle is the
// incremental-serving edge: restore, simulate zero cycles, collect.
func TestResumeAtExactHorizon(t *testing.T) {
	store := ckptStore(t)
	cfg := schemeCfg(t, "ctr_mac_bmt", 3000, 0)
	first := runCheckpointed(t, cfg, "nw", store, 1000)
	second := runCheckpointed(t, cfg, "nw", store, 1000)
	if a, b := resultDigest(t, first), resultDigest(t, second); a != b {
		t.Fatalf("resume-at-horizon digest %s != original %s", b, a)
	}
	if from := ResumedFrom(cfg, "nw", store); from != 3000 {
		t.Fatalf("final checkpoint at %d, want 3000", from)
	}
}

// Corrupt or foreign-version checkpoints must silently restart the run
// from cycle 0 — never resume wrong, never fail the run.
func TestBadCheckpointRestartsFromZero(t *testing.T) {
	cfg := schemeCfg(t, "ctr_mac_bmt", 3000, 0)
	const bench = "nw"
	plain, err := Simulate(cfg, bench)
	if err != nil {
		t.Fatal(err)
	}
	want := resultDigest(t, plain)

	t.Run("undecodable-state", func(t *testing.T) {
		store := ckptStore(t)
		store.Put(CheckpointKey(cfg, bench), 2000, []byte("not a machine state"))
		res := runCheckpointed(t, cfg, bench, store, 1000)
		if got := resultDigest(t, res); got != want {
			t.Errorf("digest %s != plain %s", got, want)
		}
	})
	t.Run("foreign-version", func(t *testing.T) {
		store := ckptStore(t)
		// A real snapshot, re-stamped with a future StateVersion: the
		// envelope validates, and DecodeState refuses it up front.
		seed := ckptStore(t)
		runCheckpointed(t, cfg, bench, seed, 2000)
		_, raw, ok := seed.Latest(CheckpointKey(cfg, bench), cfg.MaxCycles)
		if !ok {
			t.Fatal("no seed checkpoint")
		}
		st, err := sim.DecodeState(raw)
		if err != nil {
			t.Fatal(err)
		}
		st.Version = sim.StateVersion + 1
		reraw, err := sim.EncodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		store.Put(CheckpointKey(cfg, bench), st.Now, reraw)
		res := runCheckpointed(t, cfg, bench, store, 1000)
		if got := resultDigest(t, res); got != want {
			t.Errorf("digest %s != plain %s", got, want)
		}
	})
	t.Run("forged-sm-state", func(t *testing.T) {
		// A real snapshot whose SM 0 greedy pointer is out of range,
		// validly enveloped: Restore refuses it instead of panicking
		// mid-run, and the run starts over.
		store := ckptStore(t)
		seed := ckptStore(t)
		runCheckpointed(t, cfg, bench, seed, 2000)
		_, raw, ok := seed.Latest(CheckpointKey(cfg, bench), cfg.MaxCycles)
		if !ok {
			t.Fatal("no seed checkpoint")
		}
		st, err := sim.DecodeState(raw)
		if err != nil {
			t.Fatal(err)
		}
		st.SMs[0].Greedy = -1
		reraw, err := sim.EncodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		store.Put(CheckpointKey(cfg, bench), st.Now, reraw)
		res := runCheckpointed(t, cfg, bench, store, 1000)
		if got := resultDigest(t, res); got != want {
			t.Errorf("digest %s != plain %s", got, want)
		}
	})
	t.Run("gob-v2-state", func(t *testing.T) {
		// What a StateVersion 2 build left in a store: the same state
		// struct, gob-encoded. The run ignores it, matches the plain
		// digest, and its own checkpoints replace it.
		store := ckptStore(t)
		seed := ckptStore(t)
		runCheckpointed(t, cfg, bench, seed, 2000)
		_, raw, ok := seed.Latest(CheckpointKey(cfg, bench), cfg.MaxCycles)
		if !ok {
			t.Fatal("no seed checkpoint")
		}
		st, err := sim.DecodeState(raw)
		if err != nil {
			t.Fatal(err)
		}
		st.Version = 2
		var old bytes.Buffer
		if err := gob.NewEncoder(&old).Encode(st); err != nil {
			t.Fatal(err)
		}
		store.Put(CheckpointKey(cfg, bench), st.Now, old.Bytes())
		res := runCheckpointed(t, cfg, bench, store, 1000)
		if got := resultDigest(t, res); got != want {
			t.Errorf("digest %s != plain %s", got, want)
		}
		_, healed, ok := store.Latest(CheckpointKey(cfg, bench), cfg.MaxCycles)
		if !ok {
			t.Fatal("no checkpoint after the run")
		}
		if _, err := sim.DecodeState(healed); err != nil {
			t.Fatalf("store still serves an undecodable state: %v", err)
		}
	})
	t.Run("v3-state", func(t *testing.T) {
		// What a StateVersion 3 build left in a store: a GSMSTATE
		// payload stamped version 3. DecodeState refuses it on the
		// version, before the body, so the dense v3 tag arrays are never
		// read; the run matches the plain digest, and its own checkpoint
		// at the same cycle replaces the stale one.
		store := ckptStore(t)
		seed := ckptStore(t)
		runCheckpointed(t, cfg, bench, seed, 2000)
		cycle, raw, ok := seed.Latest(CheckpointKey(cfg, bench), cfg.MaxCycles)
		if !ok {
			t.Fatal("no seed checkpoint")
		}
		v3 := bytes.Clone(raw)
		if v3[len("GSMSTATE")] != sim.StateVersion {
			t.Fatalf("version byte %d, want %d", v3[len("GSMSTATE")], sim.StateVersion)
		}
		v3[len("GSMSTATE")] = 3
		if _, err := sim.DecodeState(v3); err == nil {
			t.Fatal("DecodeState accepted a version-3 state")
		}
		store.Put(CheckpointKey(cfg, bench), cycle, v3)
		res := runCheckpointed(t, cfg, bench, store, 1000)
		if got := resultDigest(t, res); got != want {
			t.Errorf("digest %s != plain %s", got, want)
		}
		at, healed, ok := store.Latest(CheckpointKey(cfg, bench), cycle)
		if !ok || at != cycle {
			t.Fatalf("no checkpoint at cycle %d after the run", cycle)
		}
		if _, err := sim.DecodeState(healed); err != nil {
			t.Fatalf("store still serves the version-3 state: %v", err)
		}
	})
}

// Configurations checkpointing does not cover run plain: correct
// results with their instrument's report, no checkpoints written.
func TestUncoveredConfigsRunPlain(t *testing.T) {
	faults, err := ParseFaultPlan("seed=7,rate=0.01,sites=flips")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		set    func(*Config)
		report func(*Result) bool
	}{
		{"probe", func(c *Config) { c.Probe = &ProbeConfig{Spans: true} }, func(r *Result) bool { return r.Probe != nil }},
		{"faults", func(c *Config) { c.Faults = faults }, func(r *Result) bool { return r.Faults.Corruptions() > 0 }},
		{"reuse", func(c *Config) { c.ProfileReuse = true }, func(r *Result) bool { return r.CounterReuse != nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			store := ckptStore(t)
			cfg := schemeCfg(t, "ctr_mac_bmt", 2000, 0)
			c.set(&cfg)
			if sim.Checkpointable(cfg) == nil {
				t.Fatal("instrumented config reported checkpointable")
			}
			res := runCheckpointed(t, cfg, "nw", store, 500)
			if res == nil || !c.report(res) {
				t.Fatal("instrumented run lost its report through the checkpointed path")
			}
			if n := store.Len(); n != 0 {
				t.Fatalf("store holds %d checkpoints for an uncoverable config, want 0", n)
			}
		})
	}
}

// Audited runs checkpoint like plain ones: the auditors keep no state
// and only read the machine at window barriers, so an audited run
// interrupted at 1200 cycles and resumed to 3000 must equal the
// uninterrupted audited run, at one shard and at four.
func TestAuditedResumeIdentity(t *testing.T) {
	const bench = "nw"
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := schemeCfg(t, "ctr_mac_bmt", 3000, shards)
			cfg.Audit = true
			if err := sim.Checkpointable(cfg); err != nil {
				t.Fatal(err)
			}
			plain, err := Simulate(cfg, bench)
			if err != nil {
				t.Fatal(err)
			}
			want := resultDigest(t, plain)

			store := ckptStore(t)
			short := cfg
			short.MaxCycles = 1200
			runCheckpointed(t, short, bench, store, 500)
			if from := ResumedFrom(cfg, bench, store); from != 1200 {
				t.Fatalf("would resume from cycle %d, want 1200", from)
			}
			res := runCheckpointed(t, cfg, bench, store, 500)
			if got := resultDigest(t, res); got != want {
				t.Errorf("resumed audited digest %s != uninterrupted %s", got, want)
			}
		})
	}
}

// CheckpointKey must be horizon-independent (that is the whole point:
// one lineage serves every MaxCycles) but distinguish everything else.
func TestCheckpointKeyLineage(t *testing.T) {
	a := schemeCfg(t, "ctr_mac_bmt", 3000, 0)
	b := schemeCfg(t, "ctr_mac_bmt", 60000, 0)
	if CheckpointKey(a, "nw") != CheckpointKey(b, "nw") {
		t.Fatal("checkpoint key depends on MaxCycles")
	}
	if CheckpointKey(a, "nw") == CheckpointKey(a, "lbm") {
		t.Fatal("checkpoint key ignores the benchmark")
	}
	c := schemeCfg(t, "direct_mac", 3000, 0)
	if CheckpointKey(a, "nw") == CheckpointKey(c, "nw") {
		t.Fatal("checkpoint key ignores the scheme")
	}
	// Shards is an execution hint, excluded from the canonical JSON:
	// every shard count shares one lineage.
	d := schemeCfg(t, "ctr_mac_bmt", 3000, 4)
	if CheckpointKey(a, "nw") != CheckpointKey(d, "nw") {
		t.Fatal("checkpoint key depends on Shards")
	}
}
