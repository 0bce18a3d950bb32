package gpusecmem

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"gpusecmem/internal/checkpoint"
	"gpusecmem/internal/sim"
	"gpusecmem/internal/statecodec"
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

// runCheckpointed runs SimulateCheckpointed and returns its result and
// the cycle it reports resuming from.
func runCheckpointed(t *testing.T, cfg Config, bench string, cs CheckpointStore, every uint64) (*Result, uint64) {
	t.Helper()
	res, from, err := SimulateCheckpointed(context.Background(), cfg, bench, cs, every)
	if err != nil {
		t.Fatal(err)
	}
	return res, from
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
		// The extension schemes: share-map fills and key-table fills.
		{"scattered", "fdtd2d", 1237, 0, 0},
		{"sw_crypto", "bfs", 1500, 0, 0},
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
			res, from := runCheckpointed(t, full, c.bench, store, c.every)
			if from != goldenCycles/2 {
				t.Fatalf("resumed from cycle %d, want %d", from, goldenCycles/2)
			}
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
	first, from := runCheckpointed(t, cfg, "nw", store, 1000)
	if from != 0 {
		t.Fatalf("first run resumed from cycle %d over an empty store", from)
	}
	second, from := runCheckpointed(t, cfg, "nw", store, 1000)
	if a, b := resultDigest(t, first), resultDigest(t, second); a != b {
		t.Fatalf("resume-at-horizon digest %s != original %s", b, a)
	}
	if from != 3000 {
		t.Fatalf("second run resumed from cycle %d, want the final checkpoint at 3000", from)
	}
}

// restoreState restores raw into a fresh cfg machine running bench.
func restoreState(t *testing.T, cfg Config, bench string, raw []byte) error {
	t.Helper()
	g, err := sim.Build(cfg, bench)
	if err != nil {
		t.Fatal(err)
	}
	return g.Restore(raw)
}

// sm0Greedy locates SM 0's greedy pointer in a machine state, reading
// past the fields the GPU's walk puts before it.
func sm0Greedy(t *testing.T, raw []byte) (at, end int) {
	t.Helper()
	d := statecodec.NewDecoder(raw, "GSMSTATE", sim.StateVersion)
	var (
		name string
		u    uint64
		i, n int
		b    bool
		us   []uint64
		keys statecodec.KeySeq
	)
	d.String(&name)
	for range 5 { // cycle, token and progress counters
		d.U64(&u)
	}
	for d.Len(&n, 1); n > 0; n-- { // loads
		d.Key(&keys, &u)
		d.Int(&i)
		d.Int(&i)
		d.Bool(&b)
	}
	for range 3 { // activity bounds
		d.U64s(&us)
	}
	for _, fields := range []int{4, 3} { // the two interconnect queues
		for d.Len(&n, 1); n > 0; n-- {
			for range 3 {
				d.U64(&u)
			}
			if fields == 4 {
				d.Bool(&b)
			}
		}
		for range 4 { // queue stats
			d.U64(&u)
		}
	}
	d.Len(&n, 1) // the SM count, then SM 0's warps
	for d.Len(&n, 1); n > 0; n-- {
		for range 3 {
			d.Int(&i)
		}
		d.U64s(&us)
		d.Bool(&b)
		for range 3 {
			d.Int(&i)
		}
		d.U64(&u)
		d.Int(&i)
		d.U64(&u)
	}
	at = d.Offset()
	d.Int(&i)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	return at, d.Offset()
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
	// restarts runs over store, which holds a state Restore refuses:
	// the run must report no resume and match the plain run.
	restarts := func(t *testing.T, store CheckpointStore) {
		t.Helper()
		res, from := runCheckpointed(t, cfg, bench, store, 1000)
		if from != 0 {
			t.Errorf("resumed from cycle %d, want a fresh run from 0", from)
		}
		if got := resultDigest(t, res); got != want {
			t.Errorf("digest %s != plain %s", got, want)
		}
	}

	t.Run("undecodable-state", func(t *testing.T) {
		store := ckptStore(t)
		store.Put(CheckpointKey(cfg, bench), 2000, []byte("not a machine state"))
		restarts(t, store)
	})
	t.Run("foreign-version", func(t *testing.T) {
		store := ckptStore(t)
		// A real snapshot, re-stamped with a future StateVersion: the
		// envelope validates, and Restore refuses it up front.
		seed := ckptStore(t)
		runCheckpointed(t, cfg, bench, seed, 2000)
		cycle, raw, ok := seed.Latest(CheckpointKey(cfg, bench), cfg.MaxCycles)
		if !ok {
			t.Fatal("no seed checkpoint")
		}
		reraw := bytes.Clone(raw)
		reraw[len("GSMSTATE")] = sim.StateVersion + 1
		if err := restoreState(t, cfg, bench, reraw); err == nil {
			t.Fatal("restored a state with a foreign StateVersion")
		}
		store.Put(CheckpointKey(cfg, bench), cycle, reraw)
		restarts(t, store)
	})
	t.Run("forged-sm-state", func(t *testing.T) {
		// A real snapshot whose SM 0 greedy pointer is out of range,
		// validly enveloped: Restore refuses it instead of panicking
		// mid-run, and the run starts over.
		store := ckptStore(t)
		seed := ckptStore(t)
		runCheckpointed(t, cfg, bench, seed, 2000)
		cycle, raw, ok := seed.Latest(CheckpointKey(cfg, bench), cfg.MaxCycles)
		if !ok {
			t.Fatal("no seed checkpoint")
		}
		at, end := sm0Greedy(t, raw)
		reraw := append(append(bytes.Clone(raw[:at]), 1), raw[end:]...) // zigzag -1
		if err := restoreState(t, cfg, bench, reraw); err == nil || !strings.Contains(err.Error(), "greedy") {
			t.Fatalf("restore error %v, want a refused greedy pointer", err)
		}
		store.Put(CheckpointKey(cfg, bench), cycle, reraw)
		restarts(t, store)
	})
	t.Run("truncated-state", func(t *testing.T) {
		// A real snapshot minus its last byte: Restore fails only at
		// the end, with nearly the whole machine installed, so the run
		// must start over on a rebuilt machine.
		store := ckptStore(t)
		seed := ckptStore(t)
		runCheckpointed(t, cfg, bench, seed, 2000)
		cycle, raw, ok := seed.Latest(CheckpointKey(cfg, bench), cfg.MaxCycles)
		if !ok {
			t.Fatal("no seed checkpoint")
		}
		cut := raw[:len(raw)-1]
		err := restoreState(t, cfg, bench, cut)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("byte %d: truncated", len(cut))) {
			t.Fatalf("restore error %v, want truncation at the last byte", err)
		}
		store.Put(CheckpointKey(cfg, bench), cycle, cut)
		restarts(t, store)
	})
	t.Run("gob-v2-state", func(t *testing.T) {
		// What a StateVersion 2 build left in a store: its state
		// struct, gob-encoded (its leading fields stand in for the
		// rest). The run ignores it, matches the plain digest, and its
		// own checkpoints replace it.
		store := ckptStore(t)
		seed := ckptStore(t)
		runCheckpointed(t, cfg, bench, seed, 2000)
		cycle, _, ok := seed.Latest(CheckpointKey(cfg, bench), cfg.MaxCycles)
		if !ok {
			t.Fatal("no seed checkpoint")
		}
		v2 := struct {
			Version   int
			Benchmark string
			Now       uint64
		}{2, bench, cycle}
		var old bytes.Buffer
		if err := gob.NewEncoder(&old).Encode(v2); err != nil {
			t.Fatal(err)
		}
		store.Put(CheckpointKey(cfg, bench), cycle, old.Bytes())
		restarts(t, store)
		_, healed, ok := store.Latest(CheckpointKey(cfg, bench), cfg.MaxCycles)
		if !ok {
			t.Fatal("no checkpoint after the run")
		}
		if err := restoreState(t, cfg, bench, healed); err != nil {
			t.Fatalf("store still serves an undecodable state: %v", err)
		}
	})
	t.Run("v3-state", func(t *testing.T) {
		// What a StateVersion 3 build left in a store: a GSMSTATE
		// payload stamped version 3. Restore refuses it on the
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
		if err := restoreState(t, cfg, bench, v3); err == nil {
			t.Fatal("Restore accepted a version-3 state")
		}
		store.Put(CheckpointKey(cfg, bench), cycle, v3)
		restarts(t, store)
		at, healed, ok := store.Latest(CheckpointKey(cfg, bench), cycle)
		if !ok || at != cycle {
			t.Fatalf("no checkpoint at cycle %d after the run", cycle)
		}
		if err := restoreState(t, cfg, bench, healed); err != nil {
			t.Fatalf("store still serves the version-3 state: %v", err)
		}
	})
}

// Instrumented runs checkpoint like plain ones: the fault injector's
// counters, the reuse profilers' histories and the probe's spans,
// trace records and timeline ride the state. A run checkpointed at
// 1200 cycles and resumed to 3000 must report the uninterrupted run's
// Result (JSON and stored bytes) and Chrome trace, at one shard, at
// four, and written at four then resumed at one. The probe's caps are
// small enough that trace records drop and the timeline ring wraps
// before the checkpoint.
func TestInstrumentedResumeIdentity(t *testing.T) {
	const bench = "nw"
	plan, err := ParseFaultPlan("seed=1,rate=1e-3,sites=all")
	if err != nil {
		t.Fatal(err)
	}
	probe := func(c *Config) {
		c.Probe = &ProbeConfig{Spans: true, Trace: true, TraceCap: 64, TimelineInterval: 100, TimelineCap: 8}
	}
	faults := func(c *Config) { c.Faults = plan }
	reuse := func(c *Config) { c.ProfileReuse = true }
	all := func(c *Config) { probe(c); faults(c); reuse(c); c.Audit = true }
	type row struct {
		name                      string
		set                       func(*Config)
		shardsFirst, shardsSecond int
	}
	var rows []row
	for _, r := range []struct {
		name string
		set  func(*Config)
	}{{"probe", probe}, {"faults", faults}, {"reuse", reuse}, {"all", all}} {
		for _, shards := range []int{0, 4} {
			rows = append(rows, row{r.name, r.set, shards, shards})
		}
	}
	rows = append(rows, row{"all", all, 4, 1})
	for _, r := range rows {
		t.Run(fmt.Sprintf("%s/shards=%d-%d", r.name, r.shardsFirst, r.shardsSecond), func(t *testing.T) {
			cfg := schemeCfg(t, "ctr_mac_bmt", 3000, r.shardsSecond)
			r.set(&cfg)
			plain, err := Simulate(cfg, bench)
			if err != nil {
				t.Fatal(err)
			}
			live := plain.CounterReuse != nil || plain.Faults.Injected != [len(plain.Faults.Injected)]uint64{} ||
				plain.Probe != nil && plain.Probe.TimelineDropped > 0 && plain.Probe.Spans.Dropped > 0
			if !live {
				t.Fatal("the instrument reported nothing to carry across the checkpoint")
			}

			store := ckptStore(t)
			short := cfg
			short.MaxCycles, short.Shards = 1200, r.shardsFirst
			runCheckpointed(t, short, bench, store, 500)
			res, from := runCheckpointed(t, cfg, bench, store, 500)
			if from != 1200 {
				t.Fatalf("resumed from cycle %d, want 1200", from)
			}
			if got, want := resultDigest(t, res), resultDigest(t, plain); got != want {
				t.Errorf("resumed digest %s != uninterrupted %s", got, want)
			}
			for _, f := range []func(*Result) ([]byte, error){
				sim.EncodeResult,
				func(r *Result) ([]byte, error) {
					var b bytes.Buffer
					if r.Probe == nil {
						return nil, nil
					}
					err := WriteChromeTrace(&b, r.Probe)
					return b.Bytes(), err
				},
			} {
				got, err := f(res)
				if err != nil {
					t.Fatal(err)
				}
				want, err := f(plain)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("resumed run's bytes differ from the uninterrupted run's: %d vs %d", len(got), len(want))
				}
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
			plain, err := Simulate(cfg, bench)
			if err != nil {
				t.Fatal(err)
			}
			want := resultDigest(t, plain)

			store := ckptStore(t)
			short := cfg
			short.MaxCycles = 1200
			runCheckpointed(t, short, bench, store, 500)
			res, from := runCheckpointed(t, cfg, bench, store, 500)
			if from != 1200 {
				t.Fatalf("resumed from cycle %d, want 1200", from)
			}
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
