package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"gpusecmem/internal/sim"
)

// isolationRun is one machine of the isolation test's mix. With
// resumeAt set it runs to that cycle, snapshots, releases the machine
// and restores the state into a second one, so the restore path's
// arrays are drawn and released too.
type isolationRun struct {
	name     string
	cfg      sim.Config
	bench    string
	resumeAt uint64
}

func (r isolationRun) run() (*sim.Result, error) {
	if r.resumeAt == 0 {
		return sim.Run(r.cfg, r.bench)
	}
	short := r.cfg
	short.MaxCycles = r.resumeAt
	g, err := sim.Build(short, r.bench)
	if err != nil {
		return nil, err
	}
	if _, err := g.RunContext(context.Background()); err != nil {
		return nil, err
	}
	state, err := g.Snapshot()
	g.Release()
	if err != nil {
		return nil, err
	}
	if g, err = sim.Build(r.cfg, r.bench); err != nil {
		return nil, err
	}
	if err := g.Restore(state); err != nil {
		return nil, err
	}
	res, err := g.RunContext(context.Background())
	g.Release()
	return res, err
}

// TestReleasedStorageIsolation runs machine A, keeps its encoded
// Result and JSON, then lets two goroutines run machines of other
// shapes and schemes that draw the storage A (and each other) released,
// plus a second A. A's Result must not change under them, the second A
// must match the first byte for byte, and so must the two goroutines'
// runs of each other machine.
func TestReleasedStorageIsolation(t *testing.T) {
	const cycles = 600
	cfgA := sim.SecureMem()
	cfgA.MaxCycles = cycles
	first, err := sim.Run(cfgA, "fdtd2d")
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := sim.EncodeResult(first)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}

	unified := sim.SecureMem()
	unified.Secure.Unified = true
	sharded := sim.SecureMem()
	sharded.Shards = 2
	if err := sharded.SetMetaCacheKB(4); err != nil {
		t.Fatal(err)
	}
	mix := []isolationRun{
		{name: "baseline", cfg: sim.Baseline(), bench: "nw"},
		{name: "unified", cfg: unified, bench: "lbm"},
		{name: "direct", cfg: sim.DirectMem(40, true, true), bench: "b+tree"},
		{name: "scattered", cfg: sim.Scattered(4), bench: "srad_v2"},
		{name: "sw_crypto", cfg: sim.SWCrypto(80), bench: "kmeans"},
		{name: "sharded", cfg: sharded, bench: "fdtd2d"},
		{name: "resumed", cfg: sim.SecureMem(), bench: "streamcluster", resumeAt: cycles / 2},
		{name: "A", cfg: cfgA, bench: "fdtd2d"},
	}
	for i := range mix {
		mix[i].cfg.MaxCycles = cycles
	}
	got := make([][2][]byte, len(mix))
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(mix))
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The goroutines walk the mix in opposite orders, so they
			// run different shapes at the same time.
			for k := range mix {
				i := k
				if w == 1 {
					i = len(mix) - 1 - k
				}
				res, err := mix[i].run()
				if err == nil {
					got[i][w], err = sim.EncodeResult(res)
				}
				if err != nil {
					errs <- fmt.Errorf("%s: %w", mix[i].name, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	for i, r := range mix {
		if !bytes.Equal(got[i][0], got[i][1]) {
			t.Errorf("%s: the two goroutines' runs encode differently", r.name)
		}
		if r.name == "A" && !bytes.Equal(got[i][0], wantBytes) {
			t.Error("a second run of A differs from the first")
		}
	}
	if b, _ := sim.EncodeResult(first); !bytes.Equal(b, wantBytes) {
		t.Error("A's Result changed after other machines reused its storage")
	}
	if j, _ := json.Marshal(first); !bytes.Equal(j, wantJSON) {
		t.Error("A's JSON changed after other machines reused its storage")
	}
}

// TestReleasedGPUPanics: a released machine refuses every use rather
// than run on storage another machine may own.
func TestReleasedGPUPanics(t *testing.T) {
	cfg := sim.SecureMem()
	cfg.MaxCycles = 100
	g := newMachine(t, cfg, "nw")
	if _, err := g.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	state, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	for name, use := range map[string]func(){
		"RunContext": func() { g.RunContext(context.Background()) },
		"Snapshot":   func() { g.Snapshot() },
		"Restore":    func() { g.Restore(state) },
		"Release":    g.Release,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released GPU did not panic", name)
				}
			}()
			use()
		}()
	}
}

// BenchmarkShortRun is one 300-cycle SecureMem fdtd2d run per
// iteration, construction included: the fixed per-run cost a sweep of
// short simulations pays once per run. Run it with -benchmem.
func BenchmarkShortRun(b *testing.B) {
	cfg := sim.SecureMem()
	cfg.MaxCycles = 300
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, "fdtd2d"); err != nil {
			b.Fatal(err)
		}
	}
}
