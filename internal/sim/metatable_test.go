package sim_test

import (
	"slices"
	"testing"

	"gpusecmem"
	"gpusecmem/internal/sim"
)

// Every scheme preset's metadata-cache table: which kinds have a cache
// and how many distinct caches hold them. A unified cache serves three
// kinds; the share map and the absent key-table cache are the
// extension schemes' shapes.
func TestSchemeMetaCacheTable(t *testing.T) {
	const (
		ctr  = sim.MetaCounter
		mac  = sim.MetaMAC
		tree = sim.MetaTree
	)
	want := map[string]struct {
		kinds  []sim.MetaKind
		caches int
	}{
		"baseline":      {nil, 0},
		"ctr":           {[]sim.MetaKind{ctr}, 1},
		"ctr_bmt":       {[]sim.MetaKind{ctr, tree}, 2},
		"ctr_mac_bmt":   {[]sim.MetaKind{ctr, mac, tree}, 3},
		"direct":        {nil, 0},
		"direct_mac":    {[]sim.MetaKind{mac}, 1},
		"direct_mac_mt": {[]sim.MetaKind{mac, tree}, 2},
		"scattered":     {[]sim.MetaKind{sim.MetaSMap}, 1},
		"secure":        {[]sim.MetaKind{ctr, mac, tree}, 3},
		"secure_nomshr": {[]sim.MetaKind{ctr, mac, tree}, 3},
		"sw_crypto":     {nil, 0},
		"unified":       {[]sim.MetaKind{ctr, mac, tree}, 1},
	}
	for _, scheme := range gpusecmem.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			w, ok := want[scheme]
			if !ok {
				t.Fatalf("no expected metadata-cache table for scheme %q", scheme)
			}
			kinds, caches := sim.MetaShape(newMachine(t, schemeConfig(t, scheme, 1000), "nw"))
			if !slices.Equal(kinds, w.kinds) || caches != w.caches {
				t.Errorf("cached kinds %v on %d caches, want %v on %d", kinds, caches, w.kinds, w.caches)
			}
		})
	}
}
