package gpusecmem

import (
	"fmt"
	"sort"
)

// SchemeNames lists the named secure-memory design points of Tables V
// and VIII, resolvable with ConfigForScheme.
func SchemeNames() []string {
	names := make([]string, 0, len(schemes))
	for n := range schemes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// The presets are the experiments' own configurations (experiments.go),
// so a scheme name simulates exactly what its figure does.
var schemes = map[string]func() Config{
	// baseline: no secure memory.
	"baseline": BaselineConfig,
	// ctr: counter-mode encryption, no integrity metadata.
	"ctr": cfgCtr,
	// ctr_bmt: counter-mode encryption with the BMT protecting
	// counters, no data MACs.
	"ctr_bmt": cfgCtrBMT,
	// ctr_mac_bmt: the full counter-mode secure memory (alias:
	// "secure").
	"ctr_mac_bmt": SecureMemConfig,
	"secure":      SecureMemConfig,
	// secure_nomshr: the paper's Fig 3 secureMem (no metadata MSHRs).
	"secure_nomshr": cfgSecureNoMSHR,
	// direct: direct encryption only.
	"direct": func() Config { return cfgDirect(40) },
	// direct_mac: direct encryption with sector MACs (6KB MAC cache).
	"direct_mac": func() Config { return DirectMemConfig(40, true, false) },
	// direct_mac_mt: direct encryption with MACs and the Merkle tree
	// (3KB + 3KB caches).
	"direct_mac_mt": func() Config { return DirectMemConfig(40, true, true) },
	// unified: the full counter-mode design with a unified 6KB
	// metadata cache.
	"unified": cfgUnified,
	// scattered: secret-shared line placement (Secure Scattered Memory,
	// arXiv:2402.15824) with the default 2-way share fan-out and a 6KB
	// share-map cache; no AES, MACs, or integrity tree.
	"scattered": func() Config { return ScatteredMemConfig(2) },
	// sw_crypto: MemShield-style software encryption (arXiv:2004.09252)
	// at 320 cycles per sector; no hardware metadata structures.
	"sw_crypto": func() Config { return SWCryptoConfig(320) },
}

// ConfigForScheme resolves a named design point (see SchemeNames).
func ConfigForScheme(name string) (Config, error) {
	mk, ok := schemes[name]
	if !ok {
		return Config{}, fmt.Errorf("gpusecmem: unknown scheme %q (known: %v)", name, SchemeNames())
	}
	return mk(), nil
}
