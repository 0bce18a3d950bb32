package sim

import "errors"

// ForgedStates returns the byte-level forgery of every stateForgeries
// entry that finds something to forge in state b of cfg running bench,
// for the decoder fuzzer's seed corpus.
func ForgedStates(cfg Config, bench string, b []byte) ([][]byte, error) {
	var out [][]byte
	for _, f := range stateForgeries {
		g, err := Build(cfg, bench)
		if err != nil {
			return nil, err
		}
		if err := g.Restore(b); err != nil {
			return nil, err
		}
		forged, err := f.forge(g)
		if errors.Is(err, errNothingToForge) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, forged)
	}
	return out, nil
}

// MetaShape reports partition 0's metadata-cache table: the kinds with
// a cache, in MetaKind order, and how many distinct caches hold them.
func MetaShape(g *GPU) (kinds []MetaKind, caches int) {
	p := g.parts[0]
	for mk, mc := range p.meta {
		if mc != nil {
			kinds = append(kinds, MetaKind(mk))
		}
	}
	return kinds, len(p.metaCaches())
}
