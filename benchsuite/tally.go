package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"gpusecmem"
	"gpusecmem/internal/sim"
)

// tally collects one measured window. Each goroutine that sends
// operations keeps its own and merges it when done.
type tally struct {
	lat       []float64 // per-operation latency, ms
	attempted int       // operations and correctness checks
	failed    int
	seconds   float64              // length of the measured window
	tiers     map[string][]float64 // serving tier -> request latency, ms
	overhead  []float64            // client-side time outside the handler, µs
	work      workCounts
	extra     map[string]float64 // per-layer values only one workload measures
	detail    map[string]float64 // readings kept in the record only
	failures  []string           // the first few failures, for diagnosis
}

// maxFailures bounds the failure descriptions a record keeps.
const maxFailures = 5

// op records one operation of the window.
func (t *tally) op(ms float64, ok bool, what string) {
	t.lat = append(t.lat, ms)
	t.check(ok, what)
}

// check records one correctness check; a mismatch is a failed
// operation.
func (t *tally) check(ok bool, what string) {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.failures) < maxFailures {
			t.failures = append(t.failures, what)
		}
	}
}

func (t *tally) tier(source string, ms float64) {
	if t.tiers == nil {
		t.tiers = map[string][]float64{}
	}
	t.tiers[source] = append(t.tiers[source], ms)
}

func (t *tally) setExtra(name string, v float64) {
	if t.extra == nil {
		t.extra = map[string]float64{}
	}
	t.extra[name] = v
}

func (t *tally) setDetail(name string, v float64) {
	if t.detail == nil {
		t.detail = map[string]float64{}
	}
	t.detail[name] = v
}

// merge folds o into t (window lengths are set by the caller).
func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.attempted += o.attempted
	t.failed += o.failed
	for s, l := range o.tiers {
		for _, ms := range l {
			t.tier(s, ms)
		}
	}
	t.overhead = append(t.overhead, o.overhead...)
	t.work.merge(o.work)
	for _, f := range o.failures {
		if len(t.failures) < maxFailures {
			t.failures = append(t.failures, f)
		}
	}
}

// workCounts is the simulated work a window performed, summed over
// its simulations. Counts read from the JSON wire form, where only
// rates are published, are derived from those rates.
type workCounts struct {
	sims         int
	cycles       float64
	instructions float64
	l2Accesses   float64
	l2Hits       float64
	metaAccesses float64
	metaMisses   float64
	dramRequests float64
	metaRequests float64
	rowHits      float64
	rowAccesses  float64
}

// metaKinds are the DRAM request kinds that move security metadata
// rather than data.
var metaKinds = []string{"ctr", "mac", "bmt", "wb", "smap", "key"}

func (w *workCounts) add(r *gpusecmem.Result) {
	w.sims++
	w.cycles += float64(r.Cycles)
	w.instructions += float64(r.Instructions)
	w.l2Accesses += float64(r.L2.Accesses)
	w.l2Hits += float64(r.L2.Hits)
	for _, m := range r.Meta {
		w.metaAccesses += float64(m.Accesses)
		w.metaMisses += float64(m.Misses())
	}
	w.dramRequests += float64(r.TotalRequests())
	w.metaRequests += float64(r.TotalRequests() - r.RequestsByKind[sim.KindData] - r.RequestsByKind[sim.KindShare])
	w.rowHits += float64(r.RowHits)
	w.rowAccesses += float64(r.RowHits + r.RowMisses)
}

func (w *workCounts) merge(o workCounts) {
	w.sims += o.sims
	w.cycles += o.cycles
	w.instructions += o.instructions
	w.l2Accesses += o.l2Accesses
	w.l2Hits += o.l2Hits
	w.metaAccesses += o.metaAccesses
	w.metaMisses += o.metaMisses
	w.dramRequests += o.dramRequests
	w.metaRequests += o.metaRequests
	w.rowHits += o.rowHits
	w.rowAccesses += o.rowAccesses
}

// wireResult is the part of the /api/run result JSON the work counts
// read.
type wireResult struct {
	Cycles       uint64            `json:"cycles"`
	Instructions uint64            `json:"instructions"`
	Requests     map[string]uint64 `json:"dram_requests"`
	L2MissRate   float64           `json:"l2_miss_rate"`
	L2Accesses   uint64            `json:"l2_accesses"`
	Meta         map[string]struct {
		Accesses uint64  `json:"accesses"`
		MissRate float64 `json:"miss_rate"`
	} `json:"metadata"`
	RowHitRate float64 `json:"dram_row_hit_rate"`
}

func (r wireResult) counts() workCounts {
	w := workCounts{
		sims:         1,
		cycles:       float64(r.Cycles),
		instructions: float64(r.Instructions),
		l2Accesses:   float64(r.L2Accesses),
		l2Hits:       float64(r.L2Accesses) * (1 - r.L2MissRate),
	}
	for _, m := range r.Meta {
		w.metaAccesses += float64(m.Accesses)
		w.metaMisses += float64(m.Accesses) * m.MissRate
	}
	for _, n := range r.Requests {
		w.dramRequests += float64(n)
	}
	for _, k := range metaKinds {
		w.metaRequests += float64(r.Requests[k])
	}
	w.rowAccesses = w.dramRequests
	w.rowHits = r.RowHitRate * w.dramRequests
	return w
}

// since is the work a run extending a lineage did: its cumulative
// counts minus those of the run it resumed from.
func (w workCounts) since(before workCounts) workCounts {
	return workCounts{
		sims:         1,
		cycles:       w.cycles - before.cycles,
		instructions: w.instructions - before.instructions,
		l2Accesses:   w.l2Accesses - before.l2Accesses,
		l2Hits:       w.l2Hits - before.l2Hits,
		metaAccesses: w.metaAccesses - before.metaAccesses,
		metaMisses:   w.metaMisses - before.metaMisses,
		dramRequests: w.dramRequests - before.dramRequests,
		metaRequests: w.metaRequests - before.metaRequests,
		rowHits:      w.rowHits - before.rowHits,
		rowAccesses:  w.rowAccesses - before.rowAccesses,
	}
}

// digest is the sha256 of a Result's canonical JSON, the form the
// repository's golden digests pin.
func digest(r *gpusecmem.Result) (string, error) {
	raw, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// runResponse is the part of an /api/run body the checks read.
type runResponse struct {
	Result json.RawMessage `json:"result"`
}

// bodyResult extracts the compact result JSON of an /api/run body.
func bodyResult(body []byte) ([]byte, error) {
	var r runResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode /api/run body: %w", err)
	}
	if len(r.Result) == 0 {
		return nil, fmt.Errorf("/api/run body has no result")
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, r.Result); err != nil {
		return nil, fmt.Errorf("compact /api/run result: %w", err)
	}
	return buf.Bytes(), nil
}

// bodyDigest is the sha256 of an /api/run body's result, compacted so
// it compares equal to digest of the same Result.
func bodyDigest(body []byte) (string, error) {
	res, err := bodyResult(body)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(res)
	return hex.EncodeToString(sum[:]), nil
}
