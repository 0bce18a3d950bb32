package gpusecmem_test

import (
	"flag"
	"io"
	"net/url"
	"strings"
	"testing"

	"gpusecmem"
	"gpusecmem/internal/runner"
)

// runKeyPins are the RunKey digests of valid /api/run queries, captured
// from the decoder the knob table replaced. Result caches and checkpoint
// lineages on disk are keyed by these, so a valid query must keep its
// key. They cover every scheme, every knob, meta-kb=0, empty values and
// knobs on a scheme they do not apply to.
var runKeyPins = []struct{ query, digest string }{
	{"", "4f2ee54a8c71"},
	{"scheme=baseline&bench=nw&cycles=2000", "9e1f1d0c0f68"},
	{"scheme=baseline&bench=fdtd2d&cycles=3000", "2aef0c06ad8a"},
	{"scheme=ctr&bench=fdtd2d&cycles=3000", "80073d16353a"},
	{"scheme=ctr_bmt&bench=fdtd2d&cycles=3000", "0f13d5296e11"},
	{"scheme=ctr_mac_bmt&bench=fdtd2d&cycles=3000", "f79e2d5fdd2b"},
	{"scheme=secure&bench=fdtd2d&cycles=3000", "f79e2d5fdd2b"},
	{"scheme=secure_nomshr&bench=fdtd2d&cycles=3000", "31d2db5694d7"},
	{"scheme=direct&bench=fdtd2d&cycles=3000", "0037bc7ae632"},
	{"scheme=direct_mac&bench=fdtd2d&cycles=3000", "fdf66eabf79a"},
	{"scheme=direct_mac_mt&bench=fdtd2d&cycles=3000", "9e35a19ca2e8"},
	{"scheme=unified&bench=fdtd2d&cycles=3000", "20fe441f9d4e"},
	{"scheme=scattered&bench=fdtd2d&cycles=3000", "302ca67b879b"},
	{"scheme=sw_crypto&bench=fdtd2d&cycles=3000", "b3e6c1b77d83"},
	{"scheme=ctr_mac_bmt&bench=lbm&aes-latency=80&aes-engines=2", "eb621b043100"},
	{"scheme=unified&mshrs=8&aes-latency=80&cycles=3000", "163d0cba0eec"},
	{"scheme=ctr_mac_bmt&meta-kb=0&cycles=4000", "c4309e8faf97"},
	{"scheme=direct_mac&meta-kb=12&bench=bfs", "33f557ffaef6"},
	{"scheme=ctr&unified=true&cycles=5000", "335cfba54dfa"},
	{"scheme=ctr_bmt&unified=1&mshrs=0", "0fc42056a39e"},
	{"scheme=unified&unified=false", "4f2ee54a8c71"},
	{"scheme=ctr_bmt&audit=true&bench=nw", "ee7c23ea9e1a"},
	{"scheme=direct&audit=1&aes-latency=100", "75833e7865c4"},
	{"scheme=&bench=&cycles=&aes-latency=&aes-engines=&meta-kb=&mshrs=&unified=&audit=", "4f2ee54a8c71"},
	{"scheme=baseline&aes-latency=80&aes-engines=2&meta-kb=12&mshrs=8&unified=true&cycles=2000", "d550f66120d5"},
	{"scheme=scattered&meta-kb=12&mshrs=16", "35d662d8957e"},
	{"scheme=sw_crypto&aes-latency=200&unified=0", "9bdef1b85cb5"},
	{"scheme=secure_nomshr&meta-kb=24&aes-engines=4&bench=nw&cycles=6000", "9474fcabce85"},
}

func TestRunKeyPins(t *testing.T) {
	for _, p := range runKeyPins {
		q, err := url.ParseQuery(p.query)
		if err != nil {
			t.Fatal(err)
		}
		run, err := gpusecmem.ResolveQuery(q)
		if err != nil {
			t.Errorf("query %q: %v", p.query, err)
			continue
		}
		if got := runner.KeyDigest(gpusecmem.RunKey(run.Config, run.Benchmark)); got != p.digest {
			t.Errorf("query %q: key digest %s, want %s", p.query, got, p.digest)
		}
	}
}

// TestFlagsAndQueryAgree: an argument set given as secmemsim flags and
// as an /api/run query resolves to the same run, or fails on both.
func TestFlagsAndQueryAgree(t *testing.T) {
	for _, set := range [][]string{
		{},
		{"scheme=unified", "mshrs=8", "aes-latency=80"},
		{"scheme=ctr_mac_bmt", "unified=true"},
		{"scheme=baseline", "aes-latency=80", "unified=1", "meta-kb=12"},
		{"scheme=direct_mac", "meta-kb=12", "bench=bfs", "cycles=5000"},
		{"scheme=secure_nomshr", "meta-kb=0", "aes-engines=4"},
		{"scheme=ctr_bmt", "audit=true", "bench=nw"},
		{"scheme=sw_crypto", "aes-engines=4", "unified=false"},
		{"scheme=scattered", "meta-kb=24", "mshrs=16"},
		{"unified=yes"},
		{"scheme=baseline", "mshrs=-3"},
		{"scheme=bogus"},
		{"bench=bogus"},
		{"cycles=0"},
		{"aes-engines=0"},
		{"meta-kb=50000000"},
	} {
		fs := flag.NewFlagSet("secmemsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		args := gpusecmem.RunArgs{}
		args.BindFlags(fs)
		q := url.Values{}
		var argv []string
		for _, kv := range set {
			name, v, _ := strings.Cut(kv, "=")
			q.Set(name, v)
			argv = append(argv, "-"+kv)
		}
		var fromFlags gpusecmem.RunRequest
		err := fs.Parse(argv)
		if err == nil {
			fromFlags, err = args.Resolve()
		}
		fromQuery, qerr := gpusecmem.ResolveQuery(q)
		switch {
		case (err == nil) != (qerr == nil):
			t.Errorf("%v: flags err %v, query err %v", set, err, qerr)
		case err == nil && gpusecmem.RunKey(fromFlags.Config, fromFlags.Benchmark) != gpusecmem.RunKey(fromQuery.Config, fromQuery.Benchmark):
			t.Errorf("%v: flags and query resolve to different run keys", set)
		case err == nil && fromFlags.Scheme != fromQuery.Scheme:
			t.Errorf("%v: flags scheme %q, query scheme %q", set, fromFlags.Scheme, fromQuery.Scheme)
		}
	}
}

// FuzzRunQuery drives raw /api/run query strings through the knob
// table's decoder and Config.Validate, then runs every accepted
// configuration to a horizon clamped to a few hundred cycles. A
// rejected query or a failed run is fine; a panic is not.
func FuzzRunQuery(f *testing.F) {
	for _, p := range runKeyPins {
		f.Add(p.query)
	}
	// The rejected queries of internal/daemon's TestRunValidation.
	for _, q := range []string{
		"scheme=no-such-scheme", "bench=no-such-bench", "cycles=abc", "cycles=0",
		"scheme=ctr_mac_bmt&aes-engines=0", "aes-latency=banana", "aes-latency=-5",
		"mshrs=-3", "meta-kb=-1", "meta-kb=50000000", "meta-kb=18014398509481985",
		"unified=yes", "audit=on", "scheme=baseline&aes-latency=banana",
		"scheme=baseline&mshrs=-3", "mshr=8", "mshrs=8&mshrs=16", "aes-engines=100000",
		"audit=yes", "cycles=1500&cycles=1600",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		run, err := gpusecmem.ResolveQuery(q)
		if err != nil {
			return
		}
		cfg := run.Config
		cfg.MaxCycles = min(cfg.MaxCycles, 300)
		gpusecmem.Simulate(cfg, run.Benchmark)
	})
}
