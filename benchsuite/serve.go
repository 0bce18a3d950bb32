package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpusecmem"
	"gpusecmem/internal/checkpoint"
	"gpusecmem/internal/cluster"
	"gpusecmem/internal/daemon"
	"gpusecmem/internal/resultcache"
	"gpusecmem/internal/telemetry"
)

// clients is the closed-loop client count of both serving workloads;
// each waits for its reply before sending the next request.
const clients = 2

// writeStep is how far a serve-write extension pushes a lineage's
// horizon, in cycles.
const writeStep = 500

// runKey is the configuration one /api/run request names.
type runKey struct {
	p      point
	cycles uint64
	aes    int // the aes-latency knob; 0 keeps the scheme default
}

func (k runKey) path() string {
	q := url.Values{"scheme": {k.p.scheme}, "bench": {k.p.bench}, "cycles": {strconv.FormatUint(k.cycles, 10)}}
	if k.aes != 0 {
		q.Set("aes-latency", strconv.Itoa(k.aes))
	}
	return "/api/run?" + q.Encode()
}

// config resolves the key the way the daemon's /api/run parser does.
func (k runKey) config() (gpusecmem.Config, error) {
	cfg, err := k.p.config(k.cycles)
	if err == nil && k.aes != 0 && cfg.Secure.Encryption != gpusecmem.EncNone {
		cfg.Secure.AESLatency = k.aes
	}
	return cfg, err
}

// storeKeys are the result-store and checkpoint keys the daemon uses
// for k, which a traced run binds to the request asking for them.
func (k runKey) storeKeys() []string {
	cfg, err := k.config()
	if err != nil {
		return nil
	}
	return []string{gpusecmem.RunKey(cfg, k.p.bench), gpusecmem.CheckpointKey(cfg, k.p.bench)}
}

// fleet is two secmemd nodes in this process, clustered with each
// other, each with its own result store. With checkpointing, their
// checkpoint stores share one directory, as nodes on one host do, so a
// lineage resumes on whichever node owns its next horizon.
type fleet struct {
	dir    string
	urls   []string
	nodes  []*node
	client *http.Client
	tr     *tracer
	ids    atomic.Uint64
}

type node struct {
	srv  *daemon.Server
	http *http.Server
	done chan struct{}
}

func startFleet(dir string, memEntries int, checkpoints bool, tr *tracer) (f *fleet, err error) {
	f = &fleet{dir: dir, tr: tr}
	var ls []net.Listener
	defer func() {
		if err != nil {
			for _, l := range ls[len(f.nodes):] {
				l.Close()
			}
			f.close()
		}
	}()
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return f, err
		}
		ls = append(ls, l)
		f.urls = append(f.urls, "http://"+l.Addr().String())
	}
	ckpts := filepath.Join(dir, "checkpoints")
	for i, l := range ls {
		rc, err := resultcache.Open(filepath.Join(dir, "results"+strconv.Itoa(i)))
		if err != nil {
			return f, err
		}
		ccfg := cluster.Config{Self: f.urls[i], Peers: []string{f.urls[1-i]}}
		cfg := daemon.Config{MemCacheEntries: memEntries, Cache: rc}
		if tr != nil {
			ccfg.Client = &http.Client{Timeout: 5 * time.Second, Transport: tracedTransport{base: http.DefaultTransport, tr: tr}}
			cfg.Cache = tracedResults{Cache: rc, tr: tr}
		}
		if checkpoints {
			cs, err := checkpoint.Open(ckpts)
			if err != nil {
				return f, err
			}
			cfg.Checkpoints = cs
			if tr != nil {
				cfg.Checkpoints = tracedCheckpoints{Store: cs, tr: tr}
			}
		}
		if cfg.Cluster, err = cluster.New(ccfg); err != nil {
			return f, err
		}
		n := &node{srv: daemon.New(cfg), done: make(chan struct{})}
		h := n.srv.Handler()
		if tr != nil {
			h = tr.handler(h)
		}
		n.http = &http.Server{Handler: h}
		f.nodes = append(f.nodes, n)
		go func() {
			defer close(n.done)
			n.http.Serve(l)
		}()
	}
	f.client = &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	return f, nil
}

// close stops both nodes, waits for their servers to return, and
// removes their stores.
func (f *fleet) close() {
	for _, n := range f.nodes {
		n.srv.Abort()
		n.http.Close()
		<-n.done
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// reply is one /api/run answer as the client saw it.
type reply struct {
	status int
	source string // X-Run-Source: memory, disk, peer, resumed or simulated
	body   []byte
	ms     float64
	req    uint64
}

// get sends one /api/run request for k to a node and reads the whole
// answer. The request carries a benchmark-assigned trace ID.
func (f *fleet) get(ctx context.Context, node int, k runKey, keys []string) (reply, error) {
	r := reply{req: f.ids.Add(1)}
	if f.tr != nil {
		f.tr.bind(r.req, keys...)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, f.urls[node]+k.path(), nil)
	if err != nil {
		return r, err
	}
	hr.Header.Set(telemetry.TraceHeader, fmt.Sprintf("%016x", r.req))
	t0 := time.Now()
	resp, err := f.client.Do(hr)
	if err == nil {
		r.status, r.source = resp.StatusCode, resp.Header.Get("X-Run-Source")
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	return r, err
}

// account tallies one request. ok says whether the answer passed every
// check; a failed answer counts as a failed operation and stays out of
// the tier latencies.
func (f *fleet) account(t *tally, r reply, ok bool, what string) {
	t.op(r.ms, ok, what)
	if !ok {
		return
	}
	t.tier(r.source, r.ms)
	if f.tr != nil {
		if us, found := f.tr.handlerTime(r.req); found {
			t.overhead = append(t.overhead, r.ms*1e3-us)
		}
	}
}

func describe(k runKey, r reply, err error) string {
	return fmt.Sprintf("%s: status %d source %q err %v", k.path(), r.status, r.source, err)
}

// --- serve-read ---

// readTiers are the answers a read-only window may get.
var readTiers = map[string]bool{"memory": true, "disk": true, "peer": true}

// readKeys are the serve-read working set: distinct (scheme,
// benchmark) pairs, walked diagonally so every benchmark appears.
func readKeys(s size) ([]runKey, error) {
	var schemes []string
	for _, n := range gpusecmem.SchemeNames() {
		if n != "secure" { // an alias of ctr_mac_bmt: the same keys
			schemes = append(schemes, n)
		}
	}
	benches := gpusecmem.Benchmarks()
	if s.readKeys > len(schemes)*len(benches) {
		return nil, fmt.Errorf("serve-read: %d keys exceed the %d scheme x benchmark pairs", s.readKeys, len(schemes)*len(benches))
	}
	keys := make([]runKey, s.readKeys)
	for i := range keys {
		r, q := i%len(schemes), i/len(schemes)
		keys[i] = runKey{p: point{schemes[r], benches[(r+q)%len(benches)]}, cycles: s.readCycles}
	}
	return keys, nil
}

var serveRead = &workload{
	name:      "serve-read",
	setupReps: 3,
	// Set-up is starting the two nodes on empty stores and warming every
	// key once through them, which leaves each result on its owner's
	// disk. The nodes keep no checkpoints: reads never consult them, and
	// writing one per warmed key would only lengthen set-up.
	setup: func(b *bench, tr *tracer) (env, error) {
		keys, err := readKeys(b.size)
		if err != nil {
			return nil, err
		}
		f, err := startFleet(b.scratch("fleet"), b.size.readLRU, false, tr)
		if err != nil {
			return nil, err
		}
		e := &readEnv{b: b, f: f, keys: keys, digests: make([]string, len(keys)), stores: make([][]string, len(keys))}
		if tr != nil {
			for i, k := range keys {
				e.stores[i] = k.storeKeys()
			}
		}
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(keys); i += clients {
					r, err := f.get(context.Background(), i%2, keys[i], e.stores[i])
					if err != nil || r.status != http.StatusOK || r.source != "simulated" {
						errs[c] = fmt.Errorf("warm-up %s", describe(keys[i], r, err))
						return
					}
					if e.digests[i], err = bodyDigest(r.body); err != nil {
						errs[c] = err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			f.close()
			return nil, fmt.Errorf("serve-read: %w", err)
		}
		return e, nil
	},
}

type readEnv struct {
	b       *bench
	f       *fleet
	keys    []runKey
	digests []string   // warm-up result digest per key
	stores  [][]string // store keys per key, when traced
}

// measure is a closed loop: each client draws keys uniformly and
// alternates between the nodes until the window closes. A seeded
// 1-in-16 sample of answers is checked against the warm-up digest.
func (e *readEnv) measure(ctx context.Context, t *tally, cal *calibrator) error {
	p := newPacer(cal, clients, time.Second)
	start := time.Now()
	deadline := start.Add(e.b.window)
	ts := make([]tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer p.leave()
			rng := e.b.rand(10 + int64(c))
			for n := c; ; n++ {
				if p.pause(); !time.Now().Before(deadline) || ctx.Err() != nil {
					return
				}
				i := rng.Intn(len(e.keys))
				sampled := rng.Intn(16) == 0
				r, err := e.f.get(ctx, n%2, e.keys[i], e.stores[i])
				ok := err == nil && r.status == http.StatusOK && readTiers[r.source]
				what := describe(e.keys[i], r, err)
				if ok && sampled {
					d, derr := bodyDigest(r.body)
					ok = derr == nil && d == e.digests[i]
					what = fmt.Sprintf("%s: result digest %.12s, warm-up %.12s (%v)", e.keys[i].path(), d, e.digests[i], derr)
				}
				e.f.account(&ts[c], r, ok, what)
			}
		}(c)
	}
	wg.Wait()
	for i := range ts {
		t.merge(&ts[i])
	}
	t.seconds = (time.Since(start) - p.wall).Seconds()
	return ctx.Err()
}

func (e *readEnv) verify(*tally) error { return nil }
func (e *readEnv) close()              { e.f.close() }

// --- serve-write ---

var serveWrite = &workload{
	name:      "serve-write",
	setupReps: 3,
	// Set-up is starting the two nodes on empty stores and sending one
	// warm-up lineage through them, cold then extended, on a key no
	// window request uses (AES latency 41; the window's start at 42). It
	// pays the one-time costs — gob compiling the checkpoint and result
	// codecs, first connections, heap growth — before timing.
	setup: func(b *bench, tr *tracer) (env, error) {
		for _, p := range b.size.writePairs {
			cfg, err := p.config(b.size.writeCycles)
			if err != nil {
				return nil, err
			}
			if cfg.Secure.Encryption == gpusecmem.EncNone {
				return nil, fmt.Errorf("serve-write: %s ignores the aes-latency knob its lineages are told apart by", p)
			}
		}
		f, err := startFleet(b.scratch("fleet"), b.size.readLRU, true, tr)
		if err != nil {
			return nil, err
		}
		e := &writeEnv{b: b, f: f}
		var t tally
		cold := runKey{p: b.size.writePairs[0], cycles: b.size.writeCycles, aes: 41}
		ext := cold
		ext.cycles += writeStep
		if e.send(context.Background(), &t, 0, cold, "simulated") == nil ||
			e.send(context.Background(), &t, 1, ext, "resumed") == nil {
			f.close()
			return nil, fmt.Errorf("serve-write warm-up: %v", t.failures)
		}
		return e, nil
	},
}

// answer is one resumed reply kept for the post-window check.
type answer struct {
	key  runKey
	body []byte
}

type writeEnv struct {
	b       *bench
	f       *fleet
	resumed []answer
}

// measure is a closed loop of whole rounds. In a round each client
// walks the pairs in a seeded order; for each it asks for a cold key
// (answered "simulated") and then extends that lineage by writeStep
// cycles (answered "resumed"). A client's lineages are its own — a
// distinct AES latency per client and round — so every answer's tier
// is known in advance and checked.
func (e *writeEnv) measure(ctx context.Context, t *tally, cal *calibrator) error {
	p := newPacer(cal, clients, time.Second)
	start := time.Now()
	ts := make([]tally, clients)
	kept := make([][]answer, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer p.leave()
			rng := e.b.rand(20 + int64(c))
			pairs := append([]point(nil), e.b.size.writePairs...)
			n := c
			for rounds := 1; ctx.Err() == nil; rounds++ {
				rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
				for _, pt := range pairs {
					cold := runKey{p: pt, cycles: e.b.size.writeCycles, aes: 40 + rounds*clients + c}
					ext := cold
					ext.cycles += writeStep
					p.pause()
					rc := e.send(ctx, &ts[c], n%2, cold, "simulated")
					p.pause()
					re := e.send(ctx, &ts[c], (n+1)%2, ext, "resumed")
					n += 2
					if re != nil {
						kept[c] = append(kept[c], answer{key: ext, body: re})
					}
					if e.f.tr != nil && rc != nil && re != nil {
						ts[c].work.merge(lineageWork(rc, re))
					}
				}
				if !another(start, e.b.window, rounds) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for i := range ts {
		t.merge(&ts[i])
		e.resumed = append(e.resumed, kept[i]...)
	}
	t.seconds = (time.Since(start) - p.wall).Seconds()
	return ctx.Err()
}

// send asks a node for k and checks the answer came from the expected
// tier; it returns the body of a good answer.
func (e *writeEnv) send(ctx context.Context, t *tally, node int, k runKey, tier string) []byte {
	var keys []string
	if e.f.tr != nil {
		keys = k.storeKeys()
	}
	r, err := e.f.get(ctx, node, k, keys)
	ok := err == nil && r.status == http.StatusOK && r.source == tier
	e.f.account(t, r, ok, describe(k, r, err)+", want "+tier)
	if !ok {
		return nil
	}
	return r.body
}

// lineageWork is the simulated work of a cold run plus the extension
// that resumed it (zero if either body does not decode).
func lineageWork(cold, ext []byte) workCounts {
	var w [2]wireResult
	for i, body := range [][]byte{cold, ext} {
		res, err := bodyResult(body)
		if err != nil || json.Unmarshal(res, &w[i]) != nil {
			return workCounts{}
		}
	}
	c, x := w[0].counts(), w[1].counts()
	c.merge(x.since(c))
	return c
}

// verify re-simulates a seeded sample of resumed keys from scratch and
// compares each with the answer the cluster gave.
func (e *writeEnv) verify(t *tally) error {
	rng := e.b.rand(30)
	for n, i := range rng.Perm(len(e.resumed)) {
		if n == e.b.size.writeResim {
			break
		}
		a := e.resumed[i]
		cfg, err := a.key.config()
		if err != nil {
			return err
		}
		res, err := gpusecmem.Simulate(cfg, a.key.p.bench)
		if err != nil {
			t.check(false, fmt.Sprintf("re-simulate %s: %v", a.key.path(), err))
			continue
		}
		want, err := digest(res)
		if err != nil {
			return err
		}
		got, err := bodyDigest(a.body)
		t.check(err == nil && got == want, fmt.Sprintf("%s: resumed digest %.12s, from scratch %.12s", a.key.path(), got, want))
	}
	return nil
}

func (e *writeEnv) close() { e.f.close() }
