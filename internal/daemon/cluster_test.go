package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"gpusecmem"
	"gpusecmem/internal/cluster"
	"gpusecmem/internal/resultcache"
)

// reserveListeners grabs n loopback listeners up front so every node's
// advertised URL is known before any daemon is built — the static
// member list the cluster package expects from flags.
func reserveListeners(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	ls := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	return ls, urls
}

// startNode serves handler on a reserved listener.
func startNode(t *testing.T, l net.Listener, handler http.Handler) *httptest.Server {
	t.Helper()
	ts := &httptest.Server{Listener: l, Config: &http.Server{Handler: handler}}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

// newClusterMember builds one clustered daemon over its own disk cache.
func newClusterMember(t *testing.T, self string, peers []string) *Server {
	t.Helper()
	disk, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Self:    self,
		Peers:   peers,
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Cache: disk, Cluster: cl})
}

const clusterRunQuery = "bench=nw&scheme=ctr_mac_bmt&cycles=1500"

// clusterRunKey computes the canonical key for clusterRunQuery exactly
// as the daemon does.
func clusterRunKey(t *testing.T) string {
	t.Helper()
	q, err := url.ParseQuery(clusterRunQuery)
	if err != nil {
		t.Fatal(err)
	}
	run, err := gpusecmem.ResolveQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return gpusecmem.RunKey(run.Config, run.Benchmark)
}

// pickOwnerNonOwner maps two member URLs onto (owner, nonOwner) for the
// test key, using the same ring the daemons use.
func pickOwnerNonOwner(t *testing.T, key string, urls []string) (owner, nonOwner int) {
	t.Helper()
	ring, err := cluster.NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range urls {
		if ring.Owner(key) == u {
			for j := range urls {
				if j != i {
					return i, j
				}
			}
		}
	}
	t.Fatal("no owner among members")
	return 0, 0
}

// compactJSON canonicalizes whitespace so wire-indented and
// library-marshalled forms compare byte-for-byte.
func compactJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compact: %v", err)
	}
	return buf.String()
}

// TestClusterForwardByteIdentity drives the one cluster miss path on
// a live two-node cluster: every request through the non-owner misses
// its empty local tiers and is forwarded whole to the owner, carrying
// the hop guard. The first simulates there; the repeats are answered
// from the owner's memory. Every payload is byte-identical to a direct
// library run, and the non-owner keeps no copy of its own.
func TestClusterForwardByteIdentity(t *testing.T) {
	ls, urls := reserveListeners(t, 2)
	key := clusterRunKey(t)
	ownerIdx, otherIdx := pickOwnerNonOwner(t, key, urls)

	var ownerRuns, hopRuns atomic.Int32
	nodes := make([]*Server, 2)
	for i := range ls {
		nodes[i] = newClusterMember(t, urls[i], []string{urls[1-i]})
		h := nodes[i].Handler()
		if i == ownerIdx {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/api/run" {
					ownerRuns.Add(1)
					if r.Header.Get(cluster.HopHeader) != "" {
						hopRuns.Add(1)
					}
				}
				inner.ServeHTTP(w, r)
			})
		}
		startNode(t, ls[i], h)
	}

	q, _ := url.ParseQuery(clusterRunQuery)
	run, err := gpusecmem.ResolveQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := gpusecmem.Simulate(run.Config, run.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	runURL := urls[otherIdx] + "/api/run?" + clusterRunQuery
	for i, wantSource := range []string{"simulated", "memory", "memory"} {
		var got struct {
			Source string          `json:"source"`
			Result json.RawMessage `json:"result"`
		}
		if code := getJSON(t, runURL, &got); code != 200 {
			t.Fatalf("run %d: status %d", i+1, code)
		}
		if got.Source != wantSource {
			t.Fatalf("run %d source = %q, want %s (at the owner)", i+1, got.Source, wantSource)
		}
		if n := int32(i + 1); ownerRuns.Load() != n || hopRuns.Load() != n {
			t.Fatalf("run %d: owner saw %d /api/run, %d with the hop header; want %d forwarded",
				i+1, ownerRuns.Load(), hopRuns.Load(), n)
		}
		// The acceptance pin: a forwarded answer is byte-identical to a
		// direct library run of the same canonical configuration.
		if compactJSON(t, got.Result) != string(want) {
			t.Fatalf("run %d: forwarded result differs from a direct library run", i+1)
		}
	}
	if n := nodes[otherIdx].mem.len(); n != 0 {
		t.Fatalf("non-owner memory LRU holds %d entries, want 0 (one copy per key, at the owner)", n)
	}
}

// TestClusterHopGuard pins the loop guard: a request that already
// carries the hop header is answered locally — never re-forwarded —
// even by a non-owner whose owner is up, so disagreeing member lists
// cost an extra hop instead of a loop.
func TestClusterHopGuard(t *testing.T) {
	ls, urls := reserveListeners(t, 2)
	key := clusterRunKey(t)
	ownerIdx, otherIdx := pickOwnerNonOwner(t, key, urls)

	var ownerRuns atomic.Int32
	for i := range ls {
		d := newClusterMember(t, urls[i], []string{urls[1-i]})
		h := d.Handler()
		if i == ownerIdx {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/api/run" {
					ownerRuns.Add(1)
				}
				inner.ServeHTTP(w, r)
			})
		}
		startNode(t, ls[i], h)
	}

	req, err := http.NewRequest(http.MethodGet, urls[otherIdx]+"/api/run?"+clusterRunQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.HopHeader, "http://somewhere.else")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Source string `json:"source"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || body.Source != "simulated" {
		t.Fatalf("hop-guarded request: status %d source %q, want 200 simulated locally",
			resp.StatusCode, body.Source)
	}
	if ownerRuns.Load() != 0 {
		t.Fatal("hop-guarded request was re-forwarded to the owner")
	}
}

// TestClusterFailOpen kills the owner and pins the failure model: the
// non-owner's forward fails, the peer is marked down, and the request
// is simulated locally — degraded service, not an outage.
func TestClusterFailOpen(t *testing.T) {
	ls, urls := reserveListeners(t, 2)
	key := clusterRunKey(t)
	ownerIdx, otherIdx := pickOwnerNonOwner(t, key, urls)

	nodes := make([]*Server, 2)
	for i := range ls {
		nodes[i] = newClusterMember(t, urls[i], []string{urls[1-i]})
		startNode(t, ls[i], nodes[i].Handler())
	}

	// The owner dies before ever answering.
	ls[ownerIdx].Close()

	var got struct {
		Source string `json:"source"`
	}
	if code := getJSON(t, urls[otherIdx]+"/api/run?"+clusterRunQuery, &got); code != 200 {
		t.Fatalf("fail-open run: status %d", code)
	}
	if got.Source != "simulated" {
		t.Fatalf("fail-open source = %q, want simulated locally", got.Source)
	}
	if nodes[otherIdx].cfg.Cluster.Up(urls[ownerIdx]) {
		t.Fatal("failed forward did not mark the owner down")
	}

	// With the owner marked down the repeat skips straight to the local
	// tiers — served from the survivor's memory, no peer involvement.
	if code := getJSON(t, urls[otherIdx]+"/api/run?"+clusterRunQuery, &got); code != 200 {
		t.Fatalf("post-failure run: status %d", code)
	}
	if got.Source != "memory" {
		t.Fatalf("post-failure source = %q, want memory", got.Source)
	}
}

// TestClusterCancelledForwardKeepsOwnerUp is the regression test for
// a client giving up mid-forward: the non-owner must end the request
// without marking the healthy owner down and without failing open to
// a local simulation; a wrongly downed owner would send every miss for
// its keys to local simulation until the next probe.
func TestClusterCancelledForwardKeepsOwnerUp(t *testing.T) {
	ls, urls := reserveListeners(t, 2)
	const slowQuery = "bench=lbm&scheme=ctr_mac_bmt&cycles=200000"
	q, _ := url.ParseQuery(slowQuery)
	run, err := gpusecmem.ResolveQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	ownerIdx, otherIdx := pickOwnerNonOwner(t, gpusecmem.RunKey(run.Config, run.Benchmark), urls)

	nodes := make([]*Server, 2)
	handled := make(chan struct{})
	for i := range ls {
		nodes[i] = newClusterMember(t, urls[i], []string{urls[1-i]})
		h := nodes[i].Handler()
		if i == otherIdx {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				inner.ServeHTTP(w, r)
				if r.URL.Path == "/api/run" {
					close(handled)
				}
			})
		}
		startNode(t, ls[i], h)
	}
	fallbacksBefore := met.forwardFallbacks.Value()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, urls[otherIdx]+"/api/run?"+slowQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("cold %s answered (status %d) before the client gave up", slowQuery, resp.StatusCode)
	}
	select {
	case <-handled:
	case <-time.After(10 * time.Second):
		t.Fatal("non-owner never finished the abandoned request")
	}

	if !nodes[otherIdx].cfg.Cluster.Up(urls[ownerIdx]) {
		t.Fatal("a client giving up marked the healthy owner down")
	}
	if met.forwardFallbacks.Value() != fallbacksBefore {
		t.Fatal("a client giving up failed open to a local simulation")
	}
}

// TestClusterStatusRoute pins the /api/cluster payload: membership in
// canonical order with self marked, and — when a run is named — the
// key's digest and owner.
func TestClusterStatusRoute(t *testing.T) {
	ls, urls := reserveListeners(t, 2)
	for i := range ls {
		startNode(t, ls[i], newClusterMember(t, urls[i], []string{urls[1-i]}).Handler())
	}

	var status struct {
		Self  string `json:"self"`
		Nodes []struct {
			Node string `json:"node"`
			Self bool   `json:"self"`
			Up   bool   `json:"up"`
		} `json:"nodes"`
	}
	if code := getJSON(t, urls[0]+"/api/cluster", &status); code != 200 {
		t.Fatalf("status %d", code)
	}
	if status.Self != urls[0] || len(status.Nodes) != 2 {
		t.Fatalf("bad status payload: %+v", status)
	}
	selfSeen := false
	for _, n := range status.Nodes {
		if n.Self {
			selfSeen = true
			if n.Node != urls[0] {
				t.Fatalf("self row names %q, want %q", n.Node, urls[0])
			}
		}
	}
	if !selfSeen {
		t.Fatal("no self row")
	}

	var placed struct {
		Key     string `json:"key"`
		Owner   string `json:"owner"`
		OwnerUp bool   `json:"owner_up"`
	}
	if code := getJSON(t, urls[0]+"/api/cluster?"+clusterRunQuery, &placed); code != 200 {
		t.Fatalf("placement status %d", code)
	}
	ring, err := cluster.NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	if placed.Owner != ring.Owner(clusterRunKey(t)) || placed.Key == "" || !placed.OwnerUp {
		t.Fatalf("bad placement payload: %+v", placed)
	}

	// A non-clustered daemon has no cluster view.
	ts := newTestServer(t, Config{})
	if code := getJSON(t, ts.URL+"/api/cluster", nil); code != 404 {
		t.Fatalf("unclustered /api/cluster: status %d, want 404", code)
	}
}
