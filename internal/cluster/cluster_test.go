package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func newCluster(t *testing.T, self string, peers ...string) *Cluster {
	t.Helper()
	c, err := New(Config{Self: self, Peers: peers, Timeout: 2 * time.Second, ProbeEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Peers: []string{"http://a"}}); err == nil {
		t.Fatal("missing self accepted")
	}
	if _, err := New(Config{Self: "http://a"}); err == nil {
		t.Fatal("peerless cluster accepted")
	}
}

// TestHealthProbeMarksPeers drives the probe loop against a live and
// a dead peer: the live one stays up, the dead one goes down, and a
// recovered peer comes back.
func TestHealthProbeMarksPeers(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" || !healthy.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer peer.Close()

	c := newCluster(t, "http://self.invalid:1", peer.URL)
	ctx := context.Background()

	c.ProbeAll(ctx)
	if !c.Up(peer.URL) {
		t.Fatal("healthy peer marked down")
	}
	healthy.Store(false)
	c.ProbeAll(ctx)
	if c.Up(peer.URL) {
		t.Fatal("unhealthy peer still up")
	}
	healthy.Store(true)
	c.ProbeAll(ctx)
	if !c.Up(peer.URL) {
		t.Fatal("recovered peer not back up")
	}
	if !c.Up("http://self.invalid:1") {
		t.Fatal("self must always be up")
	}
	if c.Up("http://stranger.invalid:9") {
		t.Fatal("unknown node reported up")
	}
}

// TestForwardHopGuard checks the forwarded request carries the hop
// loop-guard header and the origin's URI verbatim.
func TestForwardHopGuard(t *testing.T) {
	var sawHop atomic.Value
	var sawURI atomic.Value
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawHop.Store(r.Header.Get(HopHeader))
		sawURI.Store(r.URL.RequestURI())
		w.Write([]byte("owner-body"))
	}))
	defer owner.Close()
	c := newCluster(t, "http://self.invalid:1", owner.URL)

	in := httptest.NewRequest(http.MethodGet, "/api/run?bench=nw&cycles=2000", nil)
	resp, err := c.Forward(in, owner.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sawHop.Load() != "http://self.invalid:1" {
		t.Fatalf("hop header = %q, want self URL", sawHop.Load())
	}
	if sawURI.Load() != "/api/run?bench=nw&cycles=2000" {
		t.Fatalf("forwarded URI = %q", sawURI.Load())
	}

	owner.Close()
	if _, err := c.Forward(in, owner.URL); err == nil {
		t.Fatal("forward to dead owner did not error")
	}
	if c.Up(owner.URL) {
		t.Fatal("dead owner not marked down by failed forward")
	}
}

// TestForwardCancelledKeepsPeerUp is the regression test for blaming
// the owner for the client's impatience: a forward that fails because
// the inbound request's own context was cancelled must return the
// error without marking a healthy owner down.
func TestForwardCancelledKeepsPeerUp(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // a long simulation the client will not wait for
	}))
	defer owner.Close()
	c := newCluster(t, "http://self.invalid:1", owner.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	in := httptest.NewRequest(http.MethodGet, "/api/run?bench=lbm&cycles=200000", nil).WithContext(ctx)
	if _, err := c.Forward(in, owner.URL); err == nil {
		t.Fatal("forward outlived its cancelled request")
	}
	if !c.Up(owner.URL) {
		t.Fatal("a cancelled inbound request marked a healthy owner down")
	}
}

// TestForwardOutlastsPeerTimeout is the regression test for a forward
// capped by the peer timeout: Timeout bounds reaching the owner, not
// the owner's simulation. An owner that answers after four Timeouts
// must still be forwarded to, and stay up.
func TestForwardOutlastsPeerTimeout(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond) // a cold key simulating at the owner
		w.Write([]byte("owner-body"))
	}))
	defer owner.Close()
	c, err := New(Config{Self: "http://self.invalid:1", Peers: []string{owner.URL}, Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	in := httptest.NewRequest(http.MethodGet, "/api/run?bench=lbm&cycles=200000", nil)
	resp, err := c.Forward(in, owner.URL)
	if err != nil {
		t.Fatalf("forward to a slow but healthy owner failed: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "owner-body" {
		t.Fatalf("forwarded body = %q", body)
	}
	if !c.Up(owner.URL) {
		t.Fatal("a slow but healthy owner was marked down")
	}
}

// TestProbeSlowHealthzNoFlap is the regression test for probe
// deadlines: probes are bounded by the configured per-call Timeout,
// not the probe interval. With an aggressive interval (20ms) and a
// /healthz slower than it (150ms) but well inside the 2s Timeout, a
// healthy peer must stay up; the old interval-derived deadline timed
// out every tick and flapped it down.
func TestProbeSlowHealthzNoFlap(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(150 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	defer peer.Close()

	c, err := New(Config{
		Self:       "http://self.invalid:1",
		Peers:      []string{peer.URL},
		Timeout:    2 * time.Second,
		ProbeEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.ProbeAll(context.Background())
		if !c.Up(peer.URL) {
			t.Fatalf("probe %d flapped a healthy-but-slow peer down", i)
		}
	}
}

// TestForwardPOSTRoundTrip pins the proxy contract for requests with
// bodies: the inbound body streams through to the owner, end-to-end
// headers (Content-Type, Accept, plus anything a fronting proxy
// added) survive, and hop-by-hop headers — both the fixed RFC set and
// whatever the Connection header names — are stripped.
func TestForwardPOSTRoundTrip(t *testing.T) {
	var gotBody, gotHeader atomic.Value
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b := make([]byte, 64)
		n, _ := r.Body.Read(b)
		gotBody.Store(string(b[:n]))
		gotHeader.Store(r.Header.Clone())
		w.WriteHeader(http.StatusOK)
	}))
	defer owner.Close()
	c := newCluster(t, "http://self.invalid:1", owner.URL)

	in := httptest.NewRequest(http.MethodPost, "/api/run?bench=nw", strings.NewReader(`{"p":1}`))
	in.Header.Set("Content-Type", "application/json")
	in.Header.Set("Accept", "text/csv")
	in.Header.Set("X-Forwarded-For", "10.0.0.9")
	in.Header.Set("Connection", "X-Per-Hop")
	in.Header.Set("X-Per-Hop", "drop-me")
	in.Header.Set("TE", "trailers")
	in.Header.Set("Upgrade", "h2c")

	resp, err := c.Forward(in, owner.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if gotBody.Load() != `{"p":1}` {
		t.Fatalf("forwarded body = %q, want the POST payload", gotBody.Load())
	}
	h := gotHeader.Load().(http.Header)
	for name, want := range map[string]string{
		"Content-Type":    "application/json",
		"Accept":          "text/csv",
		"X-Forwarded-For": "10.0.0.9",
		HopHeader:         "http://self.invalid:1",
	} {
		if got := h.Get(name); got != want {
			t.Errorf("end-to-end header %s = %q, want %q", name, got, want)
		}
	}
	for _, name := range []string{"X-Per-Hop", "TE", "Upgrade", "Connection"} {
		if got := h.Get(name); got != "" {
			t.Errorf("hop-by-hop header %s leaked through the forward: %q", name, got)
		}
	}
}

func TestStatusAll(t *testing.T) {
	c := newCluster(t, "http://b:2", "http://a:1", "http://c:3")
	st := c.StatusAll()
	if len(st) != 3 {
		t.Fatalf("got %d rows", len(st))
	}
	// Canonical (sorted) order, self flagged.
	if st[0].Node != "http://a:1" || st[1].Node != "http://b:2" || st[2].Node != "http://c:3" {
		t.Fatalf("order: %+v", st)
	}
	if !st[1].Self || st[0].Self || st[2].Self {
		t.Fatalf("self flags: %+v", st)
	}
}
