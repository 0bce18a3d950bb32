// Package cluster turns a set of secmemd processes into one serving
// fleet: rendezvous-hash placement of canonical run keys over a
// static, flag-configured member set (Ring), health-checked
// membership, and whole-request forwarding of /api/run to a key's
// owner, so each result is computed and stored once, at its owner,
// and the owner's cross-request singleflight coalesces identical
// in-flight work cluster-wide (DESIGN.md §16). Peers never read or
// write each other's stores directly.
//
// Failure model: everything fails open. A peer that cannot be reached
// is marked down immediately (passively, by the failing forward) and
// re-probed periodically; while it is down the caller simulates
// locally, so a dead owner degrades the cluster to independent nodes
// rather than an outage. A forward abandoned because the inbound
// request itself was cancelled says nothing about the peer and leaves
// its health alone. Results are immutable and content-addressed by
// the canonical RunKey, so there is no staleness to manage.
//
// Concurrency contract: a Cluster is safe for concurrent use by any
// number of goroutines. The Ring and node list are immutable after
// New; per-peer health is an atomic flag; the HTTP client is the
// stdlib's (itself concurrency-safe).
package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpusecmem/internal/telemetry"
)

// HopHeader marks a request already forwarded once by a cluster
// member. A receiving daemon must answer such a request itself —
// never re-forward — so disagreeing member lists (a node restarted
// with different -peers) degrade to an extra hop, not a loop.
const HopHeader = "X-Secmem-Cluster-Hop"

// Config configures a Cluster.
type Config struct {
	// Self is this node's own advertised base URL (scheme://host:port),
	// as it appears in the other members' peer lists.
	Self string
	// Peers lists the other members' base URLs.
	Peers []string
	// Timeout bounds dialing a peer and one health probe (default 5s);
	// a forward waits on the owner until the inbound request gives up.
	Timeout time.Duration
	// ProbeEvery is the health-probe interval (default 2s).
	ProbeEvery time.Duration
	// Client overrides the HTTP client (tests); nil builds one whose
	// dialer, not whole exchange, is bounded by Timeout.
	Client *http.Client
}

// peerState is one remote member's health record.
type peerState struct {
	up atomic.Bool
}

// Cluster is the client half of the distributed serving tier: the
// placement ring over all members (self included), per-peer health,
// and request forwarding.
type Cluster struct {
	self       string
	ring       *Ring
	client     *http.Client
	probeEvery time.Duration
	timeout    time.Duration         // probe deadline and dial timeout
	peers      map[string]*peerState // remote members only
}

// instruments are the cluster tier's registry handles; shared by every
// Cluster in the process (the label sets are per-peer and per-op, both
// small and bounded by the flag-configured member list).
var (
	met struct {
		up    *telemetry.GaugeVec     // peer
		reqs  *telemetry.CounterVec   // op, outcome
		dur   *telemetry.HistogramVec // op
		flaps *telemetry.CounterVec   // peer, to=up|down
	}
	metOnce sync.Once
)

func initInstruments() {
	metOnce.Do(func() {
		reg := telemetry.Default
		met.up = reg.GaugeVec("gpusecmem_peer_up", "1 when the peer answered its last health probe or call, else 0", "peer")
		met.reqs = reg.CounterVec("gpusecmem_peer_requests_total", "peer calls (forward, probe) by operation and outcome", "op", "outcome")
		met.dur = reg.HistogramVec("gpusecmem_peer_request_duration_us", "peer call (forward, probe) latency in microseconds by operation", "op")
		met.flaps = reg.CounterVec("gpusecmem_peer_transitions_total", "peer up/down health transitions", "peer", "to")
	})
}

// New builds a Cluster from a self URL and a peer list. The ring spans
// self plus every peer, so each member computes identical placement
// from its own flags. Call Start to begin health probing.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: -self is required when -peers is set")
	}
	if _, err := url.Parse(cfg.Self); err != nil {
		return nil, fmt.Errorf("cluster: bad self URL %q: %w", cfg.Self, err)
	}
	ring, err := NewRing(append([]string{cfg.Self}, cfg.Peers...))
	if err != nil {
		return nil, err
	}
	if ring.Len() < 2 {
		return nil, fmt.Errorf("cluster: need at least one peer besides self")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.DialContext = (&net.Dialer{Timeout: cfg.Timeout, KeepAlive: 30 * time.Second}).DialContext
		client = &http.Client{Transport: tr}
	}
	initInstruments()
	c := &Cluster{
		self:       cfg.Self,
		ring:       ring,
		client:     client,
		probeEvery: cfg.ProbeEvery,
		timeout:    cfg.Timeout,
		peers:      make(map[string]*peerState),
	}
	for _, n := range ring.Nodes() {
		if n == cfg.Self {
			continue
		}
		ps := &peerState{}
		// Optimistic start: a cold cluster forwards immediately; the
		// first failing call or probe corrects the record.
		ps.up.Store(true)
		c.peers[n] = ps
		met.up.With(n).Set(1)
	}
	return c, nil
}

// Self returns this node's advertised URL.
func (c *Cluster) Self() string { return c.self }

// Nodes returns every member (self included) in canonical order.
func (c *Cluster) Nodes() []string { return c.ring.Nodes() }

// Owner places key and reports whether this node owns it.
func (c *Cluster) Owner(key string) (node string, self bool) {
	node = c.ring.Owner(key)
	return node, node == c.self
}

// Up reports whether node answered its last probe or peer call. Self
// is always up; unknown nodes never are.
func (c *Cluster) Up(node string) bool {
	if node == c.self {
		return true
	}
	ps, ok := c.peers[node]
	return ok && ps.up.Load()
}

// setUp records a health observation, counting transitions and
// keeping the per-peer gauge current.
func (c *Cluster) setUp(node string, up bool) {
	ps, ok := c.peers[node]
	if !ok {
		return
	}
	if ps.up.Swap(up) != up {
		if up {
			met.flaps.With(node, "up").Inc()
			met.up.With(node).Set(1)
		} else {
			met.flaps.With(node, "down").Inc()
			met.up.With(node).Set(0)
		}
	}
}

// Start launches the periodic health-probe loop; it stops when ctx is
// cancelled. Probing is advisory — peer calls already mark a failing
// peer down passively — but it is what brings a recovered peer back.
func (c *Cluster) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(c.probeEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.ProbeAll(ctx)
			}
		}
	}()
}

// ProbeAll health-checks every peer once, concurrently, and returns
// when all probes resolve.
func (c *Cluster) ProbeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for node := range c.peers {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			c.probe(ctx, node)
		}(node)
	}
	wg.Wait()
}

// probe GETs one peer's /healthz. The deadline is the configured
// per-call Timeout, NOT the probe interval: an aggressive -probe-every
// (say 100ms) must make probes more frequent, not less patient — a
// healthy peer whose /healthz takes longer than the interval would
// otherwise be flapped down on every tick.
func (c *Cluster) probe(ctx context.Context, node string) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/healthz", nil)
	if err != nil {
		c.setUp(node, false)
		return
	}
	resp, err := c.client.Do(req)
	met.dur.With("probe").ObserveSince(t0)
	if err != nil || resp.StatusCode != http.StatusOK {
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		met.reqs.With("probe", "error").Inc()
		c.setUp(node, false)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	met.reqs.With("probe", "ok").Inc()
	c.setUp(node, true)
}

// Forward proxies an inbound HTTP request to node (the key's owner),
// stamped with the hop loop-guard, and returns the peer's response
// for the caller to stream back. A transport failure marks the peer
// down and returns the error so the caller can fail open to local
// work — unless r's own context is done: then the caller gave up, the
// peer is not to blame, and its health is left alone. The caller owns
// resp.Body.
func (c *Cluster) Forward(r *http.Request, node string) (*http.Response, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, node+r.URL.RequestURI(), r.Body)
	if err != nil {
		met.reqs.With("forward", "error").Inc()
		return nil, err
	}
	req.ContentLength = r.ContentLength
	copyEndToEndHeaders(req.Header, r.Header)
	req.Header.Set(HopHeader, c.self)
	if id := telemetry.TraceID(r.Context()); id != "" {
		req.Header.Set(telemetry.TraceHeader, id)
	}
	resp, err := c.client.Do(req)
	met.dur.With("forward").ObserveSince(t0)
	if err != nil {
		if r.Context().Err() != nil {
			met.reqs.With("forward", "cancelled").Inc()
			return nil, err
		}
		met.reqs.With("forward", "error").Inc()
		c.setUp(node, false)
		return nil, err
	}
	c.setUp(node, true)
	met.reqs.With("forward", "ok").Inc()
	return resp, nil
}

// hopByHop lists the headers RFC 9110 §7.6.1 forbids a proxy from
// passing along; everything else on the inbound request is end-to-end
// and must survive the forward (Content-Type on a POST body,
// Accept/Accept-Encoding, auth headers a fronting proxy added).
var hopByHop = []string{
	"Connection",
	"Keep-Alive",
	"Proxy-Authenticate",
	"Proxy-Authorization",
	"Proxy-Connection",
	"Te",
	"Trailer",
	"Transfer-Encoding",
	"Upgrade",
}

// copyEndToEndHeaders copies src into dst minus the hop-by-hop set and
// anything the Connection header itself names.
func copyEndToEndHeaders(dst, src http.Header) {
	drop := make(map[string]bool, len(hopByHop))
	for _, h := range hopByHop {
		drop[h] = true
	}
	for _, v := range src.Values("Connection") {
		for _, name := range strings.Split(v, ",") {
			if name = strings.TrimSpace(name); name != "" {
				drop[http.CanonicalHeaderKey(name)] = true
			}
		}
	}
	for k, vs := range src {
		if drop[http.CanonicalHeaderKey(k)] {
			continue
		}
		dst[k] = append(dst[k], vs...)
	}
}

// Status is one member's row in the /api/cluster view.
type Status struct {
	Node string `json:"node"`
	Self bool   `json:"self"`
	Up   bool   `json:"up"`
}

// StatusAll reports every member's health in canonical order.
func (c *Cluster) StatusAll() []Status {
	out := make([]Status, 0, c.ring.Len())
	for _, n := range c.ring.Nodes() {
		out = append(out, Status{Node: n, Self: n == c.self, Up: c.Up(n)})
	}
	return out
}
