package daemon

// The server half of cluster mode (internal/cluster is the client
// half; DESIGN.md §16): /api/cluster exposes membership, health, and
// key placement for operators and the CI smoke test, and
// proxyResponse streams a forwarded /api/run answer back from the
// key's owner. Peers exchange whole /api/run requests only: no route
// lets another node write into this node's stores.

import (
	"encoding/json"
	"io"
	"net/http"

	"gpusecmem"
	"gpusecmem/internal/runner"
)

// handleCluster reports membership and per-peer health, and — when the
// query also names a run (same knobs as /api/run) — where that key
// lives: its digest, its owner, and whether the owner is up.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	cl := s.cfg.Cluster
	if cl == nil {
		httpError(w, r, http.StatusNotFound, "daemon is not clustered")
		return
	}
	payload := map[string]any{
		"self":  cl.Self(),
		"nodes": cl.StatusAll(),
	}
	if q := r.URL.Query(); q.Get("scheme") != "" || q.Get("bench") != "" {
		cfg, _, bench, err := parseRunConfig(q)
		if err != nil {
			httpError(w, r, http.StatusBadRequest, "%v", err)
			return
		}
		if !validBenchmark(bench) {
			httpError(w, r, http.StatusBadRequest, "unknown benchmark %q (see /api/catalogue)", bench)
			return
		}
		key := gpusecmem.RunKey(cfg, bench)
		owner, self := cl.Owner(key)
		payload["key"] = runner.KeyDigest(key)
		payload["owner"] = owner
		payload["owner_self"] = self
		payload["owner_up"] = cl.Up(owner)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(payload)
}

// proxyResponse streams a forwarded peer's response back to the
// client, replacing any header the middleware already set (the trace
// ID rode the forward and comes back identical).
func proxyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		w.Header()[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}
