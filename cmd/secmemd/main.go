// Command secmemd serves simulation results over HTTP/JSON: the
// benchmark/scheme catalogue, ad-hoc runs, and the paper's experiment
// tables, backed by an in-memory LRU and an optional on-disk result
// cache so repeated requests — across restarts — skip simulation.
//
// Usage:
//
//	secmemd -addr :8080 -cache-dir /var/cache/gpusecmem
//	curl localhost:8080/api/catalogue
//	curl 'localhost:8080/api/run?bench=nw&scheme=ctr_mac_bmt&cycles=3000'
//	curl 'localhost:8080/api/experiment/fig8?format=csv&cycles=6000'
//	curl localhost:8080/healthz
//	curl localhost:8080/metrics
//
// Every request is logged (one structured line via log/slog; pick
// -log-format json for machine ingestion, -log-level debug to include
// scrape routes) and tagged with a trace ID that appears on the
// X-Secmem-Trace-Id response header, in the log line, and in any JSON
// error body.
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener closes,
// in-flight requests get -drain to finish, then remaining simulations
// are cancelled cooperatively and the process exits.
//
// Cluster mode (DESIGN.md §16) joins this daemon to a static peer
// fleet: every member runs the same member set, canonical run keys
// are placed by rendezvous hashing, and a member forwards a request it
// cannot answer from its own memory or disk to the key's owner —
// falling back to local simulation when the owner is down:
//
//	secmemd -addr :8081 -cache-dir /var/cache/a \
//	        -self http://10.0.0.1:8081 \
//	        -peers http://10.0.0.2:8081,http://10.0.0.3:8081
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gpusecmem/internal/checkpoint"
	"gpusecmem/internal/cluster"
	"gpusecmem/internal/daemon"
	"gpusecmem/internal/resultcache"
	"gpusecmem/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "listen address")
		cacheDir = flag.String("cache-dir", "", "persist simulation results in this directory (shared with cmd/experiments)")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", -1, "admitted requests waiting beyond -workers before 429 (-1 = 2*workers)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "per-request simulation budget")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget before in-flight runs are cancelled")
		memCap   = flag.Int("mem-cache", 256, "in-process result LRU entries (negative disables)")
		shards   = flag.Int("shards", 0, "shard goroutines per served simulation (parallel partition engine; 0/1 = sequential, results bit-identical)")
		ckptDir  = flag.String("checkpoint-dir", "", "persist mid-run machine checkpoints in this directory; longer-horizon requests resume instead of restarting, and shutdown checkpoints in-flight runs")
		ckptN    = flag.Uint64("checkpoint-every", 5000, "checkpoint interval in cycles (with -checkpoint-dir)")
		grace    = flag.Duration("abort-grace", 5*time.Second, "post-abort budget for cancelled handlers to flush (after -drain expires)")
		logFmt   = flag.String("log-format", "text", "request log format: text|json")
		logLvl   = flag.String("log-level", "info", "request log level: debug|info|warn|error (scrape routes log at debug)")

		self       = flag.String("self", "", "this node's advertised base URL in the cluster (required with -peers)")
		peers      = flag.String("peers", "", "comma-separated peer base URLs; enables cluster mode")
		peerTO     = flag.Duration("peer-timeout", 5*time.Second, "peer connect and health-probe budget (a forward waits for the owner's answer)")
		probeEvery = flag.Duration("peer-probe-every", 2*time.Second, "peer health-probe interval")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logFmt, *logLvl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cfg := daemon.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		RequestTimeout:  *timeout,
		MemCacheEntries: *memCap,
		Shards:          *shards,
		Logger:          logger,
	}
	if *cacheDir != "" {
		disk, err := resultcache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Cache = disk
		logger.Info("result cache open", "dir", disk.Dir(), "entries", disk.Len())
	}
	if *ckptDir != "" {
		store, err := checkpoint.Open(*ckptDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Checkpoints = store
		cfg.CheckpointEvery = *ckptN
		logger.Info("checkpoint store open", "dir", store.Dir(), "entries", store.Len(), "every_cycles", *ckptN)
	}
	var cl *cluster.Cluster
	if *peers != "" {
		var err error
		cl, err = cluster.New(cluster.Config{
			Self:       *self,
			Peers:      strings.Split(*peers, ","),
			Timeout:    *peerTO,
			ProbeEvery: *probeEvery,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Cluster = cl
		logger.Info("cluster joined", "self", cl.Self(), "members", len(cl.Nodes()))
	}
	d := daemon.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: d.Handler()}
	logger.Info("serving", "addr", fmt.Sprintf("http://%s/", ln.Addr()),
		"routes", "/api/catalogue /api/run /api/experiment/{id} /healthz /metrics")

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cl != nil {
		cl.Start(ctx) // health probes stop with the shutdown signal
	}
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the usual way

	logger.Info("shutting down", "drain", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		// Drain budget exhausted: cancel in-flight simulations so their
		// handlers return — each checkpointed run snapshots on the way
		// out, so a restart resumes it — then close whatever is left
		// after -abort-grace.
		logger.Warn("drain expired, cancelling in-flight runs")
		d.Abort()
		abortCtx, cancel2 := context.WithTimeout(context.Background(), *grace)
		defer cancel2()
		if err := srv.Shutdown(abortCtx); err != nil {
			srv.Close()
		}
	}
	logger.Info("bye")
}
