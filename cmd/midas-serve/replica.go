package main

import (
	"context"
	"errors"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/replica"
	"github.com/midas-graph/midas/internal/telemetry"
	"github.com/midas-graph/midas/internal/tenant"
	"github.com/midas-graph/midas/internal/vfs"
)

// replicaConfig carries the replication flags into runReplica.
type replicaConfig struct {
	dir      string // -replica-dir: node state (bundle + replication log)
	from     string // -replicate-from: primary base URL (follower mode)
	listen   string // -replica-listen: separate address for /replica/*
	peers    string // -replica-peers: name=URL[,name=URL...] push targets
	addr     string
	db       string
	timeout  time.Duration
	inflight int
	queue    int
	retries  int
	backoff  time.Duration
	pprofOn  bool
	engine   midas.Options
	// conflicts maps flags the replication node owns itself (it manages
	// its own bundle and replication log) to whether they were set.
	conflicts map[string]bool
}

// runReplica is midas-serve's replicated mode: one replica.Node runs
// the same serving stack as single-tenant mode (a tenant.Shard, with
// its state under -replica-dir) plus the replication log.
// Without -replicate-from the node is the primary — it accepts writes,
// appends each committed batch to its replication log and ships it to
// -replica-peers; with it, the node is a warm-standby follower — it
// cold-starts from the primary's bundle, re-applies the streamed log
// through its own pipeline, serves reads lock-free with
// X-Midas-Replica: follower, and fences writes to the primary. The
// /replica/* endpoints (bundle, records, push, status, and the
// promote/demote admin verbs) are mounted on -addr, or on their own
// listener when -replica-listen is set.
func runReplica(logger *telemetry.Logger, cfg replicaConfig) {
	var conflicting []string
	for name, set := range cfg.conflicts {
		if set {
			conflicting = append(conflicting, name)
		}
	}
	if len(conflicting) > 0 {
		sort.Strings(conflicting)
		logger.Fatalf("midas-serve: -replica-dir is incompatible with %v (the replication node owns its state under -replica-dir)", conflicting)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		logger.Fatalf("midas-serve: %v", err)
	}

	reg := newMetrics()

	ncfg := replica.Config{
		FS:  vfs.OS,
		Dir: cfg.dir,
		Bootstrap: func() (*midas.Engine, error) {
			if cfg.db == "" {
				return nil, errors.New("primary cold start needs -db (no bundle under -replica-dir yet)")
			}
			db, err := graph.ReadDatabaseFile(cfg.db)
			if err != nil {
				return nil, err
			}
			logger.Infof("bootstrapping over %d graphs...", db.Len())
			return midas.New(db, cfg.engine), nil
		},
		Shard: tenant.Options{
			Engine:         cfg.engine,
			RequestTimeout: cfg.timeout,
			MaxInflight:    cfg.inflight,
			QueueSize:      cfg.queue,
			Retries:        cfg.retries,
			Backoff:        cfg.backoff,
			Logger:         logger,
			Telemetry:      reg,
		},
	}
	if cfg.from != "" {
		ncfg.Upstream = &replica.HTTPTransport{Base: cfg.from}
		ncfg.PrimaryURL = cfg.from
	}
	if cfg.peers != "" {
		ncfg.Peers = map[string]replica.Transport{}
		for _, tok := range strings.Split(cfg.peers, ",") {
			name, url, ok := strings.Cut(strings.TrimSpace(tok), "=")
			if !ok || name == "" || url == "" {
				logger.Fatalf("midas-serve: bad -replica-peers entry %q (want name=URL)", tok)
			}
			ncfg.Peers[name] = &replica.HTTPTransport{Base: url}
		}
	}

	node := replica.NewNode(ncfg)
	startCtx, startCancel := context.WithCancel(context.Background())
	defer startCancel()
	if err := node.Start(startCtx); err != nil {
		logger.Fatalf("midas-serve: replica start: %v", err)
	}
	logger.Infof("replication node up: role=%s epoch=%d lsn=%d", node.Role(), node.Epoch(), node.LastLSN())

	srv := node.Panel()
	if cfg.pprofOn {
		srv.EnablePprof()
		logger.Warnf("pprof endpoints enabled on /debug/pprof/")
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	var repSrv *http.Server
	if cfg.listen == "" {
		mux.Handle("/replica/", node.Handler())
	} else {
		repSrv = &http.Server{Addr: cfg.listen, Handler: node.Handler()}
		go func() {
			if err := repSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Fatalf("midas-serve: replica listener: %v", err)
			}
		}()
		logger.Infof("replication endpoints on %s", cfg.listen)
	}

	logger.Infof("serving replicated pattern panel on %s (%s)", cfg.addr, node.Role())
	serve(logger, &http.Server{Addr: cfg.addr, Handler: mux},
		func() { srv.SetReady(false) },
		func(ctx context.Context) error {
			if repSrv != nil {
				if err := repSrv.Shutdown(ctx); err != nil {
					logger.Warnf("midas-serve: replica listener shutdown: %v", err)
				}
			}
			// Node.Stop drains the shard and closes the log.
			if err := node.Stop(ctx); err != nil {
				logger.Warnf("midas-serve: replica stop: %v", err)
			}
			logger.Infof("bye (role=%s epoch=%d lsn=%d)", node.Role(), node.Epoch(), node.LastLSN())
			return nil
		})
}
