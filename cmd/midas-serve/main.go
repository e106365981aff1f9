// Command midas-serve hosts a canned-pattern panel over HTTP: an HTML
// page with the current patterns drawn as SVG, JSON endpoints for a GUI
// front end, a maintenance endpoint accepting batch updates, and a
// subgraph-query endpoint.
//
// Usage:
//
//	midas-serve -db db.graphs -addr :8080
//	midas-serve -state panel.state -addr :8080 -save panel.state
//
// Endpoints:
//
//	GET  /               HTML panel
//	GET  /patterns?svg=1 pattern set as JSON (optionally with SVG)
//	GET  /quality        pattern-set quality metrics
//	POST /maintain       body: Δ+ graphs (text format); ?delete=1,2 for Δ-;
//	                     ?async=1 queues and returns 202 with the position
//	POST /query?limit=N  body: one query graph (text format)
//	GET  /healthz        liveness (always 200 while the process serves)
//	GET  /readyz         readiness (503 while draining or before any
//	                     snapshot is published; stale-but-serving is 200)
//	GET  /metrics        Prometheus text-format metrics
//	GET  /debug/vars     the same metrics as expvar-style JSON
//	GET  /debug/pprof/   net/http/pprof (only with -pprof)
//
// Serving is snapshot-based: all maintenance (POST /maintain and spool
// batches) flows through one background pipeline bounded by
// -maintain-queue (full queue → 429 + Retry-After), and each applied
// batch publishes an immutable snapshot that read endpoints load
// lock-free — reads never block on maintenance and always see the last
// good generation, stamped into X-Midas-Generation / X-Midas-Staleness
// response headers. Failing batches retry with capped exponential
// backoff (-backoff, -retries) and are parked as poisoned when the
// budget is spent; readers are unaffected throughout.
//
// Multi-tenant mode (-tenants-dir, optionally -tenants manifest)
// serves one isolated shard per dataset from
// <tenants-dir>/<tenant>/{state,spool} behind /t/{tenant}/...
// routes (or an X-Midas-Tenant header): per-tenant metric labels on
// every family, one shared maintenance-worker budget (-workers),
// aggregated per-shard /readyz, consistent-hash placement across
// -slots processes, and dynamic POST/DELETE /admin/tenants/{id}
// lifecycle when -admin is on.
//
// Replication mode (-replica-dir) makes the process one node of a
// primary/warm-standby pair: the primary appends every committed
// batch to a framed, CRC'd, epoch-tagged replication log under
// -replica-dir and serves it on /replica/* (optionally on a dedicated
// -replica-listen address), pushing to -replica-peers; a follower
// (-replicate-from URL) cold-starts from the primary's bundle,
// re-applies the streamed log through its own snapshot pipeline, and
// serves all read endpoints lock-free with X-Midas-Replica /
// X-Midas-Replication-Lag headers while fencing writes to the primary
// (503 + Retry-After + X-Midas-Primary). POST /replica/promote and
// /replica/demote are the epoch-fenced failover verbs.
//
// Single-tenant mode and every tenant run the same stack, a
// tenant.Shard, opened from -state/-save/-watch/-db here and
// from <tenants-dir>/<tenant>/... in tenant mode.
//
// The process shuts down gracefully on SIGINT/SIGTERM: readiness flips
// to draining, in-flight requests finish, the spool watcher stops, the
// maintenance queue drains, the state bundle is saved (when -save is
// set), and the process exits 0.
// State bundles are written generationally (tmp + fsync + rename, with
// the previous generation kept as *.prev) and checksummed. With -save,
// every batch's bundle is saved before its generation publishes, so an
// acknowledged POST /maintain is durable; with -save and -watch, the
// bundle also names the last applied spool file and its checksum, so a
// restart after a crash renames that file instead of applying it
// twice. On startup the bundle is salvaged: an interrupted save rolls
// forward or back to the nearest valid generation, damaged bytes are
// quarantined as *.corrupt, and if no generation survives the panel
// starts degraded rather than crash-looping.
package main

import (
	"context"
	"flag"
	"net/http"
	"os"
	"runtime"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/internal/telemetry"
	"github.com/midas-graph/midas/internal/tenant"
)

func main() {
	var (
		dbPath     = flag.String("db", "", "database file to bootstrap from (text format)")
		statePath  = flag.String("state", "", "state bundle to restore instead of bootstrapping (engine options come from the bundle; of the engine flags only -workers applies)")
		savePath   = flag.String("save", "", "write the state bundle here after each maintenance and on shutdown")
		addr       = flag.String("addr", ":8080", "listen address")
		gamma      = flag.Int("gamma", 20, "number of displayed patterns γ")
		minSize    = flag.Int("min", 3, "minimum pattern size")
		maxSize    = flag.Int("max", 8, "maximum pattern size")
		supMin     = flag.Float64("supmin", 0.4, "FCT support threshold")
		epsilon    = flag.Float64("epsilon", 0.01, "evolution ratio threshold ε")
		seed       = flag.Int64("seed", 1, "random seed")
		watchDir   = flag.String("watch", "", "spool directory: apply *.graphs / *.delete files as periodic batches")
		watchIvl   = flag.Duration("interval", time.Minute, "spool polling interval")
		reqTimeout = flag.Duration("timeout", 2*time.Minute, "per-request deadline (0 disables)")
		retries    = flag.Int("retries", 3, "attempts before a failing maintenance batch is parked as poisoned (spool batches are then quarantined as *.failed)")
		backoff    = flag.Duration("backoff", 5*time.Second, "base retry backoff for failing maintenance batches (capped exponential growth per consecutive failure)")
		queueSize  = flag.Int("maintain-queue", 64, "maintenance queue bound: batches beyond it are rejected with 429 + Retry-After (backpressure)")
		inflight   = flag.Int("max-inflight", 0, "maximum concurrent engine-bound requests; excess requests get an immediate 503 with Retry-After (0 disables shedding)")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default: leaks process internals)")
		workers    = flag.Int("workers", max(1, runtime.GOMAXPROCS(0)-1), "maintenance kernel fan-out width (0 = sequential reference path); the default leaves reads one core; results are identical at every setting")

		replicaDir    = flag.String("replica-dir", "", "replication mode: node state directory (state bundle + replication log); serves /replica/* and logs every committed batch")
		replicateFrom = flag.String("replicate-from", "", "start as a warm-standby follower of this primary base URL (requires -replica-dir); reads serve locally, writes are fenced with 503 + X-Midas-Primary")
		replicaListen = flag.String("replica-listen", "", "serve the /replica/* endpoints on this separate address instead of -addr (requires -replica-dir)")
		replicaPeers  = flag.String("replica-peers", "", "comma-separated name=URL follower list the primary pushes its log to (requires -replica-dir)")

		tenantsDir = flag.String("tenants-dir", "", "multi-tenant mode: serve one shard per tenant under <dir>/<tenant>/{state,spool}; incompatible with -db/-state/-save/-watch")
		tenantsMan = flag.String("tenants", "", "tenant manifest file (one tenant per line: id [key=value ...]); requires -tenants-dir")
		adminOn    = flag.Bool("admin", true, "multi-tenant mode: expose POST/DELETE /admin/tenants/{id} for dynamic tenant lifecycle")
		slots      = flag.Int("slots", 1, "multi-tenant mode: process slots in the placement ring")
		slot       = flag.Int("slot", 0, "multi-tenant mode: this process's slot in the placement ring")
	)
	flag.Parse()

	// Leveled stderr logging; MIDAS_LOG_LEVEL=debug|info|warn|error.
	logger := telemetry.NewLoggerFromEnv(os.Stderr)
	engine := midas.Options{
		Budget:  midas.Budget{MinSize: *minSize, MaxSize: *maxSize, Count: *gamma},
		SupMin:  *supMin,
		Epsilon: *epsilon,
		Seed:    *seed,
		Workers: *workers,
	}

	if *replicaDir != "" {
		runReplica(logger, replicaConfig{
			dir:      *replicaDir,
			from:     *replicateFrom,
			listen:   *replicaListen,
			peers:    *replicaPeers,
			addr:     *addr,
			db:       *dbPath,
			timeout:  *reqTimeout,
			inflight: *inflight,
			queue:    *queueSize,
			retries:  *retries,
			backoff:  *backoff,
			pprofOn:  *pprofOn,
			engine:   engine,
			conflicts: map[string]bool{
				"-state": *statePath != "", "-save": *savePath != "", "-watch": *watchDir != "",
				"-tenants-dir": *tenantsDir != "",
			},
		})
		return
	}
	for name, set := range map[string]bool{
		"-replicate-from": *replicateFrom != "", "-replica-listen": *replicaListen != "",
		"-replica-peers": *replicaPeers != "",
	} {
		if set {
			logger.Fatalf("midas-serve: %s requires -replica-dir", name)
		}
	}

	if *tenantsDir != "" {
		runTenants(logger, tenantsConfig{
			dir:       *tenantsDir,
			manifest:  *tenantsMan,
			addr:      *addr,
			admin:     *adminOn,
			slots:     *slots,
			slot:      *slot,
			timeout:   *reqTimeout,
			inflight:  *inflight,
			queueSize: *queueSize,
			retries:   *retries,
			backoff:   *backoff,
			watchIvl:  *watchIvl,
			workers:   *workers,
			engine:    engine,
			conflicts: map[string]bool{
				"-db": *dbPath != "", "-state": *statePath != "", "-save": *savePath != "",
				"-watch": *watchDir != "", "-pprof": *pprofOn,
			},
		})
		return
	}
	if *tenantsMan != "" {
		logger.Fatalf("midas-serve: -tenants requires -tenants-dir")
	}
	if *dbPath == "" && *statePath == "" {
		logger.Fatalf("midas-serve: one of -db or -state is required")
	}
	paths := tenant.Paths{Restore: *statePath, Save: *savePath, Spool: *watchDir, DB: *dbPath}

	// One registry backs /metrics and /debug/vars, fed by the panel
	// middleware, the engine, the maintenance pipeline and the
	// process-wide kernel counters.
	reg := newMetrics()
	sh, err := tenant.OpenShard("", paths, tenant.Options{
		Engine:         engine,
		RequestTimeout: *reqTimeout,
		MaxInflight:    *inflight,
		QueueSize:      *queueSize,
		Retries:        *retries,
		Backoff:        *backoff,
		WatchInterval:  *watchIvl,
		Telemetry:      reg,
		Logger:         logger,
	})
	if err != nil {
		logger.Fatalf("midas-serve: %v", err)
	}
	srv := sh.Server()
	if *pprofOn {
		srv.EnablePprof()
		logger.Warnf("pprof endpoints enabled on /debug/pprof/")
	}

	logger.Infof("serving pattern panel on %s", *addr)
	serve(logger, &http.Server{Addr: *addr, Handler: srv.Handler()},
		func() { srv.SetReady(false) },
		func(ctx context.Context) error {
			if err := sh.Drain(ctx); err != nil {
				return err
			}
			if *savePath != "" {
				logger.Infof("state saved to %s", *savePath)
			}
			logger.Infof("bye")
			return nil
		})
}
