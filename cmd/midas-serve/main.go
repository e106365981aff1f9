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
// <tenants-dir>/<tenant>/{state,journal,spool} behind /t/{tenant}/...
// routes (or an X-Midas-Tenant header): per-tenant metric labels on
// every family, one shared maintenance-worker budget (-workers),
// aggregated per-shard /readyz, consistent-hash placement across
// -slots processes, and dynamic POST/DELETE /admin/tenants/{id}
// lifecycle when -admin is on.
//
// Replication mode (-replica-dir) makes the process one node of a
// primary/warm-standby pair: the primary journals every committed
// batch into a framed, CRC'd, epoch-tagged replication log under
// -replica-dir and serves it on /replica/* (optionally on a dedicated
// -replica-listen address), pushing to -replica-peers; a follower
// (-replicate-from URL) cold-starts from the primary's bundle,
// re-applies the streamed log through its own snapshot pipeline, and
// serves all read endpoints lock-free with X-Midas-Replica /
// X-Midas-Replication-Lag headers while fencing writes to the primary
// (503 + Retry-After + X-Midas-Primary). POST /replica/promote and
// /replica/demote are the epoch-fenced failover verbs.
//
// The process shuts down gracefully on SIGINT/SIGTERM: readiness flips
// to draining, in-flight requests finish, the spool watcher stops, the
// maintenance queue drains, the state bundle is saved (when -save is
// set), and the process exits 0.
// State bundles are written generationally (tmp + fsync + rename, with
// the previous generation kept as *.prev) and checksummed; with -save,
// a write-ahead journal gives maintenance batches (spool and HTTP)
// exactly-once application across crashes. On startup the bundle and journal are
// salvaged: an interrupted save rolls forward or back to the nearest
// valid generation, damaged bytes are quarantined as *.corrupt, and if
// no generation survives the panel starts degraded (empty database)
// rather than crash-looping.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/catapult"
	"github.com/midas-graph/midas/internal/ged"
	"github.com/midas-graph/midas/internal/iso"
	"github.com/midas-graph/midas/internal/panel"
	"github.com/midas-graph/midas/internal/parallel"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/telemetry"
	"github.com/midas-graph/midas/internal/vfs"
)

// Bundle metadata keys tying the saved state to the spool journal.
const (
	metaLastBatch    = "lastBatch"
	metaLastBatchSum = "lastBatchSum"
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
		jrnlPath   = flag.String("journal", "", "batch journal path for exactly-once batch recovery (default <save>.journal whenever -save is set; requires -save)")
		reqTimeout = flag.Duration("timeout", 2*time.Minute, "per-request deadline (0 disables)")
		retries    = flag.Int("retries", 3, "attempts before a failing maintenance batch is parked as poisoned (spool batches are then quarantined as *.failed)")
		backoff    = flag.Duration("backoff", 5*time.Second, "base retry backoff for failing maintenance batches (capped exponential growth per consecutive failure)")
		queueSize  = flag.Int("maintain-queue", 64, "maintenance queue bound: batches beyond it are rejected with 429 + Retry-After (backpressure)")
		checkpoint = flag.Int64("checkpoint", 1<<20, "journal size in bytes above which it is compacted after a successful maintenance (0 disables)")
		inflight   = flag.Int("max-inflight", 0, "maximum concurrent engine-bound requests; excess requests get an immediate 503 with Retry-After (0 disables shedding)")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default: leaks process internals)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "maintenance kernel fan-out width (0 = sequential reference path); results are identical at every setting")

		replicaDir    = flag.String("replica-dir", "", "replication mode: node state directory (state bundle + replication log); serves /replica/* and journals every committed batch")
		replicateFrom = flag.String("replicate-from", "", "start as a warm-standby follower of this primary base URL (requires -replica-dir); reads serve locally, writes are fenced with 503 + X-Midas-Primary")
		replicaListen = flag.String("replica-listen", "", "serve the /replica/* endpoints on this separate address instead of -addr (requires -replica-dir)")
		replicaPeers  = flag.String("replica-peers", "", "comma-separated name=URL follower list the primary pushes its log to (requires -replica-dir)")

		tenantsDir = flag.String("tenants-dir", "", "multi-tenant mode: serve one shard per tenant under <dir>/<tenant>/{state,journal,spool}; incompatible with -db/-state/-save/-watch/-journal")
		tenantsMan = flag.String("tenants", "", "tenant manifest file (one tenant per line: id [key=value ...]); requires -tenants-dir")
		adminOn    = flag.Bool("admin", true, "multi-tenant mode: expose POST/DELETE /admin/tenants/{id} for dynamic tenant lifecycle")
		slots      = flag.Int("slots", 1, "multi-tenant mode: process slots in the placement ring")
		slot       = flag.Int("slot", 0, "multi-tenant mode: this process's slot in the placement ring")
	)
	flag.Parse()

	// Leveled stderr logging; MIDAS_LOG_LEVEL=debug|info|warn|error.
	logger := telemetry.NewLoggerFromEnv(os.Stderr)

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
			engine: midas.Options{
				Budget:  midas.Budget{MinSize: *minSize, MaxSize: *maxSize, Count: *gamma},
				SupMin:  *supMin,
				Epsilon: *epsilon,
				Seed:    *seed,
				Workers: *workers,
			},
			conflicts: map[string]bool{
				"-state": *statePath != "", "-save": *savePath != "", "-watch": *watchDir != "",
				"-journal": *jrnlPath != "", "-tenants-dir": *tenantsDir != "",
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
			dir:        *tenantsDir,
			manifest:   *tenantsMan,
			addr:       *addr,
			admin:      *adminOn,
			slots:      *slots,
			slot:       *slot,
			timeout:    *reqTimeout,
			inflight:   *inflight,
			queueSize:  *queueSize,
			retries:    *retries,
			backoff:    *backoff,
			checkpoint: *checkpoint,
			watchIvl:   *watchIvl,
			workers:    *workers,
			engine: midas.Options{
				Budget:  midas.Budget{MinSize: *minSize, MaxSize: *maxSize, Count: *gamma},
				SupMin:  *supMin,
				Epsilon: *epsilon,
				Seed:    *seed,
				Workers: *workers,
			},
			conflicts: map[string]bool{
				"-db": *dbPath != "", "-state": *statePath != "", "-save": *savePath != "",
				"-watch": *watchDir != "", "-journal": *jrnlPath != "", "-pprof": *pprofOn,
			},
		})
		return
	}
	if *tenantsMan != "" {
		logger.Fatalf("midas-serve: -tenants requires -tenants-dir")
	}
	// A journal without a bundle to reconcile against is meaningless:
	// catch the misconfiguration at startup, not at the first batch.
	if *jrnlPath != "" && *savePath == "" {
		logger.Fatalf("midas-serve: -journal requires -save (the journal reconciles batches against the saved bundle)")
	}

	opts := midas.Options{
		Budget:  midas.Budget{MinSize: *minSize, MaxSize: *maxSize, Count: *gamma},
		SupMin:  *supMin,
		Epsilon: *epsilon,
		Seed:    *seed,
		Workers: *workers,
	}

	var (
		eng      *midas.Engine
		meta     map[string]string
		degraded bool
	)
	if *statePath != "" {
		// Salvage-mode restore: roll an interrupted save forward or back
		// to the nearest valid generation, quarantining damage. Only an
		// unrecoverable (or absent) bundle falls through.
		data, rep, err := store.LoadBundle(vfs.OS, *statePath, midas.VerifyState)
		logSalvage(logger, *statePath, rep)
		degraded = rep.Degraded()
		if err == nil {
			// Engine options come from the bundle header; only the
			// wall-clock knob comes from the command line.
			eng, meta, err = midas.LoadStateMeta(bytes.NewReader(data), *workers)
		}
		switch {
		case eng != nil:
			logger.Infof("restored state: %d graphs, %d patterns", eng.DB().Len(), len(eng.Patterns()))
		case errors.Is(err, store.ErrCorrupt):
			logger.Errorf("midas-serve: state bundle unrecoverable, starting degraded: %v", err)
			degraded = true
		case errors.Is(err, os.ErrNotExist) && *dbPath != "":
			logger.Infof("no state bundle at %s yet; bootstrapping from -db", *statePath)
		default:
			logger.Fatalf("midas-serve: %v", err)
		}
	}
	switch {
	case eng != nil:
	case *dbPath != "":
		f, err := os.Open(*dbPath)
		if err != nil {
			logger.Fatalf("midas-serve: %v", err)
		}
		graphs, err := graph.Read(f)
		f.Close()
		if err != nil {
			logger.Fatalf("midas-serve: %v", err)
		}
		db := graph.NewDatabase()
		for _, g := range graphs {
			if err := db.Add(g); err != nil {
				logger.Fatalf("midas-serve: %v", err)
			}
		}
		logger.Infof("bootstrapping over %d graphs...", db.Len())
		eng = midas.New(db, opts)
		logger.Infof("selected %d patterns in %v", len(eng.Patterns()), eng.BootstrapTime())
	case degraded:
		// Every generation of the bundle was corrupt and there is no -db
		// to rebuild from. Serve an empty panel instead of crash-looping:
		// the spool watcher or POST /maintain can repopulate it, and the
		// quarantined *.corrupt files hold the damage for post-mortem.
		logger.Warnf("starting degraded with an empty database")
		eng = midas.New(graph.NewDatabase(), opts)
	default:
		fmt.Fprintln(os.Stderr, "midas-serve: one of -db or -state is required")
		os.Exit(1)
	}

	srv := panel.New(eng, opts)
	srv.SetLogger(logger)
	srv.SetRequestTimeout(*reqTimeout)
	srv.SetMaxInflight(*inflight)
	srv.SetMaintainQueue(*queueSize)
	srv.SetMaintainRetry(*backoff, *retries)
	// A degraded start (all bundle generations lost) is stamped into
	// every published snapshot so clients see X-Midas-Degraded until an
	// operator intervenes.
	srv.SetDegraded(degraded)

	// Telemetry: one registry backs /metrics and /debug/vars, fed by the
	// panel middleware, the engine's maintenance pipeline, and the
	// process-wide kernel counters.
	reg := telemetry.NewRegistry()
	srv.SetTelemetry(reg)
	eng.SetTelemetry(reg)
	iso.RegisterMetrics(reg)
	ged.RegisterMetrics(reg)
	catapult.RegisterMetrics(reg)
	store.RegisterMetrics(reg)
	parallel.RegisterMetrics(reg)
	procStart := time.Now()
	reg.NewGaugeFunc("midas_serve_uptime_seconds",
		"Seconds since the serving process started.",
		func() float64 { return time.Since(procStart).Seconds() })
	reg.NewGaugeFunc("midas_serve_degraded",
		"1 while the panel runs on a salvaged or empty state after losing bundle generations.",
		func() float64 {
			if degraded {
				return 1
			}
			return 0
		})
	saveSeconds := reg.NewHistogram("midas_state_save_seconds",
		"Wall-clock seconds per state-bundle save.", nil)
	if *pprofOn {
		srv.EnablePprof()
		logger.Warnf("pprof endpoints enabled on /debug/pprof/")
	}

	// lastMeta tracks the most recently persisted batch so the shutdown
	// save keeps the journal reconciliation metadata intact.
	var (
		metaMu   sync.Mutex
		lastMeta = map[string]string{}
	)
	for k, v := range meta {
		lastMeta[k] = v
	}
	saveBundle := func() error {
		metaMu.Lock()
		m := make(map[string]string, len(lastMeta))
		for k, v := range lastMeta {
			m[k] = v
		}
		metaMu.Unlock()
		sp := saveSeconds.Start()
		defer sp.End()
		return store.SaveBundle(vfs.OS, *savePath, func(w io.Writer) error {
			return midas.SaveStateMeta(w, eng, m)
		})
	}
	if *savePath != "" {
		// Durability hook for HTTP batches: runs on the maintenance
		// goroutine after each applied batch, before its generation is
		// published — replaces the old save-after-200 middleware, which
		// raced the response against the save.
		srv.SetPostMaintain(func(midas.MaintenanceReport) error { return saveBundle() })
	}

	// The write-ahead journal rides with -save alone: HTTP batches are
	// journalled too (Begin before apply, MarkApplied/MarkDone after the
	// bundle lands), so exactly-once recovery no longer requires -watch.
	var journal *store.Journal
	if *savePath != "" {
		jp := *jrnlPath
		if jp == "" {
			jp = *savePath + ".journal"
		}
		var err error
		journal, err = store.OpenJournal(jp)
		if err != nil {
			logger.Fatalf("midas-serve: %v", err)
		}
		if s := journal.Salvage(); s.TailBytes > 0 {
			logger.Warnf("journal salvage: %d torn byte(s) quarantined to %s", s.TailBytes, s.QuarantinePath)
		}
		journal.SetCheckpointThreshold(*checkpoint)
		// Post-Maintain checkpoint hook: after every successful
		// maintenance (spool batch or POST /maintain) compact the
		// journal once it outgrows the -checkpoint threshold.
		j := journal
		eng.SetAfterMaintain(func(midas.MaintenanceReport) {
			if ran, err := j.MaybeCheckpoint(); err != nil {
				logger.Errorf("midas-serve: journal checkpoint: %v", err)
			} else if ran {
				logger.Infof("journal compacted to %d bytes", j.Size())
			}
		})
		srv.SetJournal(journal)
	}

	stopWatch := make(chan struct{})
	var watchWG sync.WaitGroup
	if *watchDir != "" {
		w := &panel.Watcher{
			Dir:        *watchDir,
			Engine:     eng,
			Logf:       logger.Printf,
			Pipe:       srv.Pipeline(),
			MaxRetries: *retries,
			Backoff:    *backoff,
		}
		if journal != nil {
			w.Journal = journal
			w.Persist = func(name string, sum uint32) error {
				metaMu.Lock()
				lastMeta[metaLastBatch] = name
				lastMeta[metaLastBatchSum] = fmt.Sprintf("%08x", sum)
				metaMu.Unlock()
				return saveBundle()
			}
			// Seed crash recovery from the restored bundle's metadata.
			w.LastApplied = meta[metaLastBatch]
			if s, err := strconv.ParseUint(meta[metaLastBatchSum], 16, 32); err == nil {
				w.LastAppliedSum = uint32(s)
			}
		}
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			w.Run(*watchIvl, stopWatch)
		}()
		logger.Infof("watching %s every %v", *watchDir, *watchIvl)
	}

	server := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	logger.Infof("serving pattern panel on %s", *addr)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	select {
	case err := <-errCh:
		logger.Fatalf("midas-serve: %v", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: drain readiness, finish in-flight requests,
	// stop the watcher, persist state, exit 0.
	logger.Infof("signal received; draining...")
	srv.SetReady(false)
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer shutCancel()
	if err := server.Shutdown(shutCtx); err != nil {
		logger.Warnf("midas-serve: shutdown: %v", err)
	}
	close(stopWatch)
	watchWG.Wait()
	// Drain the maintenance pipeline: queued batches finish (each one
	// journalled and persisted as usual); past the deadline the
	// in-flight batch is cancelled and rolls back cleanly.
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer drainCancel()
	if err := srv.Close(drainCtx); err != nil {
		logger.Warnf("midas-serve: pipeline drain cut short: %v", err)
	}
	if journal != nil {
		journal.Close()
	}
	if *savePath != "" {
		if err := saveBundle(); err != nil {
			logger.Fatalf("midas-serve: saving state on shutdown: %v", err)
		}
		logger.Infof("state saved to %s", *savePath)
	}
	logger.Infof("bye")
}

// logSalvage narrates what LoadBundle had to repair so an operator can
// tell a clean restart from a salvaged one.
func logSalvage(logger *telemetry.Logger, path string, rep store.SalvageReport) {
	for _, q := range rep.Quarantined {
		logger.Warnf("state salvage: quarantined %s", q)
	}
	if rep.RolledForward {
		logger.Warnf("state salvage: rolled %s forward to its completed in-flight save", path)
	}
	if rep.RolledBack {
		logger.Warnf("state salvage: rolled %s back to its previous generation", path)
	}
}
