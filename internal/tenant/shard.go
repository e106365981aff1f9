// Package tenant runs MIDAS serving stacks. A Shard is the one
// single-node stack (engine, snapshot handle + maintenance pipeline,
// panel server, save bundle, spool watcher), opened from
// explicit paths by OpenShard; single-tenant midas-serve and every
// replicated node run one directly. For the multi-GUI deployment the
// paper motivates (one canned pattern set per dataset: PubChem,
// eMolecules, AIDS, ...), a Registry keys shards by dataset ID, each
// rooted under its own directory, and a Router resolves
// /t/{tenant}/... to them. Isolation is the design center: shards
// share nothing but the process-wide worker Budget and the telemetry
// registry (through per-tenant label views), so one tenant's major
// batch, poisoned spool file or crash salvage never perturbs another
// tenant's reads.
package tenant

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/panel"
	"github.com/midas-graph/midas/internal/snapshot"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/telemetry"
	"github.com/midas-graph/midas/internal/vfs"
)

// Bundle metadata keys naming the last spool batch in a shard's saved
// state: the record that keeps spool batches exactly-once across
// crashes. Every layout writes the same keys, so a single-tenant state
// bundle can be adopted as a tenant bundle unchanged.
const (
	metaLastBatch    = "lastBatch"
	metaLastBatchSum = "lastBatchSum"
)

// Paths locates a shard's durable state. An empty path turns that
// feature off; a shard with no paths lives in memory. Registry.Add
// derives them from <root>/<id>/...; single-tenant midas-serve from its
// -state/-save/-watch/-db flags.
type Paths struct {
	// Restore is the state bundle restored at open, salvaging an
	// interrupted save.
	Restore string
	// Save is where the state bundle is written after every applied
	// batch (before its generation publishes) and at drain, when state
	// is left unsaved.
	Save string
	// Spool is the directory whose *.graphs / *.delete batch files the
	// watcher applies. With Save, the bundle records the last applied
	// file, which makes spool batches exactly-once across crashes.
	Spool string
	// DB is the database (text format) bootstrapped when no bundle
	// restores.
	DB string
	// FS is the filesystem Restore and Save live on (nil = vfs.OS);
	// replicated nodes run their tests on a simulated one.
	FS vfs.FS
}

// Shard is one complete single-node serving stack: engine, snapshot
// handle and maintenance pipeline, panel server, save bundle and spool
// watcher. All fields are wired at open and immutable
// afterwards; lifecycle state (draining) is atomic. Tenants get theirs
// through Registry.Add; single-tenant midas-serve and replicated nodes
// (internal/replica) open one directly.
type Shard struct {
	// ID is the tenant/dataset identifier (ValidateID-clean), or ""
	// for the single-tenant shard.
	ID string

	pipe     *snapshot.Pipeline
	server   *panel.Server
	handler  http.Handler
	opts     midas.Options
	degraded bool
	logger   *telemetry.Logger

	fsys        vfs.FS
	savePath    string
	saveSeconds *telemetry.Histogram
	metaMu      sync.Mutex
	lastMeta    map[string]string
	// unsaved is set while the engine may hold state the bundle at
	// savePath lacks: from open until the first save, and from each
	// committed batch until its save succeeds. Drain's final save runs
	// only while it is set.
	unsaved atomic.Bool

	stopWatch chan struct{}
	watchWG   sync.WaitGroup

	draining  atomic.Bool
	drainOnce sync.Once
	drainErr  error
}

// Status is one shard's health line in /readyz aggregation and the
// admin API.
type Status struct {
	ID         string `json:"id"`
	State      string `json:"state"` // ok | degraded | poisoned | draining
	Generation uint64 `json:"generation"`
	// AppliedLSN is the shard's applied-batch count, or the
	// replication-log LSN on a replicated node. With the last-publish
	// Generation it tells an operator how far a degraded shard is
	// behind straight from the /readyz probe.
	AppliedLSN       uint64  `json:"appliedLSN"`
	DBLen            int     `json:"dbLen"`
	Patterns         int     `json:"patterns"`
	QueueDepth       int     `json:"queueDepth"`
	StalenessSeconds float64 `json:"stalenessSeconds"`
	Poisoned         int     `json:"poisoned"`
	Degraded         bool    `json:"degraded"`
}

// stateRank orders shard states worst-first for the /readyz worst-of
// summary.
func stateRank(state string) int {
	switch state {
	case "draining":
		return 3
	case "poisoned":
		return 2
	case "degraded":
		return 1
	}
	return 0
}

// OpenShard builds one serving stack and starts it: it restores the
// engine from p.Restore or bootstraps it, publishes the first
// snapshot, starts the maintenance pipeline and, with p.Spool, the
// spool watcher. o holds the shard's final settings (Registry.Add
// merges a tenant's overrides first); its Root, Placement and Slot are
// registry concerns and ignored here. The engine comes from the first
// source that applies:
//
//   - a valid bundle at p.Restore;
//   - the database at p.DB;
//   - the o.NewEngine hook;
//   - an empty database, degraded, when p.Restore held only corruption.
//
// Anything else is an error — an absent bundle with no database to
// bootstrap is a misconfiguration, not an empty panel. All disk work
// happens before any goroutine starts, so a failed open leaves nothing
// running.
func OpenShard(id string, p Paths, o Options) (*Shard, error) {
	if p.FS == nil {
		p.FS = vfs.OS
	}
	sh := &Shard{ID: id, opts: o.Engine, logger: o.Logger, fsys: p.FS, savePath: p.Save, lastMeta: map[string]string{}}
	sh.unsaved.Store(true)
	eng, meta, err := sh.openEngine(p, &o)
	if err != nil {
		return nil, sh.wrap(err)
	}
	for k, v := range meta {
		sh.lastMeta[k] = v
	}

	renderSVG := func(g *graph.Graph) string { return panel.SVG(g, 120) }
	cfg := snapshot.Config{
		QueueSize:   o.QueueSize,
		MaxAttempts: o.Retries,
		Backoff:     o.Backoff,
		RenderSVG:   renderSVG,
		// A degraded start is stamped into every published snapshot, so
		// clients see X-Midas-Degraded until an operator intervenes.
		Degraded: sh.degraded,
		Admit:    o.Admit,
		Logf: func(format string, args ...interface{}) {
			sh.logger.Warnf(sh.prefix(format), args...)
		},
	}
	if b := o.Budget; b != nil {
		weight := sh.opts.Workers
		cfg.Gate = func(ctx context.Context) (func(), error) { return b.Acquire(ctx, weight) }
	}
	if sh.savePath != "" || o.Commit != nil {
		// Durability: the batch is committed and its bundle lands
		// before its generation publishes and before an HTTP client sees
		// its 200.
		cfg.OnApplied = func(b snapshot.Batch, _ midas.MaintenanceReport) error {
			var meta map[string]string
			if o.Commit != nil {
				var err error
				if meta, err = o.Commit(b); err != nil {
					return err
				}
			}
			sh.unsaved.Store(true)
			return sh.Save(meta)
		}
	}
	handle := snapshot.NewHandle()
	sh.pipe = snapshot.NewPipeline(eng, handle, cfg)
	sh.server = panel.New(sh.pipe)
	sh.server.SetLogger(o.Logger)
	sh.server.SetRequestTimeout(o.RequestTimeout)
	sh.server.SetMaxInflight(o.MaxInflight)
	if reg := o.Telemetry; reg != nil {
		sh.server.SetTelemetry(reg)
		eng.SetTelemetry(reg)
		sh.pipe.SetTelemetry(reg)
		sh.saveSeconds = reg.NewHistogram("midas_state_save_seconds",
			"Wall-clock seconds per state-bundle save.", nil)
		reg.NewGaugeFunc("midas_serve_degraded",
			"1 while the panel runs on a salvaged or empty state after losing bundle generations.",
			func() float64 {
				if sh.degraded {
					return 1
				}
				return 0
			})
	}
	handle.Publish(snapshot.Build(eng, snapshot.BuildOptions{RenderSVG: renderSVG, Degraded: sh.degraded}))
	sh.pipe.Start()
	// Built once here so Router dispatch stays allocation-free.
	sh.handler = sh.server.Handler()

	sh.stopWatch = make(chan struct{})
	if p.Spool != "" {
		w := &panel.Watcher{
			Dir:        p.Spool,
			Pipe:       sh.pipe,
			MaxRetries: o.Retries,
			Backoff:    o.Backoff,
			Logf: func(format string, args ...interface{}) {
				sh.logger.Infof(sh.prefix(format), args...)
			},
			// Record the batch in the bundle metadata the OnApplied save
			// writes next.
			Persist: func(name string, sum uint32) error {
				sh.metaMu.Lock()
				sh.lastMeta[metaLastBatch] = name
				sh.lastMeta[metaLastBatchSum] = fmt.Sprintf("%08x", sum)
				sh.metaMu.Unlock()
				return nil
			},
			// Seed crash recovery from the restored bundle's metadata.
			LastApplied: meta[metaLastBatch],
		}
		if s, err := strconv.ParseUint(meta[metaLastBatchSum], 16, 32); err == nil {
			w.LastAppliedSum = uint32(s)
		}
		sh.watchWG.Add(1)
		go func() {
			defer sh.watchWG.Done()
			w.Run(o.WatchInterval, sh.stopWatch)
		}()
		sh.logger.Infof(sh.prefix("watching %s every %v"), p.Spool, o.WatchInterval)
	}
	return sh, nil
}

// openEngine returns the shard's engine from the first source
// OpenShard lists, with the restored bundle's metadata. Only
// unrecoverable corruption marks the shard degraded.
func (sh *Shard) openEngine(p Paths, o *Options) (*midas.Engine, map[string]string, error) {
	var err error
	if p.Restore != "" {
		var data []byte
		var rep store.SalvageReport
		data, rep, err = store.LoadBundle(p.FS, p.Restore, midas.VerifyState)
		for _, q := range rep.Quarantined {
			sh.logger.Warnf(sh.prefix("state salvage: quarantined %s"), q)
		}
		if rep.RolledForward {
			sh.logger.Warnf(sh.prefix("state salvage: rolled %s forward to its completed in-flight save"), p.Restore)
		}
		if rep.RolledBack {
			sh.logger.Warnf(sh.prefix("state salvage: rolled %s back to its previous generation"), p.Restore)
		}
		sh.degraded = rep.Degraded()
		if err == nil {
			// Engine options come from the bundle header; only the
			// wall-clock knob comes from the caller.
			var eng *midas.Engine
			var meta map[string]string
			if eng, meta, err = midas.LoadStateMeta(bytes.NewReader(data), sh.opts.Workers); err == nil {
				how := "rebuilt"
				if eng.Decoded() {
					how = "decoded"
				}
				sh.logger.Infof(sh.prefix("restored state: %d graphs, %d patterns, %s in %v"),
					eng.DB().Len(), len(eng.Patterns()), how, eng.BootstrapTime())
				return eng, meta, nil
			}
		}
		switch {
		case errors.Is(err, store.ErrCorrupt):
			sh.logger.Errorf(sh.prefix("state bundle unrecoverable, starting degraded: %v"), err)
			sh.degraded = true
		case errors.Is(err, os.ErrNotExist):
			sh.logger.Infof(sh.prefix("no state bundle at %s yet"), p.Restore)
		default:
			return nil, nil, err
		}
	}
	switch {
	case p.DB != "":
		db, err := graph.ReadDatabaseFile(p.DB)
		if err != nil {
			return nil, nil, err
		}
		sh.logger.Infof(sh.prefix("bootstrapping over %d graphs..."), db.Len())
		eng := midas.New(db, sh.opts)
		sh.logger.Infof(sh.prefix("selected %d patterns in %v"), len(eng.Patterns()), eng.BootstrapTime())
		return eng, nil, nil
	case o.NewEngine != nil:
		eng, degraded, err := o.NewEngine(sh.ID, sh.opts)
		sh.degraded = sh.degraded || degraded
		return eng, nil, err
	case sh.degraded:
		// Every generation of the bundle was corrupt and there is
		// nothing to rebuild from. Serve an empty panel instead of
		// crash-looping: the spool or POST /maintain can repopulate it,
		// and the quarantined *.corrupt files hold the damage.
		sh.logger.Warnf(sh.prefix("starting degraded with an empty database"))
		return midas.New(graph.NewDatabase(), sh.opts), nil, nil
	case err != nil:
		return nil, nil, err
	default:
		return nil, nil, errors.New("no state bundle, database or engine hook to start from")
	}
}

// prefix names the tenant in a log format; the single-tenant shard
// logs unprefixed.
func (sh *Shard) prefix(format string) string {
	if sh.ID == "" {
		return format
	}
	return "tenant " + sh.ID + ": " + format
}

// wrap names the tenant in an error.
func (sh *Shard) wrap(err error) error {
	if sh.ID == "" {
		return err
	}
	return fmt.Errorf("tenant %s: %w", sh.ID, err)
}

// Save merges meta into the bundle metadata and persists the engine
// state generationally, carrying the last spool batch and any
// replication position forward, timed into midas_state_save_seconds.
// Without a save path it only merges. Every applied batch saves
// through it; a replicated node also calls it directly, while no batch
// is in flight, for the saves no batch makes (start, promotion, epoch
// records).
func (sh *Shard) Save(meta map[string]string) error {
	sh.metaMu.Lock()
	for k, v := range meta {
		sh.lastMeta[k] = v
	}
	m := maps.Clone(sh.lastMeta)
	sh.metaMu.Unlock()
	if sh.savePath == "" {
		return nil
	}
	defer sh.saveSeconds.Start().End()
	err := store.SaveBundle(sh.fsys, sh.savePath, func(w io.Writer) error {
		return midas.SaveStateMeta(w, sh.Engine(), m)
	})
	if err == nil {
		sh.unsaved.Store(false)
	}
	return err
}

// Handler returns the shard's HTTP handler (the full panel route
// table, middleware included).
func (sh *Shard) Handler() http.Handler { return sh.handler }

// Server exposes the shard's panel server (tests, bench).
func (sh *Shard) Server() *panel.Server { return sh.server }

// Engine exposes the shard's live engine, the one its pipeline applies
// batches to (never mutate it outside the pipeline).
func (sh *Shard) Engine() *midas.Engine { return sh.pipe.Engine() }

// Status reports the shard's health for /readyz and the admin API.
func (sh *Shard) Status() Status {
	h, pipe := sh.pipe.Handle(), sh.pipe
	st := Status{
		ID:               sh.ID,
		Generation:       h.Generation(),
		AppliedLSN:       pipe.Applied(),
		QueueDepth:       pipe.Depth(),
		StalenessSeconds: pipe.Staleness().Seconds(),
		Poisoned:         len(pipe.Poisoned()),
		Degraded:         sh.degraded,
	}
	if snap := h.Load(); snap != nil {
		st.DBLen = snap.DBLen
		st.Patterns = len(snap.Patterns)
		st.Degraded = st.Degraded || snap.Degraded
	}
	switch {
	case sh.draining.Load():
		st.State = "draining"
	case st.Poisoned > 0:
		st.State = "poisoned"
	case st.Degraded:
		st.State = "degraded"
	default:
		st.State = "ok"
	}
	return st
}

// Draining reports whether Drain has started.
func (sh *Shard) Draining() bool { return sh.draining.Load() }

// Drain retires the shard cleanly: readiness flips off, the spool
// watcher stops, queued maintenance finishes (bounded by ctx; past
// the deadline the in-flight batch is cancelled and rolls back), and
// the state bundle is saved if the engine holds state no save has
// written (nothing saved since open, or a committed batch whose save
// failed), so the final generation survives. Idempotent; later calls
// return the first outcome. After Drain the shard serves nothing — the
// Registry detaches it before draining; midas-serve stops its
// listener first.
func (sh *Shard) Drain(ctx context.Context) error {
	sh.drainOnce.Do(func() {
		sh.draining.Store(true)
		sh.server.SetReady(false)
		close(sh.stopWatch)
		sh.watchWG.Wait()
		if err := sh.pipe.Stop(ctx); err != nil {
			sh.drainErr = sh.wrap(fmt.Errorf("pipeline drain: %w", err))
		}
		if sh.savePath != "" && sh.unsaved.Load() {
			if err := sh.Save(nil); err != nil && sh.drainErr == nil {
				sh.drainErr = sh.wrap(fmt.Errorf("final save: %w", err))
			}
		}
	})
	return sh.drainErr
}

// intOr returns *p when set, otherwise def.
func intOr(p *int, def int) int {
	if p != nil {
		return *p
	}
	return def
}
