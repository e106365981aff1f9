// Package tenant multiplexes many dataset panels inside one serving
// process — the multi-GUI deployment the paper motivates (one canned
// pattern set per dataset: PubChem, eMolecules, AIDS, ...). Each
// tenant is a Shard owning a full single-tenant serving stack (engine,
// snapshot handle + maintenance pipeline, journal, save bundle, spool
// watcher) rooted under its own directory; a Registry keys shards by
// dataset ID and a Router resolves /t/{tenant}/... to them. Isolation
// is the design center: shards share nothing but the process-wide
// worker Budget and the telemetry registry (through per-tenant label
// views), so one tenant's major batch, poisoned spool file or crash
// salvage never perturbs another tenant's reads.
package tenant

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/panel"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/vfs"
)

// Bundle metadata keys tying a shard's saved state to its spool
// journal — the same keys midas-serve uses, so a single-tenant state
// directory can be adopted as a tenant directory unchanged.
const (
	metaLastBatch    = "lastBatch"
	metaLastBatchSum = "lastBatchSum"
)

// Shard is one tenant's complete serving stack. All fields are wired
// at construction and immutable afterwards; lifecycle state (draining)
// is atomic. Shards are created through Registry.Add.
type Shard struct {
	// ID is the tenant/dataset identifier (ValidateID-clean).
	ID string
	// Dir is the shard's root: <tenants-dir>/<id>/{state,journal,spool}.
	// Empty for purely in-memory shards (NewEngine hook, no Save/Watch).
	Dir string

	engine   *midas.Engine
	server   *panel.Server
	handler  http.Handler
	journal  *store.Journal
	opts     midas.Options
	degraded bool

	savePath string
	metaMu   sync.Mutex
	lastMeta map[string]string

	stopWatch chan struct{}
	watchWG   sync.WaitGroup
	watching  bool

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
	// AppliedLSN is the shard's journal position: the count of batches
	// the pipeline has applied (each one a journal entry). With the
	// last-publish Generation it tells an operator how far a degraded
	// shard is behind straight from the /readyz probe.
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

// newShard cold-starts one tenant: restores or bootstraps its engine,
// wires the panel server, journal, save bundle and spool watcher, and
// publishes the bootstrap snapshot. It does all disk work before the
// Registry links the shard in, so a failed cold start leaves no
// half-built tenant behind.
func newShard(id string, o *Options, ov Overrides) (*Shard, error) {
	opts := o.engineOptions(ov)
	sh := &Shard{ID: id, opts: opts, lastMeta: map[string]string{}}
	if o.Root != "" {
		sh.Dir = filepath.Join(o.Root, id)
	}

	// Engine: the NewEngine hook (tests, bench) bypasses disk entirely;
	// otherwise restore the state bundle, bootstrap from db.graphs, or
	// start empty — a tenant added at runtime begins as an empty panel
	// its spool or POST /maintain populates.
	var meta map[string]string
	switch {
	case o.NewEngine != nil:
		eng, degraded, err := o.NewEngine(id, opts)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", id, err)
		}
		sh.engine, sh.degraded = eng, degraded
	default:
		if sh.Dir == "" {
			return nil, fmt.Errorf("tenant %s: no root directory and no NewEngine hook", id)
		}
		for _, sub := range []string{"state", "journal", "spool"} {
			if err := os.MkdirAll(filepath.Join(sh.Dir, sub), 0o755); err != nil {
				return nil, fmt.Errorf("tenant %s: %w", id, err)
			}
		}
		var err error
		meta, err = sh.bootstrapEngine(o)
		if err != nil {
			return nil, err
		}
	}

	srv := panel.New(sh.engine, opts)
	sh.server = srv
	if o.Logger != nil {
		srv.SetLogger(o.Logger)
	}
	srv.SetRequestTimeout(o.RequestTimeout)
	srv.SetMaxInflight(intOr(ov.MaxInflight, o.MaxInflight))
	srv.SetMaintainQueue(intOr(ov.QueueSize, o.QueueSize))
	srv.SetMaintainRetry(o.Backoff, o.Retries)
	srv.SetDegraded(sh.degraded)
	if o.Telemetry != nil {
		reg := o.Telemetry.WithLabels("tenant", id)
		srv.SetTelemetry(reg)
		sh.engine.SetTelemetry(reg)
	}
	if o.Budget != nil {
		weight := opts.Workers
		budget := o.Budget
		srv.SetMaintainGate(func(ctx context.Context) (func(), error) {
			return budget.Acquire(ctx, weight)
		})
	}

	if o.Save && sh.Dir != "" {
		sh.savePath = filepath.Join(sh.Dir, "state", "panel.state")
		for k, v := range meta {
			sh.lastMeta[k] = v
		}
		srv.SetPostMaintain(func(midas.MaintenanceReport) error { return sh.saveBundle() })

		jp := filepath.Join(sh.Dir, "journal", "batch.journal")
		journal, err := store.OpenJournal(jp)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", id, err)
		}
		if s := journal.Salvage(); s.TailBytes > 0 {
			o.logf("tenant %s: journal salvage: %d torn byte(s) quarantined to %s", id, s.TailBytes, s.QuarantinePath)
		}
		journal.SetCheckpointThreshold(o.Checkpoint)
		sh.journal = journal
		srv.SetJournal(journal)
		sh.engine.SetAfterMaintain(func(midas.MaintenanceReport) {
			if ran, err := journal.MaybeCheckpoint(); err != nil {
				o.logf("tenant %s: journal checkpoint: %v", id, err)
			} else if ran {
				o.logf("tenant %s: journal compacted to %d bytes", id, journal.Size())
			}
		})
	}

	sh.stopWatch = make(chan struct{})
	if o.Watch && sh.Dir != "" {
		w := &panel.Watcher{
			Dir:        filepath.Join(sh.Dir, "spool"),
			Engine:     sh.engine,
			Pipe:       srv.Pipeline(),
			Journal:    sh.journal,
			MaxRetries: o.Retries,
			Backoff:    o.Backoff,
			Logf: func(format string, args ...interface{}) {
				o.logf("tenant "+id+": "+format, args...)
			},
		}
		if sh.journal != nil {
			w.Persist = func(name string, sum uint32) error {
				sh.metaMu.Lock()
				sh.lastMeta[metaLastBatch] = name
				sh.lastMeta[metaLastBatchSum] = fmt.Sprintf("%08x", sum)
				sh.metaMu.Unlock()
				return sh.saveBundle()
			}
			// Seed crash recovery from the restored bundle's metadata.
			w.LastApplied = meta[metaLastBatch]
			if s, err := strconv.ParseUint(meta[metaLastBatchSum], 16, 32); err == nil {
				w.LastAppliedSum = uint32(s)
			}
		}
		sh.watching = true
		sh.watchWG.Add(1)
		go func() {
			defer sh.watchWG.Done()
			w.Run(o.WatchInterval, sh.stopWatch)
		}()
	}

	// Finalise the handler now: the first Handler() call publishes the
	// bootstrap snapshot and starts the maintenance goroutine, and
	// doing it here keeps Router dispatch allocation-free.
	sh.handler = srv.Handler()
	return sh, nil
}

// bootstrapEngine restores the shard's state bundle (salvaging an
// interrupted save), falls back to <dir>/db.graphs, and otherwise
// starts an empty panel. Only unrecoverable corruption marks the
// shard degraded — an absent bundle on a new tenant is the normal
// cold start.
func (sh *Shard) bootstrapEngine(o *Options) (map[string]string, error) {
	statePath := filepath.Join(sh.Dir, "state", "panel.state")
	data, rep, err := store.LoadBundle(vfs.OS, statePath, midas.VerifyState)
	for _, q := range rep.Quarantined {
		o.logf("tenant %s: state salvage: quarantined %s", sh.ID, q)
	}
	sh.degraded = rep.Degraded()
	var meta map[string]string
	if err == nil {
		var eng *midas.Engine
		eng, meta, err = midas.LoadStateMeta(bytes.NewReader(data), sh.opts.Workers)
		if err == nil {
			sh.engine = eng
			return meta, nil
		}
	}
	switch {
	case errors.Is(err, store.ErrCorrupt):
		o.logf("tenant %s: state bundle unrecoverable, starting degraded: %v", sh.ID, err)
		sh.degraded = true
	case errors.Is(err, os.ErrNotExist):
	default:
		return nil, fmt.Errorf("tenant %s: %w", sh.ID, err)
	}

	db := graph.NewDatabase()
	dbPath := filepath.Join(sh.Dir, "db.graphs")
	if f, ferr := os.Open(dbPath); ferr == nil {
		graphs, rerr := graph.Read(f)
		f.Close()
		if rerr != nil {
			return nil, fmt.Errorf("tenant %s: reading %s: %w", sh.ID, dbPath, rerr)
		}
		for _, g := range graphs {
			if aerr := db.Add(g); aerr != nil {
				return nil, fmt.Errorf("tenant %s: %w", sh.ID, aerr)
			}
		}
	} else if !errors.Is(ferr, os.ErrNotExist) {
		return nil, fmt.Errorf("tenant %s: %w", sh.ID, ferr)
	}
	sh.engine = midas.New(db, sh.opts)
	return nil, nil
}

// saveBundle persists the shard's engine state generationally,
// carrying the journal reconciliation metadata forward.
func (sh *Shard) saveBundle() error {
	sh.metaMu.Lock()
	m := make(map[string]string, len(sh.lastMeta))
	for k, v := range sh.lastMeta {
		m[k] = v
	}
	sh.metaMu.Unlock()
	return store.SaveBundle(vfs.OS, sh.savePath, func(w io.Writer) error {
		return midas.SaveStateMeta(w, sh.engine, m)
	})
}

// Handler returns the shard's HTTP handler (the full single-tenant
// route table, middleware included).
func (sh *Shard) Handler() http.Handler { return sh.handler }

// Server exposes the shard's panel server (tests, bench).
func (sh *Shard) Server() *panel.Server { return sh.server }

// Engine exposes the shard's engine (bench seeding; never mutate it
// outside the pipeline).
func (sh *Shard) Engine() *midas.Engine { return sh.engine }

// Status reports the shard's health for /readyz and the admin API.
func (sh *Shard) Status() Status {
	h := sh.server.Handle()
	pipe := sh.server.Pipeline()
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
// the deadline the in-flight batch is cancelled and rolls back), the
// journal is checkpointed and closed, and the state bundle is saved
// so the final generation survives. Idempotent; later calls return
// the first outcome. After Drain the shard serves nothing — the
// Registry detaches it before draining.
func (sh *Shard) Drain(ctx context.Context) error {
	sh.drainOnce.Do(func() {
		sh.draining.Store(true)
		sh.server.SetReady(false)
		close(sh.stopWatch)
		sh.watchWG.Wait()
		if err := sh.server.Close(ctx); err != nil {
			sh.drainErr = fmt.Errorf("tenant %s: pipeline drain: %w", sh.ID, err)
		}
		if sh.journal != nil {
			if err := sh.journal.Checkpoint(); err != nil && sh.drainErr == nil {
				sh.drainErr = fmt.Errorf("tenant %s: journal checkpoint: %w", sh.ID, err)
			}
			if err := sh.journal.Close(); err != nil && sh.drainErr == nil {
				sh.drainErr = fmt.Errorf("tenant %s: journal close: %w", sh.ID, err)
			}
		}
		if sh.savePath != "" {
			if err := sh.saveBundle(); err != nil && sh.drainErr == nil {
				sh.drainErr = fmt.Errorf("tenant %s: final save: %w", sh.ID, err)
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
