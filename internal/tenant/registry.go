package tenant

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/snapshot"
	"github.com/midas-graph/midas/internal/telemetry"
)

// Registry lifecycle errors.
var (
	// ErrUnknown names a tenant the registry does not serve.
	ErrUnknown = errors.New("tenant: unknown tenant")
	// ErrExists rejects adding a tenant that is already serving (or
	// mid-cold-start).
	ErrExists = errors.New("tenant: already exists")
	// ErrMisplaced rejects a tenant whose Placement slot is not this
	// process.
	ErrMisplaced = errors.New("tenant: placed on another slot")
)

// Options configures a Registry: the process-wide defaults every shard
// starts from. The zero value is usable for in-memory serving when a
// NewEngine hook is set. OpenShard takes the same struct as one
// shard's final settings.
type Options struct {
	// Root is the tenants directory. When set, each shard lives on disk
	// in Root/<id>/{state,spool} (plus an optional db.graphs to
	// bootstrap from); when empty, shards live in memory.
	Root string
	// Engine is the default engine configuration; manifest overrides
	// refine it per tenant.
	Engine midas.Options
	// RequestTimeout bounds each shard request (0 = none).
	RequestTimeout time.Duration
	// MaxInflight is the default per-shard heavy-request bound (0 =
	// unbounded).
	MaxInflight int
	// QueueSize is the default per-shard maintenance queue bound (0 =
	// pipeline default).
	QueueSize int
	// Retries and Backoff set each shard's batch retry discipline.
	Retries int
	Backoff time.Duration
	// WatchInterval is the spool polling interval.
	WatchInterval time.Duration
	// Budget, when set, is the shared maintenance-worker budget every
	// shard's pipeline gate acquires from.
	Budget *Budget
	// Telemetry, when set, receives every shard's metric families
	// through a per-tenant label view, plus the registry-level gauges.
	Telemetry *telemetry.Registry
	// Logger receives shard lifecycle diagnostics.
	Logger *telemetry.Logger
	// Placement, with Slot, scopes this process to its share of the
	// tenant space: Add refuses tenants whose ring slot differs.
	Placement *Placement
	Slot      int
	// NewEngine, when set, builds the engine of a shard with no bundle
	// to restore and no database to bootstrap (tests and bench build
	// engines in memory). It returns the engine and whether it starts
	// degraded. Registry.Add defaults it to an empty database: a new
	// tenant starts as an empty panel its spool or POST /maintain
	// populates.
	NewEngine func(id string, opts midas.Options) (*midas.Engine, bool, error)
	// Admit, when set, is the shard pipeline's admission hook
	// (snapshot.Config.Admit): a replicated node fences client writes
	// with it while it is a follower or a demoted primary.
	Admit func(snapshot.Batch) error
	// Commit, when set, runs on the maintenance goroutine after each
	// applied batch, before its bundle save, and the metadata it returns
	// is merged into the bundle's: a replication primary appends the
	// batch to its log here and returns the new position. A failed save
	// re-runs it, so it must be idempotent.
	Commit func(snapshot.Batch) (map[string]string, error)
}

// shardOptions merges a tenant's overrides over the process defaults,
// scopes telemetry to the tenant's label view, and defaults NewEngine
// to an empty database.
func (r *Registry) shardOptions(id string, ov Overrides) Options {
	o := r.opts
	o.Engine = o.engineOptions(ov)
	o.MaxInflight = intOr(ov.MaxInflight, o.MaxInflight)
	o.QueueSize = intOr(ov.QueueSize, o.QueueSize)
	if o.Telemetry != nil {
		o.Telemetry = o.Telemetry.WithLabels("tenant", id)
	}
	if o.NewEngine == nil {
		o.NewEngine = func(_ string, opts midas.Options) (*midas.Engine, bool, error) {
			return midas.New(graph.NewDatabase(), opts), false, nil
		}
	}
	return o
}

// paths lays a tenant out under Root/<id>, creating its state and
// spool directories; <id>/db.graphs seeds a first start when present.
// Without Root the shard lives in memory.
func (r *Registry) paths(id string) (Paths, error) {
	if r.opts.Root == "" {
		return Paths{}, nil
	}
	dir := filepath.Join(r.opts.Root, id)
	for _, sub := range []string{"state", "spool"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return Paths{}, fmt.Errorf("tenant %s: %w", id, err)
		}
	}
	bundle := filepath.Join(dir, "state", "panel.state")
	p := Paths{
		Restore: bundle,
		Save:    bundle,
		Spool:   filepath.Join(dir, "spool"),
	}
	// Any stat error but absence leaves DB set, so opening it reports
	// the error.
	db := filepath.Join(dir, "db.graphs")
	if _, err := os.Stat(db); !errors.Is(err, os.ErrNotExist) {
		p.DB = db
	}
	return p, nil
}

// engineOptions merges a tenant's overrides over the process defaults.
func (o *Options) engineOptions(ov Overrides) midas.Options {
	opts := o.Engine
	if ov.Gamma != nil {
		opts.Budget.Count = *ov.Gamma
	}
	if ov.MinSize != nil {
		opts.Budget.MinSize = *ov.MinSize
	}
	if ov.MaxSize != nil {
		opts.Budget.MaxSize = *ov.MaxSize
	}
	if ov.SupMin != nil {
		opts.SupMin = *ov.SupMin
	}
	if ov.Epsilon != nil {
		opts.Epsilon = *ov.Epsilon
	}
	if ov.Seed != nil {
		opts.Seed = *ov.Seed
	}
	if ov.Workers != nil {
		opts.Workers = *ov.Workers
	}
	return opts
}

func (o *Options) logf(format string, args ...interface{}) {
	if o.Logger != nil {
		o.Logger.Infof(format, args...)
	}
}

// Registry keys shards by dataset ID. Lookups are RLock-cheap; adds
// build the shard entirely outside the lock (a cold start loads
// bundles and bootstraps engines — unbounded work that must not block
// request routing), holding a reservation so concurrent adds of the
// same ID conflict cleanly.
type Registry struct {
	opts Options

	mu       sync.RWMutex
	shards   map[string]*Shard
	reserved map[string]bool
}

// NewRegistry builds an empty registry and, when telemetry is
// configured, registers the registry-level gauges (shard count and
// shared-budget occupancy).
func NewRegistry(opts Options) *Registry {
	if opts.WatchInterval <= 0 {
		opts.WatchInterval = time.Minute
	}
	r := &Registry{
		opts:     opts,
		shards:   make(map[string]*Shard),
		reserved: make(map[string]bool),
	}
	if reg := opts.Telemetry; reg != nil {
		reg.NewGaugeFunc("midas_tenants",
			"Tenant shards currently attached to the registry.",
			func() float64 { return float64(r.Len()) })
		if b := opts.Budget; b != nil {
			reg.NewGaugeFunc("midas_tenant_budget_capacity_workers",
				"Total maintenance worker slots shared across tenant shards.",
				func() float64 { return float64(b.Capacity()) })
			reg.NewGaugeFunc("midas_tenant_budget_used_workers",
				"Maintenance worker slots currently held by running batches.",
				func() float64 { return float64(b.InUse()) })
			reg.NewGaugeFunc("midas_tenant_budget_queued_batches",
				"Maintenance batches waiting for shared worker slots.",
				func() float64 { return float64(b.Waiting()) })
		}
	}
	return r
}

// Options returns the registry's process-wide defaults.
func (r *Registry) Options() Options { return r.opts }

// Len returns the number of attached shards.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.shards)
}

// Get resolves a tenant ID to its shard.
func (r *Registry) Get(id string) (*Shard, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sh, ok := r.shards[id]
	return sh, ok
}

// IDs returns the attached tenant IDs, sorted.
func (r *Registry) IDs() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.shards))
	for id := range r.shards {
		out = append(out, id)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Shards returns the attached shards, sorted by ID.
func (r *Registry) Shards() []*Shard {
	r.mu.RLock()
	out := make([]*Shard, 0, len(r.shards))
	for _, sh := range r.shards {
		out = append(out, sh)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Statuses returns every shard's health line, sorted by ID.
func (r *Registry) Statuses() []Status {
	shards := r.Shards()
	out := make([]Status, len(shards))
	for i, sh := range shards {
		out[i] = sh.Status()
	}
	return out
}

// Add cold-starts a tenant and attaches it. The build runs outside
// the registry lock — other tenants keep serving while this one loads
// its bundle and bootstraps — with the ID reserved so a concurrent
// Add of the same tenant gets ErrExists, not a second engine.
func (r *Registry) Add(id string, ov Overrides) (*Shard, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	if p := r.opts.Placement; p != nil && p.Slot(id) != r.opts.Slot {
		return nil, fmt.Errorf("%w: tenant %s belongs to slot %d, this process is slot %d",
			ErrMisplaced, id, p.Slot(id), r.opts.Slot)
	}
	r.mu.Lock()
	if _, ok := r.shards[id]; ok || r.reserved[id] {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	r.reserved[id] = true
	r.mu.Unlock()

	p, err := r.paths(id)
	var sh *Shard
	if err == nil {
		sh, err = OpenShard(id, p, r.shardOptions(id, ov))
	}

	r.mu.Lock()
	delete(r.reserved, id)
	if err == nil {
		r.shards[id] = sh
	}
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	r.opts.logf("tenant %s: attached (%d graphs, %d patterns)", id, sh.Engine().DB().Len(), len(sh.Engine().Patterns()))
	return sh, nil
}

// Remove detaches a tenant and drains it: the shard disappears from
// routing first (new requests get 404), then finishes queued work and
// saves its final state under ctx's deadline. Other shards are untouched throughout.
func (r *Registry) Remove(ctx context.Context, id string) error {
	r.mu.Lock()
	sh, ok := r.shards[id]
	if ok {
		delete(r.shards, id)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknown, id)
	}
	err := sh.Drain(ctx)
	if err == nil {
		r.opts.logf("tenant %s: drained and detached", id)
	}
	return err
}

// DrainAll detaches and drains every shard concurrently (process
// shutdown). The first error is returned; all shards drain regardless.
func (r *Registry) DrainAll(ctx context.Context) error {
	r.mu.Lock()
	shards := make([]*Shard, 0, len(r.shards))
	for _, sh := range r.shards {
		shards = append(shards, sh)
	}
	r.shards = make(map[string]*Shard)
	r.mu.Unlock()
	// Drains run concurrently so order does not affect the outcome, but
	// deterministic launch order keeps the drain logs reproducible.
	sort.Slice(shards, func(i, j int) bool { return shards[i].ID < shards[j].ID })

	errCh := make(chan error, len(shards))
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			errCh <- sh.Drain(ctx)
		}(sh)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	return nil
}
