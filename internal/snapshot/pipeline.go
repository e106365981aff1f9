package snapshot

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/backoff"
)

// Submission errors. ErrQueueFull is backpressure — the caller should
// surface 429/Retry-After, not block a read path. ErrStopped means the
// pipeline is draining or stopped; batches rejected or cancelled by
// shutdown carry it as their terminal error.
var (
	ErrQueueFull = errors.New("snapshot: maintenance queue full")
	ErrStopped   = errors.New("snapshot: maintenance pipeline stopped")
)

// Batch is one unit of maintenance work submitted to the pipeline.
type Batch struct {
	// Name identifies the batch in logs and poison records.
	Name string
	// Update is the Δ+/Δ- payload. Colliding insert IDs are remapped on
	// the maintenance goroutine right before application (clients often
	// renumber from zero), exactly as the serial handlers used to.
	Update graph.Update
	// Ctx, when set, bounds this batch: if it expires before or during
	// application the batch fails with the context error (the engine
	// rolls back) and is not retried. Synchronous HTTP submissions pass
	// their request context; spool batches leave it nil and run under
	// the pipeline's lifetime.
	Ctx context.Context
	// Before, when set, is the pre-apply hook: it runs on the
	// maintenance goroutine immediately before the batch is applied,
	// so it observes batches in apply order. An error fails the attempt
	// (retried like any other failure).
	Before func() error
	// After, when set, runs on the maintenance goroutine after the
	// batch applied, before the new generation is published — the
	// durability slot (persist the state bundle). An error fails the
	// attempt, but the retry re-runs only After: the batch is already
	// applied and must not be applied twice.
	After func(midas.MaintenanceReport) error
	// FromReplica marks a batch installed from a replication stream:
	// its insert IDs are applied verbatim (the primary already remapped
	// them, and the follower's database — a deterministic replay of the
	// primary's — has the same occupancy, so remapping again would
	// diverge). Admission hooks use it to distinguish replica installs
	// from client writes when fencing a follower. FromReplica batches
	// apply via Engine.ApplyReplicated — the database delta plus the
	// shipped ReplicaState — never a local re-run of the swap stage.
	FromReplica bool
	// ReplicaState is the primary's post-apply pattern state (patterns,
	// σ and the pattern-ID allocator), installed verbatim. Only read
	// when FromReplica is set.
	ReplicaState midas.PatternState
	// Engine, when set, replaces the pipeline's engine instead of
	// applying Update: a replication follower's re-bootstrap installs
	// the engine it loaded from its upstream's bundle this way, so the
	// pipeline, its handle and its metrics outlive the swap.
	Engine *midas.Engine
}

// Result is the terminal outcome of one submitted batch, delivered
// exactly once on the ticket's Done channel.
type Result struct {
	// Name echoes the batch name.
	Name string
	// Report is the maintenance report (valid when the batch applied,
	// even if a later After hook ultimately failed).
	Report midas.MaintenanceReport
	// Generation is the generation published for this batch (0 when it
	// failed, or when publishing itself failed after a successful
	// apply).
	Generation uint64
	// Applied reports whether the engine mutation committed.
	Applied bool
	// Attempts is how many attempts were made.
	Attempts int
	// Err is the terminal error (nil on success).
	Err error
	// Poisoned marks a batch parked after exhausting its retry budget
	// on retryable errors. Non-retryable rejections (invalid updates,
	// expired contexts, shutdown) are not poisoned.
	Poisoned bool
}

// Ticket is the caller's handle on a submitted batch.
type Ticket struct {
	// Position is the batch's 1-based position in the pipeline at
	// submission time (1 = next to run, counting the in-flight batch).
	Position int
	// Done delivers the terminal Result exactly once. The channel is
	// buffered: the pipeline never blocks on an absent reader.
	Done <-chan Result
}

// PoisonRecord describes one parked batch.
type PoisonRecord struct {
	Name     string
	Attempts int
	Err      error
	At       time.Time
}

// Config parameterises a Pipeline. The zero value is usable.
type Config struct {
	// QueueSize bounds the number of queued batches (excluding the
	// in-flight one); submissions beyond it get ErrQueueFull. 0 = 64.
	QueueSize int
	// MaxAttempts is the retry budget per batch for retryable failures
	// (0 = 3). Attempt n+1 waits a capped exponential backoff after
	// attempt n fails.
	MaxAttempts int
	// Backoff seeds the retry schedule: capped exponential growth per
	// consecutive failure (32× cap) plus a deterministic per-batch
	// jitter — the spool watcher's PR 4 discipline. 0 = retry
	// immediately.
	Backoff time.Duration
	// RenderSVG pre-renders pattern views into published snapshots.
	RenderSVG func(*graph.Graph) string
	// Degraded marks published snapshots as serving degraded state
	// (set when the process started from salvage).
	Degraded bool
	// Admit, when set, is consulted on the maintenance goroutine before
	// a batch's first attempt. A non-nil error rejects the batch
	// terminally — no retry, no poison record — with that error as the
	// result. It is the role-fencing seam: a follower's pipeline rejects
	// client writes (batches without FromReplica) while its replication
	// stream keeps flowing, and a demoted primary rejects everything
	// that has not shipped.
	Admit func(Batch) error
	// OnApplied, when set, runs on the maintenance goroutine after a
	// batch's After hook succeeds and before the new generation is
	// published — the replication commit slot. It observes the batch
	// exactly as applied (Update carries post-remap insert IDs) plus the
	// maintenance report; a primary encodes and appends the record to
	// its replication log here, so log order equals apply order by
	// construction. An error fails the attempt; the retry re-runs only
	// After and OnApplied (the engine mutation is already committed), so
	// the hook must be idempotent.
	OnApplied func(Batch, midas.MaintenanceReport) error
	// Gate, when set, is acquired on the maintenance goroutine before a
	// batch's first attempt and released once the batch is terminal. It
	// is the shared-worker-budget seam for multi-tenant serving: a
	// weighted semaphore here keeps one shard's major batch from
	// starving every other shard of maintenance workers. The returned
	// func releases the acquisition; an error fails the batch without
	// retrying (the queue slot is consumed, the engine untouched).
	Gate func(ctx context.Context) (func(), error)
	// Logf, when set, receives diagnostic lines.
	Logf func(format string, args ...interface{})
	// Now and Sleep replace the wall clock for tests. Sleep must return
	// false when interrupted by shutdown.
	Now   func() time.Time
	Sleep func(d time.Duration) bool
}

// Pipeline is the async maintenance pipeline: a bounded queue drained
// by one background goroutine that owns every engine mutation. Each
// successful batch publishes the next snapshot generation; failures
// roll back (the engine's transactional Maintain), are retried with
// capped exponential backoff, and are parked as poisoned once the
// budget is spent — through all of which readers keep loading the last
// good generation.
type Pipeline struct {
	// eng is the engine batches apply to; only a Batch.Engine swap on
	// the maintenance goroutine replaces it.
	eng    atomic.Pointer[midas.Engine]
	handle *Handle
	cfg    Config

	queue   chan *job
	drainCh chan struct{}
	doneCh  chan struct{}

	rootCtx    context.Context
	rootCancel context.CancelFunc

	mu      sync.Mutex
	started bool
	stopped bool
	// pending holds the enqueue instant of every batch not yet
	// terminal (queued + in-flight), FIFO.
	pending []time.Time

	// oldestNanos mirrors pending's head as unix nanoseconds (0 =
	// idle) so Staleness is a single atomic load on read paths.
	oldestNanos atomic.Int64
	depth       atomic.Int64
	retries     atomic.Uint64
	applied     atomic.Uint64

	// ewmaNanos tracks an exponentially weighted moving average of
	// batch wall time (enqueue wait excluded), in nanoseconds. 0 = no
	// batch has completed yet. Admission control reads it to size
	// Retry-After hints proportionally to observed batch cost.
	ewmaNanos atomic.Int64

	poisonMu sync.Mutex
	poisoned []PoisonRecord

	tel *pipelineTelemetry
}

type job struct {
	batch      Batch
	done       chan Result
	enqueuedAt time.Time
	attempts   int
	appliedOK  bool
	rep        midas.MaintenanceReport
}

// NewPipeline builds a pipeline over eng publishing through handle.
// Call Start before submitting.
func NewPipeline(eng *midas.Engine, handle *Handle, cfg Config) *Pipeline {
	size := cfg.QueueSize
	if size <= 0 {
		size = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pipeline{
		handle:     handle,
		cfg:        cfg,
		queue:      make(chan *job, size),
		drainCh:    make(chan struct{}),
		doneCh:     make(chan struct{}),
		rootCtx:    ctx,
		rootCancel: cancel,
	}
	p.eng.Store(eng)
	return p
}

// Handle returns the generation pointer this pipeline publishes to.
func (p *Pipeline) Handle() *Handle { return p.handle }

// Engine returns the engine batches apply to. Read its state only
// while no batch is in flight (from a hook on the maintenance
// goroutine, or while every producer is quiesced).
func (p *Pipeline) Engine() *midas.Engine { return p.eng.Load() }

func (p *Pipeline) maxAttempts() int {
	if p.cfg.MaxAttempts <= 0 {
		return 3
	}
	return p.cfg.MaxAttempts
}

func (p *Pipeline) now() time.Time {
	if p.cfg.Now != nil {
		return p.cfg.Now()
	}
	return time.Now()
}

func (p *Pipeline) logf(format string, args ...interface{}) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// sleep waits d or until shutdown; reports false when interrupted.
func (p *Pipeline) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	if p.cfg.Sleep != nil {
		return p.cfg.Sleep(d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.rootCtx.Done():
		return false
	}
}

// Start launches the maintenance goroutine. Idempotent.
func (p *Pipeline) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started || p.stopped {
		return
	}
	p.started = true
	go p.run()
}

// Stop drains the pipeline: no new submissions are accepted, queued
// batches are applied normally until ctx expires, after which the
// in-flight batch is cancelled (rolling back cleanly) and the rest are
// flushed with ErrStopped. It returns ctx.Err() when the drain was cut
// short, nil on a clean drain. Safe to call more than once.
func (p *Pipeline) Stop(ctx context.Context) error {
	p.mu.Lock()
	started := p.started
	if !p.stopped {
		p.stopped = true
		close(p.drainCh)
	}
	p.mu.Unlock()
	if !started {
		// Never ran: flush whatever was queued so waiters unblock.
		p.rootCancel()
		for {
			select {
			case j := <-p.queue:
				p.finish(j, Result{Name: j.batch.Name, Attempts: j.attempts, Err: ErrStopped})
			default:
				close(p.doneCh)
				return nil
			}
		}
	}
	select {
	case <-p.doneCh:
		return nil
	case <-ctx.Done():
		p.logf("snapshot: drain deadline expired; cancelling in-flight batch")
		p.rootCancel()
		<-p.doneCh
		return ctx.Err()
	}
}

// Submit enqueues a batch. It never blocks: a full queue returns
// ErrQueueFull (backpressure for the caller to surface), a stopped
// pipeline ErrStopped.
func (p *Pipeline) Submit(b Batch) (Ticket, error) {
	j := &job{batch: b, done: make(chan Result, 1), enqueuedAt: p.now()}
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return Ticket{}, ErrStopped
	}
	select {
	case p.queue <- j:
	default:
		p.mu.Unlock()
		return Ticket{}, ErrQueueFull
	}
	p.pending = append(p.pending, j.enqueuedAt)
	pos := len(p.pending)
	p.oldestNanos.Store(p.pending[0].UnixNano())
	p.depth.Store(int64(pos))
	p.mu.Unlock()
	return Ticket{Position: pos, Done: j.done}, nil
}

// Depth returns the number of non-terminal batches (queued plus
// in-flight).
func (p *Pipeline) Depth() int { return int(p.depth.Load()) }

// Staleness is how far the published snapshot lags behind submitted
// work: the age of the oldest batch not yet terminal, or 0 when the
// pipeline is idle (an idle panel is current, not stale).
func (p *Pipeline) Staleness() time.Duration {
	ns := p.oldestNanos.Load()
	if ns == 0 {
		return 0
	}
	d := p.now().Sub(time.Unix(0, ns))
	if d < 0 {
		return 0
	}
	return d
}

// BatchEWMA returns the moving average of successful batch wall time
// (first attempt through publish, retries included), or 0 before any
// batch completes. Admission control multiplies it by queue depth to
// produce proportional Retry-After hints.
func (p *Pipeline) BatchEWMA() time.Duration {
	return time.Duration(p.ewmaNanos.Load())
}

// observeBatchDuration folds one completed batch into the EWMA. The
// single-consumer loop is the only writer; α=0.3 follows recent
// batches quickly without letting one outlier own the estimate.
func (p *Pipeline) observeBatchDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	old := p.ewmaNanos.Load()
	if old == 0 {
		p.ewmaNanos.Store(int64(d))
		return
	}
	p.ewmaNanos.Store(old + (int64(d)-old)*3/10)
}

// Retries returns the total retry attempts performed.
func (p *Pipeline) Retries() uint64 { return p.retries.Load() }

// Applied returns the total successfully applied batches.
func (p *Pipeline) Applied() uint64 { return p.applied.Load() }

// Poisoned returns the parked batches, oldest first.
func (p *Pipeline) Poisoned() []PoisonRecord {
	p.poisonMu.Lock()
	defer p.poisonMu.Unlock()
	out := make([]PoisonRecord, len(p.poisoned))
	copy(out, p.poisoned)
	return out
}

// run is the maintenance goroutine: the single owner of every engine
// mutation and snapshot publish.
func (p *Pipeline) run() {
	defer close(p.doneCh)
	for {
		select {
		case j := <-p.queue:
			p.process(j)
		case <-p.drainCh:
			for {
				select {
				case j := <-p.queue:
					p.process(j)
				default:
					return
				}
			}
		}
	}
}

// process drives one batch to its terminal state: attempt → retry with
// backoff → publish on success or park on exhaustion.
func (p *Pipeline) process(j *job) {
	ctx, cancel := p.batchCtx(j.batch)
	defer cancel()
	if p.cfg.Admit != nil {
		if err := p.cfg.Admit(j.batch); err != nil {
			if p.tel != nil {
				p.tel.batches.With("rejected").Inc()
			}
			p.finish(j, Result{Name: j.batch.Name, Attempts: j.attempts, Err: err})
			return
		}
	}
	if p.cfg.Gate != nil {
		release, err := p.cfg.Gate(ctx)
		if err != nil {
			if p.tel != nil {
				p.tel.batches.With("rejected").Inc()
			}
			p.finish(j, Result{Name: j.batch.Name, Attempts: j.attempts, Err: err})
			return
		}
		defer release()
	}
	started := p.now()
	for {
		j.attempts++
		err := p.attempt(ctx, j)
		if err == nil {
			gen := p.publish(j)
			p.applied.Add(1)
			p.observeBatchDuration(p.now().Sub(started))
			if p.tel != nil {
				p.tel.batches.With("applied").Inc()
			}
			p.finish(j, Result{
				Name: j.batch.Name, Report: j.rep, Generation: gen,
				Applied: true, Attempts: j.attempts,
			})
			return
		}
		if !retryable(err) {
			if p.tel != nil {
				p.tel.batches.With("rejected").Inc()
			}
			p.finish(j, Result{
				Name: j.batch.Name, Report: j.rep, Applied: j.appliedOK,
				Attempts: j.attempts, Err: err,
			})
			return
		}
		if j.attempts >= p.maxAttempts() {
			p.park(j, err)
			return
		}
		p.retries.Add(1)
		if p.tel != nil {
			p.tel.retries.Inc()
		}
		d := p.retryDelay(j.batch.Name, j.attempts)
		p.logf("snapshot: batch %s attempt %d failed (%v); retrying in %v", j.batch.Name, j.attempts, err, d)
		if !p.sleep(d) {
			p.finish(j, Result{
				Name: j.batch.Name, Report: j.rep, Applied: j.appliedOK,
				Attempts: j.attempts, Err: ErrStopped,
			})
			return
		}
	}
}

// batchCtx derives the context one batch applies under: its own (when
// set) so deadlines interrupt it, additionally cancelled by a hard
// pipeline stop.
func (p *Pipeline) batchCtx(b Batch) (context.Context, context.CancelFunc) {
	if b.Ctx == nil {
		return p.rootCtx, func() {}
	}
	ctx, cancel := context.WithCancel(b.Ctx)
	unhook := context.AfterFunc(p.rootCtx, cancel)
	return ctx, func() { unhook(); cancel() }
}

// attempt runs one try of the batch. Panics anywhere in the hooks or
// the engine are captured as errors: the engine's own Maintain already
// restores its pre-batch state on panic, so a panicking batch is just a
// failed batch and readers never notice. A batch whose apply already
// committed (appliedOK) only re-runs its After hook — applying twice
// would double the update.
func (p *Pipeline) attempt(ctx context.Context, j *job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("snapshot: batch %s panicked: %v", j.batch.Name, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	if !j.appliedOK {
		if j.batch.Before != nil {
			if err := j.batch.Before(); err != nil {
				return err
			}
		}
		var rep midas.MaintenanceReport
		var err error
		switch {
		case j.batch.Engine != nil:
			p.eng.Store(j.batch.Engine)
		case j.batch.FromReplica:
			rep, err = p.Engine().ApplyReplicated(ctx, j.batch.Update, j.batch.ReplicaState)
		default:
			p.remapInsertIDs(j.batch.Update)
			rep, err = p.Engine().MaintainContext(ctx, j.batch.Update)
		}
		if err != nil {
			return err
		}
		j.appliedOK = true
		j.rep = rep
	}
	if j.batch.After != nil {
		if err := j.batch.After(j.rep); err != nil {
			return err
		}
	}
	if p.cfg.OnApplied != nil {
		if err := p.cfg.OnApplied(j.batch, j.rep); err != nil {
			return err
		}
	}
	return nil
}

// remapInsertIDs renumbers colliding insert IDs against the live
// database — the policy the serial HTTP handler and the spool watcher
// both applied, now centralised on the one goroutine allowed to read
// the engine's database. Idempotent across retries: a rolled-back
// attempt restores the database, so the same collisions resolve the
// same way.
func (p *Pipeline) remapInsertIDs(u graph.Update) {
	db := p.Engine().DB()
	next := db.NextID()
	for _, g := range u.Insert {
		if db.Has(g.ID) {
			g.ID = next
			next++
		}
	}
}

// publish builds and swaps in the next generation. The engine state is
// committed at this point; a failure here (it would take a bug in the
// read-only view export) keeps readers on the previous generation and
// is logged rather than failing the batch.
func (p *Pipeline) publish(j *job) (gen uint64) {
	defer func() {
		if r := recover(); r != nil {
			p.logf("snapshot: publishing generation after batch %s panicked: %v; readers stay on generation %d",
				j.batch.Name, r, p.handle.Generation())
			gen = 0
		}
	}()
	if p.tel != nil {
		defer p.tel.publishSeconds.Start().End()
	}
	s := Build(p.Engine(), BuildOptions{
		RenderSVG: p.cfg.RenderSVG,
		Degraded:  p.cfg.Degraded,
		Report:    j.rep,
	})
	return p.handle.Publish(s)
}

// park records a poisoned batch and reports its terminal failure.
func (p *Pipeline) park(j *job, cause error) {
	rec := PoisonRecord{Name: j.batch.Name, Attempts: j.attempts, Err: cause, At: p.now()}
	p.poisonMu.Lock()
	p.poisoned = append(p.poisoned, rec)
	p.poisonMu.Unlock()
	if p.tel != nil {
		p.tel.batches.With("poisoned").Inc()
	}
	p.logf("snapshot: batch %s poisoned after %d attempts: %v", j.batch.Name, j.attempts, cause)
	p.finish(j, Result{
		Name: j.batch.Name, Report: j.rep, Applied: j.appliedOK,
		Attempts: j.attempts, Err: cause, Poisoned: true,
	})
}

// finish retires a job: pops its pending slot (refreshing the
// staleness mirror) and delivers the terminal result.
func (p *Pipeline) finish(j *job, res Result) {
	p.mu.Lock()
	if len(p.pending) > 0 {
		p.pending = p.pending[1:]
	}
	if len(p.pending) == 0 {
		p.oldestNanos.Store(0)
	} else {
		p.oldestNanos.Store(p.pending[0].UnixNano())
	}
	p.depth.Store(int64(len(p.pending)))
	p.mu.Unlock()
	j.done <- res
}

// retryable classifies terminal-vs-transient failures: invalid updates
// can never succeed (ErrConflict wraps ErrInvalidUpdate), and expired
// or cancelled contexts mean the caller or shutdown withdrew the work.
// Everything else — injected faults, I/O errors from hooks, captured
// panics — gets the retry budget.
func retryable(err error) bool {
	switch {
	case errors.Is(err, midas.ErrInvalidUpdate),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, ErrStopped):
		return false
	}
	return true
}

// retryDelay is the backoff before the batch's next attempt: the
// shared capped-exponential schedule with deterministic per-batch
// jitter (internal/backoff), a pure function of (name, attempt) so
// recovery behaviour is reproducible.
func (p *Pipeline) retryDelay(name string, attempt int) time.Duration {
	return backoff.Delay(p.cfg.Backoff, name, attempt)
}
