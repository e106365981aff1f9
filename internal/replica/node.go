package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/backoff"
	"github.com/midas-graph/midas/internal/snapshot"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/telemetry"
	"github.com/midas-graph/midas/internal/vfs"
)

// Role is a node's current replication role.
type Role int32

const (
	// RolePrimary accepts client writes and ships its log to peers.
	RolePrimary Role = iota
	// RoleFollower re-applies the primary's stream and serves reads.
	RoleFollower
)

func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "follower"
}

// notPrimaryError rejects client writes on a node that is not the
// primary. It carries its HTTP mapping (503 — the client should retry
// against the primary) so the panel layer can translate it without
// importing this package.
type notPrimaryError struct{}

func (notPrimaryError) Error() string   { return "replica: not the primary; writes are fenced" }
func (notPrimaryError) HTTPStatus() int { return http.StatusServiceUnavailable }

// ErrNotPrimary is returned to writes submitted to a follower or a
// demoted primary.
var ErrNotPrimary error = notPrimaryError{}

// ErrDiverged marks a follower whose recomputed state fingerprint
// disagreed with the primary's for the same LSN. The follower
// quarantines its state and re-bootstraps; the record's source sees
// this error.
var ErrDiverged = errors.New("replica: state fingerprint diverged from primary")

// ParkedRecord is a committed-but-unshipped log record stranded by a
// demotion: the old primary accepted it, no follower acknowledged it,
// and the new epoch's history does not contain it. It is parked —
// surfaced for operators to replay or discard — never silently
// dropped.
type ParkedRecord struct {
	LSN   uint64
	Epoch uint64
	Name  string
	At    time.Time
}

// Config parameterises a Node.
type Config struct {
	// FS is the filesystem seam (vfs.OS in production).
	FS vfs.FS
	// Dir holds the node's durable state: state.bundle (+ .prev/.tmp
	// generations) and replication.log.
	Dir string
	// Options are the node's engine options. Engines loaded from a
	// bundle (local, upstream or re-bootstrap) take every option but
	// Workers from its header and are rebuilt at Options.Workers.
	// Bundles and fingerprints record Workers as 0, so the nodes of one
	// pair may run different worker counts.
	Options midas.Options
	// Bootstrap builds the initial engine when a primary cold-starts
	// with no bundle. Followers bootstrap from the upstream bundle
	// instead.
	Bootstrap func() (*midas.Engine, error)
	// Upstream, when set, starts the node as a follower of that peer.
	Upstream Transport
	// PrimaryURL is the advertised primary address, surfaced to clients
	// whose writes are rejected (X-Midas-Primary) and in status.
	PrimaryURL string
	// Peers are the followers a primary ships to, keyed by a stable
	// name (used for backoff jitter and metrics).
	Peers map[string]Transport

	// QueueSize, MaxAttempts and Backoff parameterise the node's
	// snapshot pipeline exactly as panel.Server's knobs do.
	QueueSize   int
	MaxAttempts int
	Backoff     time.Duration
	// ShipBackoff seeds the replication loops' retry schedule
	// (capped exponential with deterministic jitter; default 50ms).
	ShipBackoff time.Duration
	// PollInterval is the follower's pull cadence when the push stream
	// is quiet (default 250ms).
	PollInterval time.Duration
	// ShipMax bounds records per push or pull (default 64).
	ShipMax int

	// RenderSVG pre-renders pattern views in published snapshots.
	RenderSVG func(*graph.Graph) string
	// Telemetry registers the node's metric families when set.
	Telemetry *telemetry.Registry
	// Logf receives diagnostic lines.
	Logf func(format string, args ...interface{})
}

// Node is one replicated serving stack: the engine, its snapshot
// handle and maintenance pipeline, and the replication log, in either
// role. The handle outlives engine swaps (its generation counter is
// monotonic), so readers never observe a reset even across follower
// re-bootstraps.
type Node struct {
	cfg  Config
	fsys vfs.FS

	bundlePath string
	logPath    string

	handle *snapshot.Handle

	// mu guards the swappable pointers (eng, pipe, log) and parked.
	mu   sync.RWMutex
	eng  *midas.Engine
	pipe *snapshot.Pipeline
	log  *store.RepLog

	// applyMu serialises everything that mutates engine state outside
	// the pipeline's own goroutine: record installs, promotion,
	// re-bootstrap. While held, the pipeline is quiesced between
	// submissions, so reading the engine (fingerprints, bundle saves)
	// is race-free.
	applyMu sync.Mutex

	role        atomic.Int32
	epoch       atomic.Uint64
	lastApplied atomic.Uint64
	// lastSyncNanos is the last instant a follower knew it was caught
	// up with (or had just received from) its upstream; Lag measures
	// from it. 0 until first contact.
	lastSyncNanos atomic.Int64

	parked []ParkedRecord

	// shipper ack positions, keyed by peer name.
	ackMu sync.Mutex
	acked map[string]uint64

	runCtx  context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started bool

	tel *nodeTelemetry
}

// NewNode builds a node; call Start to bootstrap and begin serving.
func NewNode(cfg Config) *Node {
	if cfg.FS == nil {
		cfg.FS = vfs.OS
	}
	if cfg.ShipBackoff <= 0 {
		cfg.ShipBackoff = 50 * time.Millisecond
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	if cfg.ShipMax <= 0 {
		cfg.ShipMax = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		cfg:        cfg,
		fsys:       cfg.FS,
		bundlePath: filepath.Join(cfg.Dir, "state.bundle"),
		logPath:    filepath.Join(cfg.Dir, "replication.log"),
		handle:     snapshot.NewHandle(),
		acked:      make(map[string]uint64),
		runCtx:     ctx,
		cancel:     cancel,
	}
	if cfg.Upstream != nil {
		n.role.Store(int32(RoleFollower))
	}
	n.setTelemetry(cfg.Telemetry)
	return n
}

func (n *Node) logf(format string, args ...interface{}) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Role returns the node's current role.
func (n *Node) Role() Role { return Role(n.role.Load()) }

// Epoch returns the node's current primacy epoch.
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// LastLSN returns the node's applied replication position.
func (n *Node) LastLSN() uint64 { return n.lastApplied.Load() }

// FirstLSN returns the earliest LSN retained in the node's log — the
// bootstrap seed position on a follower, 1 on an uncompacted primary.
// The log pointer is copied out under mu so the (log-internal) read
// does not run inside the node's lock.
func (n *Node) FirstLSN() uint64 {
	n.mu.RLock()
	log := n.log
	n.mu.RUnlock()
	if log == nil {
		return 0
	}
	return log.FirstLSN()
}

// Lag is the follower's replication lag: how long since it last knew
// itself in sync with its upstream. A primary (or a follower that has
// never reached its upstream) reports 0.
func (n *Node) Lag() time.Duration {
	ns := n.lastSyncNanos.Load()
	if ns == 0 || n.Role() == RolePrimary {
		return 0
	}
	d := time.Since(time.Unix(0, ns))
	if d < 0 {
		return 0
	}
	return d
}

// PrimaryURL is the advertised primary address for write redirection.
func (n *Node) PrimaryURL() string { return n.cfg.PrimaryURL }

// Handle returns the snapshot generation pointer read handlers load.
func (n *Node) Handle() *snapshot.Handle { return n.handle }

// Pipeline returns the node's current maintenance pipeline. The
// pointer changes across follower re-bootstraps; callers must re-fetch
// rather than cache.
func (n *Node) Pipeline() *snapshot.Pipeline {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.pipe
}

// Parked returns the records stranded by demotions, oldest first.
func (n *Node) Parked() []ParkedRecord {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]ParkedRecord, len(n.parked))
	copy(out, n.parked)
	return out
}

// Start bootstraps the node — load or fetch state, open the
// replication log, replay the unapplied suffix, publish the first
// snapshot — and launches the replication goroutines. ctx bounds only
// the bootstrap (a follower's bundle fetch); the running node is
// stopped with Stop.
func (n *Node) Start(ctx context.Context) error {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return nil
	}
	n.started = true
	n.mu.Unlock()

	eng, log, lsn, epoch, err := n.bootstrap(ctx)
	if err != nil {
		return err
	}
	pipe := n.buildPipeline(eng, log)

	n.mu.Lock()
	n.eng, n.log, n.pipe = eng, log, pipe
	n.mu.Unlock()
	n.lastApplied.Store(lsn)
	n.epoch.Store(epoch)

	n.handle.Publish(snapshot.Build(eng, snapshot.BuildOptions{
		RenderSVG: n.cfg.RenderSVG,
	}))
	pipe.Start()

	if n.cfg.Upstream != nil {
		n.wg.Add(1)
		go n.pullLoop()
	}
	for name, tr := range n.cfg.Peers {
		n.wg.Add(1)
		go n.shipLoop(name, tr)
	}
	return nil
}

// Stop terminates the replication goroutines and drains the pipeline.
func (n *Node) Stop(ctx context.Context) error {
	n.cancel()
	n.wg.Wait()
	n.mu.RLock()
	pipe, log := n.pipe, n.log
	n.mu.RUnlock()
	var err error
	if pipe != nil {
		err = pipe.Stop(ctx)
	}
	if log != nil {
		if cerr := log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// bootstrap restores or fetches the node's state and returns the
// engine, open log and applied position. The sequence is identical for
// crash recovery and first start:
//
//  1. open the replication log (salvaging a torn tail),
//  2. load the newest valid bundle generation (salvage ladder), or —
//     follower with no local state — fetch and install the upstream's
//     bundle,
//  3. replay the log suffix past the bundle's position through the
//     engine, verifying each record's fingerprint.
func (n *Node) bootstrap(ctx context.Context) (*midas.Engine, *store.RepLog, uint64, uint64, error) {
	log, err := store.OpenRepLogFS(n.fsys, n.logPath)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if s := log.Salvage(); s.TailBytes > 0 {
		n.logf("replica: salvaged replication log: %d torn bytes quarantined to %s", s.TailBytes, s.QuarantinePath)
	}

	data, _, lerr := store.LoadBundle(n.fsys, n.bundlePath, midas.VerifyState)
	switch {
	case lerr == nil:
		eng, meta, err := midas.LoadStateMeta(byteReader(data), n.cfg.Options.Workers)
		if err != nil {
			log.Close()
			return nil, nil, 0, 0, fmt.Errorf("replica: loading bundle: %w", err)
		}
		lsn, epoch := positionFromMeta(meta)
		lsn, epoch, err = n.replaySuffix(eng, log, lsn, epoch)
		if err != nil {
			log.Close()
			return nil, nil, 0, 0, err
		}
		return eng, log, lsn, epoch, nil

	case n.cfg.Upstream != nil:
		// Cold follower: no usable local bundle — install the
		// upstream's, then catch up over the stream.
		eng, lsn, epoch, err := n.installUpstreamBundle(ctx, &log)
		if err != nil {
			log.Close()
			return nil, nil, 0, 0, err
		}
		lsn, epoch, err = n.replaySuffix(eng, log, lsn, epoch)
		if err != nil {
			log.Close()
			return nil, nil, 0, 0, err
		}
		return eng, log, lsn, epoch, nil

	default:
		// Cold primary: build the initial engine and persist the first
		// bundle so followers can bootstrap from us immediately.
		if n.cfg.Bootstrap == nil {
			log.Close()
			return nil, nil, 0, 0, fmt.Errorf("replica: no bundle (%w) and no Bootstrap configured", lerr)
		}
		eng, err := n.cfg.Bootstrap()
		if err != nil {
			log.Close()
			return nil, nil, 0, 0, err
		}
		lsn, epoch := log.LastLSN(), log.Epoch()
		if err := n.saveBundle(eng, lsn, epoch); err != nil {
			log.Close()
			return nil, nil, 0, 0, err
		}
		return eng, log, lsn, epoch, nil
	}
}

// installUpstreamBundle fetches the upstream's bundle, persists it
// verbatim as the local bundle and seeds a fresh replication log at its
// position. A pre-existing local log that conflicts with the fetched
// position is quarantined. The fetch retries with capped backoff until
// ctx is done: a warm standby routinely boots before (or during) its
// primary's restart, and giving up would demote "start the follower
// first" into an ordering constraint.
func (n *Node) installUpstreamBundle(ctx context.Context, logp **store.RepLog) (*midas.Engine, uint64, uint64, error) {
	var br BundleResponse
	for attempt := 1; ; attempt++ {
		var err error
		br, err = n.cfg.Upstream.Bundle(ctx)
		if err == nil {
			break
		}
		if attempt <= 3 || attempt%25 == 0 {
			n.logf("replica: upstream bundle fetch attempt %d: %v; retrying", attempt, err)
		}
		if !sleepCtx(ctx, backoff.Delay(n.cfg.ShipBackoff, "bootstrap", attempt)) {
			return nil, 0, 0, fmt.Errorf("replica: fetching upstream bundle: %w", err)
		}
	}
	eng, meta, err := midas.LoadStateMeta(byteReader(br.Data), n.cfg.Options.Workers)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("replica: upstream bundle: %w", err)
	}
	lsn, epoch := positionFromMeta(meta)
	if err := store.SaveBundle(n.fsys, n.bundlePath, func(w io.Writer) error {
		_, err := w.Write(br.Data)
		return err
	}); err != nil {
		return nil, 0, 0, fmt.Errorf("replica: installing upstream bundle: %w", err)
	}
	log := *logp
	if log.LastLSN() != 0 && log.LastLSN() < lsn {
		// The local log predates the fetched bundle (e.g. it was lost
		// and recreated upstream, or compacted away): it cannot seed a
		// replay, so quarantine and restart it at the bundle position.
		log.Close()
		if err := n.fsys.Rename(n.logPath, n.logPath+".stale"); err != nil {
			return nil, 0, 0, fmt.Errorf("replica: quarantining stale log: %w", err)
		}
		if log, err = store.OpenRepLogFS(n.fsys, n.logPath); err != nil {
			return nil, 0, 0, err
		}
		*logp = log
	}
	if log.LastLSN() == 0 && lsn > 0 {
		if err := log.Seed(lsn, epoch); err != nil {
			return nil, 0, 0, err
		}
	}
	return eng, lsn, epoch, nil
}

// replaySuffix applies the log records past the bundle's position
// directly to the engine (the pipeline is not running yet), verifying
// each data record's fingerprint. This is the one recovery path both
// roles share: a crash anywhere between a log append and a bundle save
// lands here and converges.
func (n *Node) replaySuffix(eng *midas.Engine, log *store.RepLog, lsn, epoch uint64) (uint64, uint64, error) {
	if log.LastLSN() <= lsn {
		// Log at or behind the bundle (compacted, or bundle saved after
		// the final append). Nothing to replay.
		if log.LastLSN() == 0 && lsn > 0 {
			if err := log.Seed(lsn, epoch); err != nil {
				return 0, 0, err
			}
		}
		if e := log.Epoch(); e > epoch {
			epoch = e
		}
		return lsn, epoch, nil
	}
	recs, err := log.ReadFrom(lsn, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("replica: reading replay suffix after LSN %d: %w", lsn, err)
	}
	for _, rec := range recs {
		if rec.Kind == store.RecEpoch {
			lsn, epoch = rec.LSN, rec.Epoch
			continue
		}
		u, patterns, err := DecodeUpdate(rec.Data)
		if err != nil {
			return 0, 0, fmt.Errorf("replica: replaying LSN %d: %w", rec.LSN, err)
		}
		if _, err := eng.ApplyReplicated(context.Background(), u, patterns); err != nil {
			return 0, 0, fmt.Errorf("replica: replaying LSN %d: %w", rec.LSN, err)
		}
		fpr, err := Fingerprint(eng)
		if err != nil {
			return 0, 0, err
		}
		if fpr != rec.Fingerprint {
			return 0, 0, fmt.Errorf("replica: replay of LSN %d produced fingerprint %016x, log says %016x: %w",
				rec.LSN, fpr, rec.Fingerprint, ErrDiverged)
		}
		lsn, epoch = rec.LSN, rec.Epoch
	}
	// Roll the bundle forward to the replayed position, so the next
	// restart skips the replay and peers bootstrapping from us see
	// current state.
	if err := n.saveBundle(eng, lsn, epoch); err != nil {
		return 0, 0, err
	}
	n.logf("replica: replayed %d log records to LSN %d", len(recs), lsn)
	return lsn, epoch, nil
}

// buildPipeline constructs the node's maintenance pipeline over eng,
// publishing through the node's one handle, and wires the engine and
// pipeline telemetry. The commit slot (OnApplied) captures eng and log
// so a later swap cannot cross wires. Registration is idempotent, so a
// re-bootstrap's rebuild re-attaches to the same families; gauges read
// through callbacks stay bound to the first pipeline.
func (n *Node) buildPipeline(eng *midas.Engine, log *store.RepLog) *snapshot.Pipeline {
	cfg := snapshot.Config{
		QueueSize:   n.cfg.QueueSize,
		MaxAttempts: n.cfg.MaxAttempts,
		Backoff:     n.cfg.Backoff,
		RenderSVG:   n.cfg.RenderSVG,
		Logf:        n.cfg.Logf,
		Admit: func(b snapshot.Batch) error {
			if b.FromReplica {
				return nil
			}
			if n.Role() != RolePrimary {
				return ErrNotPrimary
			}
			return nil
		},
		OnApplied: func(b snapshot.Batch, rep midas.MaintenanceReport) error {
			if b.FromReplica {
				// Follower installs persist via the batch's After hook,
				// keyed to the shipped record's exact position.
				return nil
			}
			return n.commitPrimary(eng, log, b)
		},
	}
	pipe := snapshot.NewPipeline(eng, n.handle, cfg)
	if reg := n.cfg.Telemetry; reg != nil {
		eng.SetTelemetry(reg)
		pipe.SetTelemetry(reg)
	}
	return pipe
}

// commitPrimary is the primary's commit slot, on the pipeline
// goroutine after a client batch applied: fingerprint the post-apply
// state, append the post-remap update to the replication log, persist
// the bundle at the new position. Idempotent across After-retries —
// the log append dedups the tail batch, the bundle save is atomic.
func (n *Node) commitPrimary(eng *midas.Engine, log *store.RepLog, b snapshot.Batch) error {
	fpr, err := Fingerprint(eng)
	if err != nil {
		return err
	}
	data, err := EncodeUpdate(b.Update, eng.Patterns())
	if err != nil {
		return err
	}
	lsn, err := log.Append(b.Name, fpr, data)
	if err != nil {
		return err
	}
	if err := n.saveBundle(eng, lsn, log.Epoch()); err != nil {
		return err
	}
	n.lastApplied.Store(lsn)
	n.epoch.Store(log.Epoch())
	if n.tel != nil {
		n.tel.committed.Inc()
	}
	return nil
}

// saveBundle persists the engine state with the replication position
// in the bundle metadata, through the generational scheme (tmp
// roll-forward, prev rollback), timed into midas_state_save_seconds.
func (n *Node) saveBundle(eng *midas.Engine, lsn, epoch uint64) error {
	if n.tel != nil {
		defer n.tel.saveSeconds.Start().End()
	}
	return store.SaveBundle(n.fsys, n.bundlePath, func(w io.Writer) error {
		return midas.SaveStateMeta(w, eng, positionMeta(lsn, epoch))
	})
}

// BundleBytes returns the newest valid persisted bundle and the
// replication position it reflects — what a follower installs to
// bootstrap.
func (n *Node) BundleBytes() ([]byte, uint64, uint64, error) {
	data, _, err := store.LoadBundle(n.fsys, n.bundlePath, midas.VerifyState)
	if err != nil {
		return nil, 0, 0, err
	}
	lsn, epoch := bundlePosition(data)
	return data, lsn, epoch, nil
}

// ReadRecords serves the node's log to pulling peers.
func (n *Node) ReadRecords(after uint64, max int) ([]store.RepRecord, error) {
	n.mu.RLock()
	log := n.log
	n.mu.RUnlock()
	if log == nil {
		return nil, nil
	}
	return log.ReadFrom(after, max)
}

// Promote turns a follower into the primary: it quiesces installs,
// bumps the epoch with a control record in its own log (fencing every
// older primary), persists the new position and starts admitting
// writes. Idempotent on an existing primary.
func (n *Node) Promote() error {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	if n.Role() == RolePrimary {
		return nil
	}
	n.mu.RLock()
	eng, log := n.eng, n.log
	n.mu.RUnlock()
	epoch, lsn, err := log.BumpEpoch()
	if err != nil {
		return err
	}
	if err := n.saveBundle(eng, lsn, epoch); err != nil {
		return err
	}
	n.lastApplied.Store(lsn)
	n.epoch.Store(epoch)
	n.role.Store(int32(RolePrimary))
	if n.tel != nil {
		n.tel.promotions.Inc()
	}
	n.logf("replica: promoted to primary at epoch %d (LSN %d)", epoch, lsn)
	return nil
}

// Demote steps a primary down after seeing a higher epoch (or by
// operator request): writes are fenced immediately, and every
// committed record no follower acknowledged is parked — visible, not
// silently dropped — because the new epoch's history will never
// contain it.
func (n *Node) Demote(seenEpoch uint64) {
	if n.Role() != RolePrimary {
		return
	}
	n.role.Store(int32(RoleFollower))
	maxAcked := uint64(0)
	n.ackMu.Lock()
	for _, a := range n.acked {
		if a > maxAcked {
			maxAcked = a
		}
	}
	n.ackMu.Unlock()
	n.mu.Lock()
	log := n.log
	n.mu.Unlock()
	var stranded []store.RepRecord
	if log != nil {
		if recs, err := log.ReadFrom(maxAcked, 0); err == nil {
			stranded = recs
		}
	}
	now := time.Now()
	n.mu.Lock()
	for _, rec := range stranded {
		if rec.Kind != store.RecData {
			continue
		}
		n.parked = append(n.parked, ParkedRecord{LSN: rec.LSN, Epoch: rec.Epoch, Name: rec.Name, At: now})
	}
	parked := len(n.parked)
	n.mu.Unlock()
	if n.tel != nil {
		n.tel.demotions.Inc()
	}
	n.logf("replica: demoted (saw epoch %d > %d); %d unshipped record(s) parked", seenEpoch, n.Epoch(), parked)
}

func byteReader(b []byte) io.Reader { return bytes.NewReader(b) }
