package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/internal/backoff"
	"github.com/midas-graph/midas/internal/panel"
	"github.com/midas-graph/midas/internal/snapshot"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/telemetry"
	"github.com/midas-graph/midas/internal/tenant"
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
	// Bootstrap builds the initial engine when a primary cold-starts
	// with no bundle; the whole replication log is then replayed over
	// it. Followers bootstrap from the upstream bundle instead.
	Bootstrap func() (*midas.Engine, error)
	// Upstream, when set, starts the node as a follower of that peer.
	Upstream Transport
	// PrimaryURL is the advertised primary address, surfaced to clients
	// whose writes are rejected (X-Midas-Primary) and in status.
	PrimaryURL string
	// Peers are the followers a primary ships to, keyed by a stable
	// name (used for backoff jitter and metrics).
	Peers map[string]Transport

	// Shard configures the node's serving stack, a tenant.Shard: its
	// engine options, maintenance queue, batch retries, request bounds,
	// logger and telemetry registry, which also takes the node's own
	// metric families. Engines loaded from a bundle (local, upstream or
	// re-bootstrap) take every option but Workers from its header and
	// are rebuilt at Shard.Engine.Workers; bundles and fingerprints
	// record Workers as 0, so the nodes of one pair may run different
	// worker counts. The node sets NewEngine, Admit and Commit itself;
	// the registry and spool settings do not apply.
	Shard tenant.Options
	// ShipBackoff seeds the replication loops' retry schedule
	// (capped exponential with deterministic jitter; default 50ms).
	ShipBackoff time.Duration
	// PollInterval is the follower's pull cadence when the push stream
	// is quiet (default 250ms).
	PollInterval time.Duration
	// ShipMax bounds records per push or pull (default 64).
	ShipMax int
}

// Node is one replicated serving stack in either role: a tenant.Shard
// (engine, snapshot handle, maintenance pipeline, panel server, state
// bundle) plus the replication log. The shard lives as long as the
// node: a follower re-bootstrap swaps the engine inside its pipeline
// with one batch, so the handle's generations keep rising and the
// pipeline's metrics stay live.
type Node struct {
	cfg    Config
	fsys   vfs.FS
	logger *telemetry.Logger

	bundlePath string
	logPath    string

	// shard is the serving stack Start opens.
	shard *tenant.Shard

	// mu guards the log (a re-bootstrap replaces it), parked and
	// started.
	mu      sync.RWMutex
	log     *store.RepLog
	parked  []ParkedRecord
	started bool

	// applyMu serialises everything that changes replicated state
	// outside client batches: record installs, promotion, re-bootstrap.
	// While it is held the pipeline applies only the holder's batches (a
	// client batch reaching a follower is fenced before it applies), so
	// reading the engine between them (fingerprints, bundle saves) is
	// race-free.
	applyMu sync.Mutex
	// installMeta is the bundle metadata (replication position) of the
	// replicated batch in flight: set under applyMu before the submit
	// and read by commit on the maintenance goroutine; the submit and
	// the ticket order the two.
	installMeta map[string]string

	role        atomic.Int32
	epoch       atomic.Uint64
	lastApplied atomic.Uint64
	// lastSyncNanos is the last instant a follower knew it was caught
	// up with (or had just received from) its upstream; Lag measures
	// from it. 0 until first contact.
	lastSyncNanos atomic.Int64

	// shipper ack positions, keyed by peer name.
	ackMu sync.Mutex
	acked map[string]uint64

	runCtx context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

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
		logger:     cfg.Shard.Logger,
		bundlePath: filepath.Join(cfg.Dir, "state.bundle"),
		logPath:    filepath.Join(cfg.Dir, "replication.log"),
		acked:      make(map[string]uint64),
		runCtx:     ctx,
		cancel:     cancel,
	}
	if cfg.Upstream != nil {
		n.role.Store(int32(RoleFollower))
	}
	n.setTelemetry(cfg.Shard.Telemetry)
	return n
}

// Role returns the node's current role.
func (n *Node) Role() Role { return Role(n.role.Load()) }

// Epoch returns the node's current primacy epoch.
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// LastLSN returns the node's applied replication position.
func (n *Node) LastLSN() uint64 { return n.lastApplied.Load() }

// currentLog returns the replication log, copied out under mu so the
// (log-internal) work of its callers does not run inside the node's
// lock.
func (n *Node) currentLog() *store.RepLog {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.log
}

// FirstLSN returns the earliest LSN retained in the node's log — the
// bootstrap seed position on a follower, 1 on an uncompacted primary.
func (n *Node) FirstLSN() uint64 {
	if log := n.currentLog(); log != nil {
		return log.FirstLSN()
	}
	return 0
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

// Panel returns the node's panel server. Reads load the snapshot
// handle lock-free; /maintain submits through the node's pipeline,
// whose admission hook fences writes while the node is a follower or
// demoted (503 + Retry-After + X-Midas-Primary). Every snapshot-served
// response carries X-Midas-Replica and X-Midas-Replication-Lag, and
// /readyz details the replication LSN, last-publish generation, role
// and lag.
func (n *Node) Panel() *panel.Server { return n.shard.Server() }

// Handle returns the snapshot generation pointer read handlers load.
func (n *Node) Handle() *snapshot.Handle { return n.Panel().Handle() }

// Pipeline returns the node's maintenance pipeline.
func (n *Node) Pipeline() *snapshot.Pipeline { return n.Panel().Pipeline() }

// Parked returns the records stranded by demotions, oldest first.
func (n *Node) Parked() []ParkedRecord {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]ParkedRecord, len(n.parked))
	copy(out, n.parked)
	return out
}

// Start brings the node up and launches the replication goroutines:
// it opens the replication log (salvaging a torn tail), takes the
// engine from the newest valid bundle generation — or, with none, from
// the upstream's bundle on a follower and from Bootstrap on a primary
// — opens the serving stack on it, and replays the log past that
// position through the install path shipped records take (with no
// suffix it saves the bundle at its position instead). ctx bounds only
// the bootstrap (a follower's bundle fetch); the running node is
// stopped with Stop. A failed start leaves nothing running and writes
// no bundle past the last record it verified: a replay that diverges
// quarantines the one generation it wrote unverified.
func (n *Node) Start(ctx context.Context) error {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return nil
	}
	n.started = true
	n.mu.Unlock()

	log, err := store.OpenRepLogFS(n.fsys, n.logPath)
	if err != nil {
		return err
	}
	if s := log.Salvage(); s.TailBytes > 0 {
		n.logger.Warnf("replica: salvaged replication log: %d torn bytes quarantined to %s", s.TailBytes, s.QuarantinePath)
	}
	eng, lsn, epoch, err := n.bootstrap(ctx, &log)
	var suffix []store.RepRecord
	if err == nil {
		suffix, epoch, err = logSuffix(log, lsn, epoch)
	}
	if err == nil {
		o := n.cfg.Shard
		o.Admit, o.Commit = n.admit, n.commit
		o.NewEngine = func(string, midas.Options) (*midas.Engine, bool, error) { return eng, false, nil }
		n.shard, err = tenant.OpenShard("", tenant.Paths{Save: n.bundlePath, FS: n.fsys}, o)
	}
	if err != nil {
		log.Close()
		return err
	}
	n.shard.Server().SetReplicaInfo(&panel.ReplicaInfo{
		Role:    func() string { return n.Role().String() },
		LSN:     n.LastLSN,
		Lag:     n.Lag,
		Primary: n.PrimaryURL,
	})
	n.lastApplied.Store(lsn)
	n.epoch.Store(epoch)
	if len(suffix) > 0 {
		// Every replayed record saves the bundle at its position.
		err = n.replay(log, suffix)
	} else {
		// Stamp the position into the bundle metadata every later save
		// carries forward; a fetched or bootstrapped engine's bundle is
		// then on disk for followers to bootstrap from.
		err = n.shard.Save(positionMeta(lsn, epoch))
	}
	if err != nil {
		// Stop without the shard's final save (and forget the shard, so a
		// later Stop does not drain it either), and quarantine only the
		// generation a diverged record wrote: the bundle the node started
		// from stays on disk as its previous generation. A record
		// rejected before its apply (a payload from an older binary)
		// wrote none: the installer's position is still the last
		// verified one.
		n.Pipeline().Stop(ctx)
		n.shard = nil
		log.Close()
		if at, _ := positionFromMeta(n.installMeta); errors.Is(err, ErrDiverged) && at > n.LastLSN() {
			n.quarantine(n.bundlePath)
		}
		return err
	}
	n.mu.Lock()
	n.log = log
	n.mu.Unlock()

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

// Stop terminates the replication goroutines, drains the serving stack
// (queued batches finish; every applied batch already saved its
// bundle, so the drain saves again only after a save that failed) and
// closes the log.
func (n *Node) Stop(ctx context.Context) error {
	n.cancel()
	n.wg.Wait()
	var err error
	if n.shard != nil {
		err = n.shard.Drain(ctx)
	}
	if log := n.currentLog(); log != nil {
		if cerr := log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// bootstrap returns the engine the node starts from and the
// replication position it reflects: the newest valid local bundle
// generation (salvage ladder); else, on a follower, the upstream's
// bundle; else, on a primary, Bootstrap at position 0, with the whole
// log still to replay over it.
func (n *Node) bootstrap(ctx context.Context, logp **store.RepLog) (*midas.Engine, uint64, uint64, error) {
	data, _, lerr := store.LoadBundle(n.fsys, n.bundlePath, midas.VerifyState)
	switch {
	case lerr == nil:
		eng, meta, err := midas.LoadStateMeta(bytes.NewReader(data), n.cfg.Shard.Engine.Workers)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("replica: loading bundle: %w", err)
		}
		lsn, epoch := positionFromMeta(meta)
		return eng, lsn, epoch, nil
	case n.cfg.Upstream != nil:
		return n.installUpstreamBundle(ctx, logp)
	case n.cfg.Bootstrap == nil:
		return nil, 0, 0, fmt.Errorf("replica: no bundle (%w) and no Bootstrap configured", lerr)
	}
	eng, err := n.cfg.Bootstrap()
	return eng, 0, 0, err
}

// logSuffix returns the log records past the engine's position
// (lsn, epoch) for Start to replay, and the epoch to start at. A log
// at or behind the bundle has nothing to replay; an empty one is
// seeded at the bundle's position. Replaying from position 0 — a cold
// primary over its bootstrapped engine — needs the history from LSN 1,
// so a log that starts at a seed or a compaction boundary fails with
// store.ErrCompacted instead of starting on a state that lacks the
// batches before it.
func logSuffix(log *store.RepLog, lsn, epoch uint64) ([]store.RepRecord, uint64, error) {
	if log.LastLSN() <= lsn {
		if log.LastLSN() == 0 && lsn > 0 {
			if err := log.Seed(lsn, epoch); err != nil {
				return nil, 0, err
			}
		}
		return nil, max(epoch, log.Epoch()), nil
	}
	recs, err := log.ReadFrom(lsn, 0)
	if err == nil && lsn == 0 && recs[0].Kind != store.RecData {
		err = fmt.Errorf("%w (the log starts with a seed at LSN %d)", store.ErrCompacted, recs[0].LSN)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("replica: reading replay suffix after LSN %d: %w", lsn, err)
	}
	return recs, epoch, nil
}

// replay installs the local log's own records past the bundle's
// position, verifying each fingerprint: a crash anywhere between a log
// append and a bundle save, on either role, converges here.
func (n *Node) replay(log *store.RepLog, recs []store.RepRecord) error {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	for _, rec := range recs {
		if err := n.install(log, rec); err != nil {
			return fmt.Errorf("replica: replaying LSN %d: %w", rec.LSN, err)
		}
	}
	n.logger.Infof("replica: replayed %d log records to LSN %d", len(recs), n.LastLSN())
	return nil
}

// installUpstreamBundle fetches and loads the upstream's bundle and
// seeds the replication log at its position; the caller saves the
// bundle. A pre-existing local log that predates the fetched position
// is quarantined. The fetch retries with capped backoff until ctx is
// done: a warm standby routinely boots before (or during) its
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
			n.logger.Warnf("replica: upstream bundle fetch attempt %d: %v; retrying", attempt, err)
		}
		if !sleepCtx(ctx, backoff.Delay(n.cfg.ShipBackoff, "bootstrap", attempt)) {
			return nil, 0, 0, fmt.Errorf("replica: fetching upstream bundle: %w", err)
		}
	}
	eng, meta, err := midas.LoadStateMeta(bytes.NewReader(br.Data), n.cfg.Shard.Engine.Workers)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("replica: upstream bundle: %w", err)
	}
	lsn, epoch := positionFromMeta(meta)
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

// admit is the shard's admission hook: replicated batches always pass,
// client writes only on the primary.
func (n *Node) admit(b snapshot.Batch) error {
	if !b.FromReplica && n.Role() != RolePrimary {
		return ErrNotPrimary
	}
	return nil
}

// commit is the shard's Commit hook, on the maintenance goroutine
// after a batch applied and before its bundle save. A replicated batch
// is saved at the position its installer set. A client batch, which
// only a primary admits, is fingerprinted in its post-apply state and
// appended, post-remap, to the replication log, and the bundle is saved
// at its new LSN. Idempotent across save retries: the log append
// dedups the tail batch, and the position and the commit counter move
// once per LSN.
func (n *Node) commit(b snapshot.Batch) (map[string]string, error) {
	if b.FromReplica {
		return n.installMeta, nil
	}
	eng := n.shard.Engine()
	fpr, err := Fingerprint(eng)
	if err != nil {
		return nil, err
	}
	data, err := EncodeUpdate(b.Update, eng.PatternState())
	if err != nil {
		return nil, err
	}
	log := n.currentLog()
	lsn, err := log.Append(b.Name, fpr, data)
	if err != nil {
		return nil, err
	}
	if n.lastApplied.Swap(lsn) != lsn && n.tel != nil {
		n.tel.committed.Inc()
	}
	n.epoch.Store(log.Epoch())
	return positionMeta(lsn, log.Epoch()), nil
}

// install applies one record on top of the node's position; shipped
// records and Start's replay of the local log both take it. The record
// is appended to the local log (a no-op for one already there). An
// epoch record is saved straight into the bundle metadata; a data
// record is re-applied through the pipeline (FromReplica: IDs
// verbatim, fence bypassed), saved at its position by commit, and its
// recomputed fingerprint checked against the primary's, a mismatch
// returning ErrDiverged. applyMu must be held.
func (n *Node) install(log *store.RepLog, rec store.RepRecord) error {
	if err := log.AppendRecord(rec); err != nil {
		return err
	}
	if rec.Kind == store.RecEpoch {
		if err := n.shard.Save(positionMeta(rec.LSN, rec.Epoch)); err != nil {
			return err
		}
	} else {
		u, ps, err := DecodeUpdate(rec.Data)
		if err != nil {
			return fmt.Errorf("replica: LSN %d: %w", rec.LSN, err)
		}
		n.installMeta = positionMeta(rec.LSN, rec.Epoch)
		if err := n.apply(snapshot.Batch{Name: rec.Name, Update: u, FromReplica: true, ReplicaState: ps}); err != nil {
			return fmt.Errorf("replica: installing LSN %d: %w", rec.LSN, err)
		}
		fpr, err := Fingerprint(n.shard.Engine())
		if err != nil {
			return err
		}
		if fpr != rec.Fingerprint {
			if n.tel != nil {
				n.tel.divergences.Inc()
			}
			return fmt.Errorf("replica: LSN %d fingerprint %016x, primary says %016x: %w",
				rec.LSN, fpr, rec.Fingerprint, ErrDiverged)
		}
	}
	n.lastApplied.Store(rec.LSN)
	n.epoch.Store(rec.Epoch)
	return nil
}

// apply submits one replicated batch and waits for its terminal
// result; the ticket orders the caller's later engine reads after the
// batch.
func (n *Node) apply(b snapshot.Batch) error {
	tkt, err := n.Pipeline().Submit(b)
	if err != nil {
		return err
	}
	return (<-tkt.Done).Err
}

// quarantine renames diverged state aside for post-mortem, never
// deleting it; paths that do not exist are skipped.
func (n *Node) quarantine(paths ...string) {
	for _, p := range paths {
		if err := n.fsys.Rename(p, p+".diverged"); err == nil {
			n.logger.Warnf("replica: quarantined %s", p+".diverged")
		}
	}
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
	log := n.currentLog()
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
	epoch, lsn, err := n.currentLog().BumpEpoch()
	if err != nil {
		return err
	}
	if err := n.shard.Save(positionMeta(lsn, epoch)); err != nil {
		return err
	}
	n.lastApplied.Store(lsn)
	n.epoch.Store(epoch)
	n.role.Store(int32(RolePrimary))
	if n.tel != nil {
		n.tel.promotions.Inc()
	}
	n.logger.Infof("replica: promoted to primary at epoch %d (LSN %d)", epoch, lsn)
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
	var stranded []store.RepRecord
	if log := n.currentLog(); log != nil {
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
	n.logger.Warnf("replica: demoted (saw epoch %d > %d); %d unshipped record(s) parked", seenEpoch, n.Epoch(), parked)
}
