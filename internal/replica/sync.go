package replica

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/midas-graph/midas/internal/backoff"
	"github.com/midas-graph/midas/internal/snapshot"
	"github.com/midas-graph/midas/internal/store"
)

// shipLoop is the primary's push stream to one peer: tail-follow the
// replication log, push the suffix past the peer's acknowledged
// position, rewind to whatever the peer acks. Transient transport
// failures retry on the shared capped-exponential schedule with
// per-peer jitter; a fenced ack (the peer is on a higher epoch)
// demotes this node and parks the loop until re-promoted. The goroutine
// exits when the node's run context is cancelled (joined by Stop).
func (n *Node) shipLoop(peer string, tr Transport) {
	defer n.wg.Done()
	failures := 0
	acked := uint64(0)
	for {
		if n.runCtx.Err() != nil {
			return
		}
		if n.Role() != RolePrimary {
			// Parked: a demoted primary must not keep streaming into the
			// new epoch. Wake periodically in case of re-promotion.
			if !sleepCtx(n.runCtx, n.cfg.PollInterval) {
				return
			}
			continue
		}
		log := n.currentLog()
		if log == nil || !log.Wait(n.runCtx.Done(), acked) {
			if n.runCtx.Err() != nil {
				return
			}
			continue
		}
		recs, err := log.ReadFrom(acked, n.cfg.ShipMax)
		if err != nil {
			if errors.Is(err, store.ErrCompacted) {
				// The peer is behind our compaction horizon: it must
				// re-bootstrap from the bundle on its own pull path; skip
				// ahead so the stream resumes once it has.
				acked = log.FirstLSN()
				continue
			}
			n.logger.Warnf("replica: ship %s: reading log after %d: %v", peer, acked, err)
			failures++
			if !sleepCtx(n.runCtx, backoff.Delay(n.cfg.ShipBackoff, "ship:"+peer, failures)) {
				return
			}
			continue
		}
		if len(recs) == 0 {
			continue
		}
		ctx, cancel := context.WithTimeout(n.runCtx, 30*time.Second)
		resp, err := tr.Push(ctx, PushRequest{Epoch: n.Epoch(), Records: recs})
		cancel()
		if err != nil {
			failures++
			if n.tel != nil {
				n.tel.shipErrors.Inc()
			}
			n.logger.Warnf("replica: ship %s: push after %d failed (attempt %d): %v", peer, acked, failures, err)
			if !sleepCtx(n.runCtx, backoff.Delay(n.cfg.ShipBackoff, "ship:"+peer, failures)) {
				return
			}
			continue
		}
		failures = 0
		if resp.Fenced {
			if resp.Epoch > n.Epoch() {
				n.Demote(resp.Epoch)
			}
			continue
		}
		if n.tel != nil {
			n.tel.shipped.Add(len(recs))
		}
		// The peer's AppliedLSN is the one source of truth for where to
		// resume: it absorbs duplicate deliveries (ack ahead of what we
		// just sent) and gaps (ack behind — rewind and resend).
		acked = resp.AppliedLSN
		n.ackMu.Lock()
		n.acked[peer] = acked
		n.ackMu.Unlock()
	}
}

// pullLoop is the follower's catch-up and gap-repair path: poll the
// upstream for records past our applied position. The push stream is
// the low-latency path; this loop bounds staleness when pushes are
// lost and performs the re-bootstrap when the upstream has compacted
// past us or our state has diverged. Exits with the run context
// (joined by Stop).
func (n *Node) pullLoop() {
	defer n.wg.Done()
	failures := 0
	for {
		if !sleepCtx(n.runCtx, n.cfg.PollInterval) {
			return
		}
		if n.Role() != RoleFollower {
			continue
		}
		ctx, cancel := context.WithTimeout(n.runCtx, 30*time.Second)
		recs, err := n.cfg.Upstream.Records(ctx, n.LastLSN(), n.cfg.ShipMax)
		cancel()
		switch {
		case err == nil:
			failures = 0
			n.lastSyncNanos.Store(time.Now().UnixNano())
			if len(recs) == 0 {
				continue
			}
			if _, aerr := n.applyRecords(recs); aerr != nil {
				if errors.Is(aerr, ErrDiverged) {
					if rerr := n.rebootstrap(); rerr != nil {
						n.logger.Warnf("replica: re-bootstrap after divergence failed: %v", rerr)
					}
					continue
				}
				n.logger.Warnf("replica: applying pulled records: %v", aerr)
				failures++
			}
		case errors.Is(err, store.ErrCompacted):
			// The upstream no longer retains our next record: only a
			// fresh bundle can catch us up.
			n.logger.Infof("replica: upstream compacted past LSN %d; re-bootstrapping", n.LastLSN())
			if rerr := n.rebootstrap(); rerr != nil {
				n.logger.Warnf("replica: re-bootstrap failed: %v", rerr)
				failures++
			}
		case n.runCtx.Err() != nil:
			return
		default:
			failures++
			if n.tel != nil {
				n.tel.pullErrors.Inc()
			}
			n.logger.Warnf("replica: pulling from upstream after %d failed (attempt %d): %v", n.LastLSN(), failures, err)
		}
		if failures > 0 {
			if !sleepCtx(n.runCtx, backoff.Delay(n.cfg.ShipBackoff, "pull", failures)) {
				return
			}
		}
	}
}

// ReceivePush is the follower half of the push stream (Node.Handler
// routes POST /replica/push here; in-process tests call it directly).
// Epoch fencing happens first: a sender on a lower epoch is rejected
// and told the current epoch so it demotes itself; a sender on a
// HIGHER epoch than a node that believes itself primary demotes this
// node before rejecting (the retry will land on the now-follower).
func (n *Node) ReceivePush(req PushRequest) PushResponse {
	myEpoch := n.Epoch()
	if req.Epoch < myEpoch {
		if n.tel != nil {
			n.tel.fenced.Inc()
		}
		return PushResponse{AppliedLSN: n.LastLSN(), Epoch: myEpoch, Fenced: true}
	}
	if n.Role() == RolePrimary {
		if req.Epoch > myEpoch {
			// A higher epoch exists: we were deposed while partitioned.
			n.Demote(req.Epoch)
		}
		if n.tel != nil {
			n.tel.fenced.Inc()
		}
		return PushResponse{AppliedLSN: n.LastLSN(), Epoch: n.Epoch(), Fenced: true}
	}
	if _, err := n.applyRecords(req.Records); err != nil {
		if errors.Is(err, ErrDiverged) {
			if rerr := n.rebootstrap(); rerr != nil {
				n.logger.Warnf("replica: re-bootstrap after divergence failed: %v", rerr)
			}
		} else if !errors.Is(err, errGap) {
			n.logger.Warnf("replica: applying pushed records: %v", err)
		}
		// Whatever happened, the ack's AppliedLSN tells the sender where
		// to resume; a gap acks the pre-gap position (rewind), an
		// install failure acks the last success (resend).
	}
	n.lastSyncNanos.Store(time.Now().UnixNano())
	return PushResponse{AppliedLSN: n.LastLSN(), Epoch: n.Epoch()}
}

// applyRecords installs shipped records in LSN order: duplicate LSNs
// are skipped (at-least-once delivery), a gap stops the batch (the
// sender rewinds from the ack), an epoch regression is fenced. Each
// record goes through install: appended durably to the local log,
// re-applied through the pipeline, its bundle persisted at the new
// position, and its recomputed fingerprint compared against the
// primary's — a mismatch returns ErrDiverged.
func (n *Node) applyRecords(recs []store.RepRecord) (int, error) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	log := n.currentLog()
	installed := 0
	for _, rec := range recs {
		applied := n.lastApplied.Load()
		if rec.LSN <= applied {
			continue
		}
		if rec.LSN != applied+1 {
			return installed, fmt.Errorf("%w: have %d, got %d", errGap, applied, rec.LSN)
		}
		if rec.Epoch < n.Epoch() {
			return installed, fmt.Errorf("replica: record at LSN %d carries stale epoch %d < %d: %w",
				rec.LSN, rec.Epoch, n.Epoch(), store.ErrLogSealed)
		}
		if err := n.install(log, rec); err != nil {
			return installed, err
		}
		if rec.Kind == store.RecData && n.tel != nil {
			n.tel.installed.Inc()
		}
		installed++
	}
	return installed, nil
}

// rebootstrap discards the follower's state — quarantined, never
// deleted — and reinstalls the upstream's current bundle through the
// path a cold follower takes: a fresh log seeded at the bundle's
// position, and one pipeline batch that swaps the loaded engine in,
// saves it and publishes it through the same handle (readers see a
// normal generation bump, not a reset). Triggered by fingerprint
// divergence and by the upstream compacting past our position.
func (n *Node) rebootstrap() error {
	if n.cfg.Upstream == nil {
		return fmt.Errorf("replica: cannot re-bootstrap without an upstream")
	}
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	if n.tel != nil {
		n.tel.rebootstraps.Inc()
	}

	n.currentLog().Close()
	n.quarantine(n.bundlePath, n.bundlePath+".prev", n.logPath)
	log, err := store.OpenRepLogFS(n.fsys, n.logPath)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.log = log
	n.mu.Unlock()

	ctx, cancel := context.WithTimeout(n.runCtx, 2*time.Minute)
	defer cancel()
	// The fresh log is empty, so the install seeds it and never
	// replaces it.
	eng, lsn, epoch, err := n.installUpstreamBundle(ctx, &log)
	if err != nil {
		return err
	}
	eng.SetTelemetry(n.cfg.Shard.Telemetry)
	n.installMeta = positionMeta(lsn, epoch)
	if err := n.apply(snapshot.Batch{Name: "rebootstrap", FromReplica: true, Engine: eng}); err != nil {
		return fmt.Errorf("replica: installing re-bootstrap engine: %w", err)
	}
	n.lastApplied.Store(lsn)
	n.epoch.Store(epoch)
	n.logger.Infof("replica: re-bootstrapped from upstream bundle at LSN %d, epoch %d", lsn, epoch)
	return nil
}

// sleepCtx waits d or until ctx is done; reports false on
// cancellation. A non-positive d yields without sleeping.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
