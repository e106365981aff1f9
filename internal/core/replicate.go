package core

import (
	"context"
	"fmt"
	"time"

	"github.com/midas-graph/midas/graph"
)

// ApplyReplicated applies a batch update whose pattern maintenance
// already ran elsewhere: the database delta and the structural upkeep
// (clusters, FCT set, CSGs, indices) are applied locally, and the
// supplied pattern set — the primary's post-apply result — is
// installed verbatim instead of re-running candidate generation and
// swapping.
//
// This is the replication follower's install path. Restore is exact
// (RestoreEngine carries the tree set, clusters, summaries and σ), so
// maintenance is a function of a full state bundle and the update. But
// a follower never runs a swap: it installs patterns, so its σ and
// pattern-ID allocator never advance the way the primary's do, and
// re-running swaps on it cannot reproduce the primary's decisions.
// Shipping the decided pattern set alongside the update makes the
// follower's replicated state (options, database, patterns — what
// SaveReplicatedState writes and state fingerprints bind) a
// deterministic function of the record stream. Deriving the patterns
// on followers instead is a separate decision.
//
// Like MaintainContext it is transactional: the update is validated
// up front, and any error or panic restores the pre-batch snapshot.
func (e *Engine) ApplyReplicated(ctx context.Context, u graph.Update, patterns []*graph.Graph) (rep Report, err error) {
	start := time.Now()
	defer func() {
		e.tel.observe(e, rep, err)
	}()

	if err := e.ValidateUpdate(u); err != nil {
		return rep, err
	}
	if err := stage(ctx, "validated"); err != nil {
		return rep, err
	}

	snap := e.takeSnapshot()
	defer func() {
		if p := recover(); p != nil {
			e.restore(snap)
			err = fmt.Errorf("core: replicated apply panicked: %v", p)
		}
	}()

	if _, err := e.applyStructural(ctx, u, &rep); err != nil {
		e.restore(snap)
		return rep, err
	}
	e.installPatterns(patterns)
	if err := stage(ctx, "install"); err != nil {
		e.restore(snap)
		return rep, err
	}

	rep.Total = time.Since(start)
	e.LastReport = rep
	return rep, nil
}

// installPatterns replaces the canned pattern set with ps, keeping the
// pattern indices and the ID allocator consistent.
func (e *Engine) installPatterns(ps []*graph.Graph) {
	if e.ix != nil {
		for _, p := range e.patterns {
			e.ix.UnregisterPattern(p.ID)
		}
	}
	e.patterns = append([]*graph.Graph(nil), ps...)
	e.nextPatternID = 0
	for _, p := range e.patterns {
		if p.ID >= e.nextPatternID {
			e.nextPatternID = p.ID + 1
		}
		if e.ix != nil {
			e.ix.RegisterPattern(p)
		}
	}
	if e.ix != nil {
		e.ix.SyncFeatures(e.set, e.db, e.patterns)
	}
}
