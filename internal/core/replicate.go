package core

import (
	"context"
	"fmt"
	"time"

	"github.com/midas-graph/midas/graph"
)

// PatternState is the part of the engine state that pattern
// maintenance decides: the canned pattern set, σ (Lemma 6.3) and the
// pattern-ID allocator. Together with the database delta it is what a
// batch changes beyond the structures every node derives alike.
type PatternState struct {
	Patterns      []*graph.Graph
	Sigma         float64
	NextPatternID int
}

// PatternState returns a copy of the engine's pattern state.
func (e *Engine) PatternState() PatternState {
	return PatternState{Patterns: e.Patterns(), Sigma: e.sigma, NextPatternID: e.nextPatternID}
}

// ApplyReplicated applies a batch update whose pattern maintenance
// already ran elsewhere: the database delta and the structural upkeep
// (clusters, FCT set, CSGs, indices) are applied locally, and the
// supplied pattern state — the primary's post-apply patterns, σ and
// pattern-ID allocator — is installed verbatim instead of re-running
// candidate generation and swapping.
//
// This is the replication follower's install path. The structural
// upkeep is a function of the state and the update, and the installed
// pattern state is the primary's, so the follower's whole state — what
// SaveState writes and replica fingerprints hash — equals the
// primary's after every record, and a promoted follower swaps exactly
// as the primary would have. Shipping the decided pattern state is
// cheaper for followers than re-running the swap stage.
//
// Like MaintainContext it is transactional: the update is validated
// up front, and any error or panic restores the pre-batch snapshot.
func (e *Engine) ApplyReplicated(ctx context.Context, u graph.Update, ps PatternState) (rep Report, err error) {
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
	e.installPatterns(ps)
	if err := stage(ctx, "install"); err != nil {
		e.restore(snap)
		return rep, err
	}

	rep.Total = time.Since(start)
	e.LastReport = rep
	return rep, nil
}

// installPatterns replaces the pattern state with ps, keeping the
// pattern indices consistent.
func (e *Engine) installPatterns(ps PatternState) {
	if e.ix != nil {
		for _, p := range e.patterns {
			e.ix.UnregisterPattern(p.ID)
		}
	}
	e.patterns = append([]*graph.Graph(nil), ps.Patterns...)
	e.sigma = ps.Sigma
	e.nextPatternID = ps.NextPatternID
	if e.ix != nil {
		for _, p := range e.patterns {
			e.ix.RegisterPattern(p)
		}
		e.ix.SyncFeatures(e.set, e.db, e.patterns)
	}
}
