package core

import (
	"context"
	"fmt"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/catapult"
	"github.com/midas-graph/midas/internal/faultinject"
	"github.com/midas-graph/midas/internal/ged"
	"github.com/midas-graph/midas/internal/graphlet"
	"github.com/midas-graph/midas/internal/iso"
	"github.com/midas-graph/midas/internal/parallel"
)

// stage gates each step of the maintenance pipeline: it surfaces
// context cancellation and armed failpoints (named
// "core.maintain.<stage>") as errors, which MaintainContext turns into
// a rollback.
func stage(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return faultinject.Hit("core.maintain." + name)
}

// Maintain applies a batch update ΔD and maintains the canned pattern
// set. It is transactional: the update is validated before any state is
// touched, and an error anywhere in the pipeline rolls the engine back
// to its pre-batch state. See MaintainContext.
func (e *Engine) Maintain(u graph.Update) (Report, error) {
	return e.MaintainContext(context.Background(), u)
}

// MaintainContext applies a batch update ΔD and maintains the canned
// pattern set, implementing Algorithm 1:
//
//  1. assign inserted graphs to clusters (C+), remove deleted ones (C-)
//  2. compute graphlet distributions ψ_D and ψ_{D⊕ΔD}
//  3. maintain the FCT set
//  4. maintain clusters (fine clustering of oversized ones) and CSGs
//  5. if dist(ψ_D, ψ_{D⊕ΔD}) >= ε (major): generate pruned candidates
//     from evolved summaries and run the swap strategy
//  6. maintain the indices
//
// The update is validated up front (ErrInvalidUpdate / ErrConflict)
// before anything is mutated. After that a snapshot of every mutable
// substructure is taken, and any failure — an injected fault, an
// internal error, or ctx being cancelled — restores the snapshot, so
// the engine is never left between states. Cancellation is checked at
// every stage boundary and inside the candidate-generation and metric
// loops, so an expired ctx returns its error promptly.
//
// It returns the maintenance report (PMT and its breakdown).
func (e *Engine) MaintainContext(ctx context.Context, u graph.Update) (rep Report, err error) {
	start := time.Now()
	isoBefore, gedBefore := iso.Snapshot(), ged.Snapshot()
	defer func() {
		isoAfter, gedAfter := iso.Snapshot(), ged.Snapshot()
		rep.VF2Steps = isoAfter.VF2Steps - isoBefore.VF2Steps
		rep.MCCSSteps = isoAfter.MCCSSteps - isoBefore.MCCSSteps
		rep.GEDNodes = gedAfter.ExactExpanded - gedBefore.ExactExpanded
		e.tel.observe(e, rep, err)
	}()

	if err := e.ValidateUpdate(u); err != nil {
		return rep, err
	}
	if err := stage(ctx, "validated"); err != nil {
		return rep, err
	}

	// ψ_D before and after (lines 3–4), computed incrementally from the
	// cached per-graph counts; the per-graph censuses of the insertion
	// batch fan out over the worker pool. Pure reads — safe before the
	// snapshot.
	psiBefore := e.counter.Distribution()
	psiAfter := e.counter.DistributionAfterParallel(e.workers(), u)
	rep.GraphletDistance = graphlet.DistanceWith(e.cfg.Distance, psiBefore, psiAfter)
	rep.Major = rep.GraphletDistance >= e.cfg.Epsilon

	snap := e.takeSnapshot()

	// The rollback invariant must survive panics, not just error
	// returns: a panic escaping the pipeline (a bug in a kernel, or one
	// re-raised from a worker-pool fan-out) would otherwise leave the
	// engine between states, poisoning every later batch. Restore the
	// snapshot and surface the panic as an error so async callers (the
	// serving pipeline) can retry or park the batch while readers keep
	// serving the previous state.
	defer func() {
		if p := recover(); p != nil {
			e.restore(snap)
			err = fmt.Errorf("core: maintenance panicked: %v", p)
		}
	}()

	// Install the cancellation hook into the metric and selection loops
	// for the duration of the pipeline. Cleared via e.metrics at exit so
	// a metrics evaluator rebuilt by restore is also left clean.
	if ctx.Done() != nil {
		done := func() bool { return ctx.Err() != nil }
		e.cancel = done
		e.metrics.SetCancel(done)
		e.cl.SetCancel(done)
		e.csgs.SetCancel(done)
	}
	defer func() {
		// Clear via the engine fields: restore may have swapped in the
		// snapshot copies, which must also end up hook-free.
		e.cancel = nil
		e.metrics.SetCancel(nil)
		e.cl.SetCancel(nil)
		e.csgs.SetCancel(nil)
	}()

	if err := e.runPipeline(ctx, u, &rep); err != nil {
		e.restore(snap)
		return rep, err
	}

	rep.Total = time.Since(start)
	e.LastReport = rep
	return rep, nil
}

// runPipeline executes the mutating stages of Algorithm 1. Any error
// return means the engine is in an intermediate state and the caller
// must restore the pre-batch snapshot.
func (e *Engine) runPipeline(ctx context.Context, u graph.Update, rep *Report) error {
	affected, err := e.applyStructural(ctx, u, rep)
	if err != nil {
		return err
	}

	// Lines 8–11: major modification triggers candidate generation and
	// swapping over the evolved summaries only.
	if rep.Major {
		evolved := make([]int, 0, len(affected))
		for cid := range affected {
			if e.csgs.Get(cid) != nil {
				evolved = append(evolved, cid)
			}
		}
		sortInts(evolved)
		if err := e.majorModification(ctx, evolved, rep); err != nil {
			return err
		}
	}

	// Small-pattern section (η ≤ 2): maintained directly from the FCT
	// supports every time — the straightforward case of §3.1's remark.
	tSmall := time.Now()
	e.refreshSmallPatterns()
	rep.SmallTime = time.Since(tSmall)
	return stage(ctx, "small")
}

// applyStructural runs the structural stages shared by normal
// maintenance and replicated apply: cluster bookkeeping, the database
// and graphlet-cache delta, FCT maintenance, cluster/CSG upkeep and
// index maintenance — everything except the pattern-set decisions
// (candidate generation, swapping, small-pattern refresh). It returns
// the set of affected cluster IDs for the caller's swap stage. An
// error leaves the engine in an intermediate state; the caller must
// restore the pre-batch snapshot.
func (e *Engine) applyStructural(ctx context.Context, u graph.Update, rep *Report) (map[int]struct{}, error) {
	// Lines 1–2: cluster assignment and removal. Assignment uses the
	// pre-update feature space, as in Algorithm 1.
	affected := make(map[int]struct{})
	tCluster, wCluster := time.Now(), KernelWork()
	for _, id := range u.Delete {
		if cid := e.cl.Remove(id); cid >= 0 {
			affected[cid] = struct{}{}
			e.csgs.OnRemove(cid, id)
		}
	}
	// Feature vectors of the whole insertion batch depend only on the
	// pre-update tree set, so they fan out over the pool; the
	// assignments themselves run sequentially in batch order, keeping
	// centroid evolution identical to the plain loop. No cancel hook:
	// AssignWithVector needs complete vectors, and a cancelled call is
	// rolled back after the stage gate below anyway.
	vecs := parallel.Map(e.workers(), len(u.Insert), nil, func(i int) []float64 {
		return e.set.FeatureVectorOf(e.cl.Keys(), u.Insert[i])
	})
	for i, g := range u.Insert {
		cid := e.cl.AssignWithVector(g, vecs[i])
		affected[cid] = struct{}{}
		e.csgs.OnAssign(cid, g)
	}
	rep.ClusterTime = time.Since(tCluster)
	rep.ClusterWork = KernelWork() - wCluster
	if err := stage(ctx, "cluster"); err != nil {
		return nil, err
	}

	// Apply the update to the database and graphlet cache.
	if err := e.db.Apply(u); err != nil {
		return nil, err
	}
	e.counter.ApplyParallel(e.workers(), u)
	if err := stage(ctx, "apply"); err != nil {
		return nil, err
	}

	// Line 5: FCT maintenance.
	tFCT := time.Now()
	e.set.Update(e.db, u)
	rep.FCTTime = time.Since(tFCT)
	if err := stage(ctx, "fct"); err != nil {
		return nil, err
	}

	// Lines 6–7: cluster-set and CSG-set maintenance. Oversized
	// clusters are re-split; their summaries (and those of clusters the
	// split created) are rebuilt.
	tCluster, wCluster = time.Now(), KernelWork()
	oversized := make(map[int]struct{})
	for _, c := range e.cl.Clusters() {
		if c.Len() > e.cl.MaxSize() {
			oversized[c.ID] = struct{}{}
		}
	}
	created := e.cl.RefineOversized()
	rep.ClusterTime += time.Since(tCluster)

	tCSG := time.Now()
	for cid := range oversized {
		if c := e.cl.Cluster(cid); c != nil {
			e.csgs.Rebuild(c)
			affected[cid] = struct{}{}
		}
	}
	for _, cid := range created {
		if c := e.cl.Cluster(cid); c != nil {
			e.csgs.Rebuild(c)
			affected[cid] = struct{}{}
		}
	}
	e.csgs.Sync(e.cl)
	rep.CSGTime = time.Since(tCSG)
	rep.ClusterWork += KernelWork() - wCluster
	if err := stage(ctx, "csg"); err != nil {
		return nil, err
	}

	// The metrics sample and cover cache are stale after any update.
	e.metrics.InvalidateSample()

	// Line 12 (part 1): index maintenance for data-graph columns and the
	// feature rows; done before candidate generation so scov estimates
	// during swapping see fresh state.
	tIx := time.Now()
	if e.ix != nil {
		for _, id := range u.Delete {
			e.ix.RemoveGraph(id)
		}
		for _, g := range u.Insert {
			e.ix.AddGraph(g)
		}
		e.ix.SyncFeatures(e.set, e.db, e.patterns)
	}
	rep.IndexTime = time.Since(tIx)
	if err := stage(ctx, "index"); err != nil {
		return nil, err
	}
	return affected, nil
}

// majorModification generates pruned candidates from the evolved
// summaries (§5.2) and applies the configured swap strategy (§6.2).
func (e *Engine) majorModification(ctx context.Context, evolved []int, rep *Report) error {
	tCand := time.Now()
	var pruner catapult.Pruner
	if !e.cfg.NoPruning {
		pruner = e.coveragePruner()
	}
	sel := catapult.NewSelector(e.metrics, e.cl, e.csgs, e.selectConfig(pruner))
	cands := sel.GenerateFCPs(evolved)
	promising := e.promising(cands)
	rep.Candidates = len(promising)
	rep.CandidateTime = time.Since(tCand)
	if err := stage(ctx, "candidates"); err != nil {
		return err
	}

	tSwap := time.Now()
	switch e.cfg.Strategy {
	case RandomSwap:
		rep.Swaps = e.randomSwap(promising)
		rep.Scans = 1
	default:
		rep.Swaps, rep.Scans = e.multiScanSwap(promising)
	}
	rep.SwapTime = time.Since(tSwap)
	return stage(ctx, "swap")
}

// coverSets returns the cover set of every current pattern over the
// full database (via the indices when available). Cover sets are pure
// per-pattern functions behind a mutex-guarded cache, so they fan out
// over the pool; slots land in pattern order regardless of completion
// order. A fired cancel hook leaves nil slots, which downstream union
// code treats as empty — harmless, since a cancelled Maintain rolls
// back wholesale.
func (e *Engine) coverSets() []map[int]struct{} {
	out := make([]map[int]struct{}, len(e.patterns))
	parallel.Do(e.workers(), len(e.patterns), e.cancel, func(i int) {
		out[i] = e.metrics.CoverSet(e.patterns[i])
	})
	return out
}

// exclusiveStats computes, per pattern, |G_scov(p) \ ∪_{p'≠p}
// G_scov(p')| along with the union cover, feeding Definition 5.5 and
// Equation 2.
func exclusiveStats(covers []map[int]struct{}) (exclusive []int, union map[int]struct{}) {
	union = make(map[int]struct{})
	owner := make(map[int]int) // graph ID -> covering pattern count
	for _, c := range covers {
		for id := range c {
			union[id] = struct{}{}
			owner[id]++
		}
	}
	exclusive = make([]int, len(covers))
	for i, c := range covers {
		n := 0
		for id := range c {
			if owner[id] == 1 {
				n++
			}
		}
		exclusive[i] = n
	}
	return exclusive, union
}

// coverageStats returns the exclusive counts and union cover of the
// current pattern set, from the evaluator's cover sets (computed once
// per batch through the indices and cached until the next update).
func (e *Engine) coverageStats() (exclusive []int, union map[int]struct{}) {
	return exclusiveStats(e.coverSets())
}

// coveragePruner builds the Equation 2 early-termination test: an edge
// with marginal subgraph coverage below (1+κ)·min_p exclusive(p) stops
// FCP growth.
func (e *Engine) coveragePruner() catapult.Pruner {
	exclusive, union := e.coverageStats()
	minExcl := 0
	if len(exclusive) > 0 {
		minExcl = exclusive[0]
		for _, x := range exclusive[1:] {
			if x < minExcl {
				minExcl = x
			}
		}
	}
	threshold := (1 + e.cfg.Kappa) * float64(minExcl)
	return func(edgeLabel string) bool {
		et := e.set.EdgeTree(edgeLabel)
		if et == nil {
			return true // unseen label: no coverage at all
		}
		marginal := 0
		for id := range et.Post {
			if _, covered := union[id]; !covered {
				marginal++
			}
		}
		return float64(marginal) < threshold
	}
}

// promising filters candidates by Definition 5.5: a candidate is kept
// when its marginal coverage beats (1+κ) times the exclusive coverage
// of at least one existing pattern. With an empty pattern set, every
// candidate is promising.
func (e *Engine) promising(cands []*catapult.Candidate) []*catapult.Candidate {
	if len(e.patterns) == 0 {
		return cands
	}
	exclusive, union := e.coverageStats()
	minExcl := exclusive[0]
	for _, x := range exclusive[1:] {
		if x < minExcl {
			minExcl = x
		}
	}
	// Marginal coverage per candidate is independent (union is read-only
	// here), so it fans out; the filter below appends in candidate order,
	// keeping the surviving list identical to the sequential pass.
	marginals := parallel.Map(e.workers(), len(cands), e.cancel, func(i int) int {
		cover := e.metrics.CoverSet(cands[i].Pattern())
		marginal := 0
		for id := range cover {
			if _, covered := union[id]; !covered {
				marginal++
			}
		}
		return marginal
	})
	var out []*catapult.Candidate
	for i, c := range cands {
		if float64(marginals[i]) >= (1+e.cfg.Kappa)*float64(minExcl) {
			out = append(out, c)
		}
	}
	return out
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
