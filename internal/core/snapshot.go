package core

import (
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/catapult"
	"github.com/midas-graph/midas/internal/cluster"
	"github.com/midas-graph/midas/internal/csg"
	"github.com/midas-graph/midas/internal/graphlet"
	"github.com/midas-graph/midas/internal/index"
	"github.com/midas-graph/midas/internal/tree"
)

// snapshot captures every engine substructure the maintenance pipeline
// mutates, deep enough that restoring it after a mid-pipeline failure
// leaves the engine indistinguishable from its pre-batch state.
type snapshot struct {
	db            *graph.Database
	set           *tree.Set
	cl            *cluster.Clustering
	csgs          *csg.Manager
	ix            *index.Indices
	counter       *graphlet.Counter
	patterns      []*graph.Graph
	nextPatternID int
	sigma         float64
}

// takeSnapshot copies the mutable engine state. Stored data graphs are
// shared between the live database and the snapshot copy — the engine
// never structurally mutates them — so the database copy is a cheap
// re-index. Tree postings, cluster membership, CSG structure+support,
// the trie and the sparse matrices are deep-copied.
func (e *Engine) takeSnapshot() *snapshot {
	db, err := e.db.ApplyToCopy(graph.Update{})
	if err != nil {
		// Applying an empty update cannot fail; a deep clone is the
		// safe fallback if it ever does.
		db = e.db.Clone()
	}
	s := &snapshot{
		db:            db,
		set:           e.set.Clone(),
		cl:            e.cl.Clone(),
		csgs:          e.csgs.Clone(),
		counter:       e.counter.Clone(),
		patterns:      append([]*graph.Graph(nil), e.patterns...),
		nextPatternID: e.nextPatternID,
		sigma:         e.sigma,
	}
	if e.ix != nil {
		s.ix = e.ix.Clone(s.set)
	}
	return s
}

// restore rolls the engine back to a snapshot. The metrics evaluator is
// rebuilt over the restored structures, so its caches restart empty,
// which costs only recomputation.
func (e *Engine) restore(s *snapshot) {
	e.db = s.db
	e.set = s.set
	e.cl = s.cl
	e.csgs = s.csgs
	e.ix = s.ix
	e.counter = s.counter
	e.patterns = s.patterns
	e.nextPatternID = s.nextPatternID
	e.sigma = s.sigma
	e.metrics = catapult.NewMetrics(e.db, e.set, e.ix, e.cfg.SampleSize, e.cfg.Seed)
}
