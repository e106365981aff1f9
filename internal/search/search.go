// Package search executes the subgraph queries that a visual interface
// formulates: given a query graph, it returns the data graphs containing
// it. It follows the filter–verify paradigm of the feature-based graph
// indices the paper builds on (gIndex, FG-index, Tree+Δ; §8): the
// FCT-Index and IFE-Index prune the candidate set by feature-count
// containment, and VF2 verifies the survivors.
//
// This is the substrate a deployed GUI needs after query formulation —
// the paper measures formulation cost and leaves execution to the
// backing store; we provide both so the system is usable end to end.
package search

import (
	"context"
	"sort"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/index"
	"github.com/midas-graph/midas/internal/iso"
	"github.com/midas-graph/midas/internal/tree"
)

// Options configures query execution.
type Options struct {
	// Limit caps the number of results (0 = all).
	Limit int
}

// verifySteps bounds each VF2 verification.
const verifySteps = 400000

// Result is one query answer.
type Result struct {
	// GraphID identifies the matching data graph.
	GraphID int
	// Embedding maps query vertices to data-graph vertices.
	Embedding []int
}

// Stats reports the filter–verify funnel of one query.
type Stats struct {
	Candidates int // graphs surviving the index filter
	Verified   int // graphs actually matched
	Pruned     int // graphs dismissed without isomorphism test
}

// Engine answers subgraph queries over a database.
type Engine struct {
	db  *graph.Database
	set *tree.Set
	ix  *index.Indices
}

// New builds a search engine. The index may be nil (pure scan mode).
func New(db *graph.Database, set *tree.Set, ix *index.Indices) *Engine {
	return &Engine{db: db, set: set, ix: ix}
}

// NewFromDB mines features and builds indices for db: a convenience for
// standalone use. supMin and maxTreeEdges follow tree.Mine.
func NewFromDB(db *graph.Database, supMin float64, maxTreeEdges int) *Engine {
	set := tree.Mine(db, supMin, maxTreeEdges)
	return &Engine{db: db, set: set, ix: index.Build(set, db, nil)}
}

// DB returns the underlying database.
func (e *Engine) DB() *graph.Database { return e.db }

// candidates returns the graph IDs that may contain q, sorted.
func (e *Engine) candidates(q *graph.Graph) []int {
	// A query using an edge label the database has never seen cannot
	// match anything; the indices only track labels that occur, so this
	// check must come first.
	if e.set != nil {
		for l := range q.EdgeLabels() {
			et := e.set.EdgeTree(l)
			if et == nil || et.SupportCount() == 0 {
				return nil
			}
		}
	}
	universe := make([]int, 0, e.db.Len())
	for _, g := range e.db.Graphs() {
		universe = append(universe, g.ID)
	}
	if e.ix == nil {
		return e.labelFilter(q, universe)
	}
	return e.ix.CandidateGraphs(q, universe)
}

// labelFilter is the fallback filter without indices: every edge label
// of q must occur in the data graph with at least the same multiplicity.
func (e *Engine) labelFilter(q *graph.Graph, universe []int) []int {
	need := map[string]int{}
	for _, qe := range q.Edges() {
		need[q.EdgeLabel(qe.U, qe.V)]++
	}
	var out []int
	for _, id := range universe {
		g := e.db.Get(id)
		if g == nil || g.Size() < q.Size() || g.Order() < q.Order() {
			continue
		}
		have := map[string]int{}
		for _, ge := range g.Edges() {
			have[g.EdgeLabel(ge.U, ge.V)]++
		}
		ok := true
		for l, n := range need {
			if have[l] < n {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, id)
		}
	}
	return out
}

// Query returns the data graphs containing q along with one embedding
// each, plus the filter funnel statistics. Results are sorted by graph
// ID; with a Limit, the lowest-ID matches win.
func (e *Engine) Query(q *graph.Graph, opts Options) ([]Result, Stats) {
	rs, st, _ := e.QueryContext(context.Background(), q, opts)
	return rs, st
}

// QueryContext is Query with cancellation: ctx is checked between
// candidate verifications and inside each VF2 search, so an expired
// context stops a pathological verification promptly. On cancellation
// the results gathered so far are returned along with ctx.Err().
func (e *Engine) QueryContext(ctx context.Context, q *graph.Graph, opts Options) ([]Result, Stats, error) {
	var cancel func() bool
	if ctx.Done() != nil {
		cancel = func() bool { return ctx.Err() != nil }
	}
	cand := e.candidates(q)
	stats := Stats{Candidates: len(cand), Pruned: e.db.Len() - len(cand)}

	var results []Result
	for _, id := range cand {
		if err := ctx.Err(); err != nil {
			stats.Verified = len(results)
			return results, stats, err
		}
		g := e.db.Get(id)
		if g == nil {
			continue
		}
		if m := iso.FindEmbedding(q, g, iso.Options{MaxSteps: verifySteps, Cancel: cancel}); m != nil {
			results = append(results, Result{GraphID: id, Embedding: m})
		}
		if opts.Limit > 0 && len(results) >= opts.Limit {
			break
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].GraphID < results[j].GraphID })
	stats.Verified = len(results)
	return results, stats, ctx.Err()
}

// Count returns only the number of matching graphs (scov numerator).
func (e *Engine) Count(q *graph.Graph, opts Options) (int, Stats) {
	rs, stats := e.Query(q, opts)
	return len(rs), stats
}

// Exists reports whether any data graph contains q.
func (e *Engine) Exists(q *graph.Graph) bool {
	rs, _ := e.Query(q, Options{Limit: 1})
	return len(rs) > 0
}
