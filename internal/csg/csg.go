// Package csg implements cluster summary graphs (CSGs): each cluster is
// summarised into a single labelled graph by iterated graph closure
// (paper §2.3), and the summary is maintained incrementally under graph
// insertions and deletions exactly as prescribed by §4.4 — every CSG
// edge carries the set of member-graph IDs supporting it; insertion adds
// IDs (creating edges as needed), deletion removes IDs and drops edges
// whose support becomes empty.
//
// The closure construction integrates one member graph at a time: a
// mapping φ between the incoming graph and the current summary is
// computed (an MCCS-based alignment followed by greedy label-compatible
// matching — dummy ε vertices of the paper's extended graphs correspond
// to the unmapped vertices we materialise as fresh summary vertices).
package csg

import (
	"sort"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/iso"
)

// CSG is the closure summary graph of one cluster.
type CSG struct {
	ClusterID int
	// G is the summary structure. Vertices are never removed (isolated
	// vertices may remain after deletions); edges carry support.
	G *graph.Graph
	// support maps each summary edge to the IDs of member graphs
	// containing it.
	support map[graph.Edge]map[int]struct{}
	// budget caps the MCCS alignment search per integration.
	budget int
	// cancel, when set, is polled by the MCCS/VF2 alignment kernels so
	// a cancelled maintenance call stops integrating promptly.
	cancel func() bool
	// memo, when set, routes the alignment kernels through the
	// process-wide instance-keyed memo caches in internal/iso. Rebuilding
	// a summary over the same members replays identical (g, summary)
	// alignment queries, so the replay is nearly free; keys are
	// instance-exact, so memoised alignments equal fresh ones and the
	// resulting summary is byte-identical either way.
	memo bool
}

// Build summarises the given member graphs (typically a cluster's
// members, largest first for a good closure base).
func Build(clusterID int, members []*graph.Graph, budget int) *CSG {
	return BuildWithCancel(clusterID, members, budget, nil)
}

// BuildWithCancel is Build with a cancellation hook polled during the
// MCCS alignments; a cancelled build returns a partial summary, which
// the caller is expected to discard (maintenance rolls back).
func BuildWithCancel(clusterID int, members []*graph.Graph, budget int, cancel func() bool) *CSG {
	return buildCSG(clusterID, members, budget, cancel, false)
}

func buildCSG(clusterID int, members []*graph.Graph, budget int, cancel func() bool, memo bool) *CSG {
	s := newCSG(clusterID, graph.New(clusterID), budget, cancel, memo)
	ordered := append([]*graph.Graph(nil), members...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Size() != ordered[j].Size() {
			return ordered[i].Size() > ordered[j].Size()
		}
		return ordered[i].ID < ordered[j].ID
	})
	for _, g := range ordered {
		s.Integrate(g)
	}
	return s
}

// newCSG returns a summary over g with no support recorded yet; a
// budget <= 0 selects the default.
func newCSG(clusterID int, g *graph.Graph, budget int, cancel func() bool, memo bool) *CSG {
	if budget <= 0 {
		budget = 20000
	}
	return &CSG{
		ClusterID: clusterID,
		G:         g,
		support:   make(map[graph.Edge]map[int]struct{}),
		budget:    budget,
		cancel:    cancel,
		memo:      memo,
	}
}

// Size returns the number of summary edges.
func (s *CSG) Size() int { return s.G.Size() }

// Integrate merges member graph g into the summary (§4.4 step 1): a
// vertex mapping φ from g to the summary is computed, missing vertices
// and edges are added, and g's ID is recorded on every image edge.
func (s *CSG) Integrate(g *graph.Graph) {
	mapping := s.align(g)
	for _, e := range g.Edges() {
		u, v := mapping[e.U], mapping[e.V]
		se := graph.Edge{U: u, V: v}.Canon()
		if !s.G.HasEdge(u, v) {
			s.G.AddEdge(u, v)
		}
		sup := s.support[se]
		if sup == nil {
			sup = make(map[int]struct{})
			s.support[se] = sup
		}
		sup[g.ID] = struct{}{}
	}
}

// align computes φ: g vertex -> summary vertex, creating fresh summary
// vertices for anything unmatched.
func (s *CSG) align(g *graph.Graph) []int {
	mapping := make([]int, g.Order())
	for i := range mapping {
		mapping[i] = -1
	}
	used := make(map[int]bool)
	if s.G.Size() > 0 && g.Size() > 0 {
		// Fast path: graphs from the same family usually embed wholly
		// into a mature summary; a full VF2 embedding is far cheaper
		// than the MCCS search and yields a perfect alignment. The memo
		// variants key on the exact (g, summary) instance pair, and the
		// summary mutates between integrations, so stale hits are
		// impossible; cached mappings are read-only here.
		embed := iso.FindEmbedding
		mccs := iso.MCCSWithCancel
		if s.memo {
			embed = iso.FindEmbeddingCached
			mccs = iso.MCCSCached
		}
		if m := embed(g, s.G, iso.Options{MaxSteps: s.budget, Cancel: s.cancel}); m != nil {
			for gv, sv := range m {
				mapping[gv] = sv
				used[sv] = true
			}
			return mapping
		}
		res := mccs(g, s.G, s.budget, s.cancel)
		for gv, sv := range res.Mapping {
			if sv >= 0 {
				mapping[gv] = sv
				used[sv] = true
			}
		}
	}
	// Greedy completion: BFS from mapped vertices; prefer summary
	// vertices with the same label adjacent to the images of already
	// mapped neighbours.
	orderVs := bfsOrder(g, mapping)
	for _, gv := range orderVs {
		if mapping[gv] >= 0 {
			continue
		}
		best, bestScore := -1, -1
		for sv := 0; sv < s.G.Order(); sv++ {
			if used[sv] || s.G.Label(sv) != g.Label(gv) {
				continue
			}
			score := 0
			for _, gw := range g.Neighbors(gv) {
				if img := mapping[gw]; img >= 0 && s.G.HasEdge(sv, img) {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = sv, score
			}
		}
		if best == -1 {
			best = s.G.AddVertex(g.Label(gv))
		}
		mapping[gv] = best
		used[best] = true
	}
	return mapping
}

// bfsOrder returns g's vertices, mapped ones first, then by BFS from
// them, so that greedy completion has anchored neighbours.
func bfsOrder(g *graph.Graph, mapping []int) []int {
	n := g.Order()
	var order []int
	seen := make([]bool, n)
	var queue []int
	for v := 0; v < n; v++ {
		if mapping[v] >= 0 {
			order = append(order, v)
			seen[v] = true
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				order = append(order, w)
				queue = append(queue, w)
			}
		}
	}
	for v := 0; v < n; v++ {
		if !seen[v] {
			order = append(order, v)
		}
	}
	return order
}

// RemoveGraph removes member graph id from the summary (§4.4 step 2):
// its ID is removed from every supporting edge; edges left without
// support are deleted.
func (s *CSG) RemoveGraph(id int) {
	for e, sup := range s.support {
		if _, ok := sup[id]; !ok {
			continue
		}
		delete(sup, id)
		if len(sup) == 0 {
			s.G.RemoveEdge(e.U, e.V)
			delete(s.support, e)
		}
	}
}

// EdgeSupport returns the sorted member IDs supporting a summary edge.
func (s *CSG) EdgeSupport(e graph.Edge) []int {
	sup := s.support[e.Canon()]
	ids := make([]int, 0, len(sup))
	for id := range sup {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// SupportCount returns the number of members supporting a summary edge.
func (s *CSG) SupportCount(e graph.Edge) int { return len(s.support[e.Canon()]) }

// LabelCoverage returns, per edge label, the set of member IDs having at
// least one edge with that label — lcov(e, C) numerators (§2.3).
func (s *CSG) LabelCoverage() map[string]map[int]struct{} {
	out := make(map[string]map[int]struct{})
	for e, sup := range s.support {
		label := s.G.EdgeLabel(e.U, e.V)
		set := out[label]
		if set == nil {
			set = make(map[int]struct{})
			out[label] = set
		}
		for id := range sup {
			set[id] = struct{}{}
		}
	}
	return out
}

// Weights assigns each summary edge the weight w_e = lcov(e,D) ×
// lcov(e,C) (§2.3). lcovD maps an edge label to its database label
// coverage; clusterSize is |C|.
func (s *CSG) Weights(lcovD func(label string) float64, clusterSize int) map[graph.Edge]float64 {
	lc := s.LabelCoverage()
	out := make(map[graph.Edge]float64, len(s.support))
	for e := range s.support {
		label := s.G.EdgeLabel(e.U, e.V)
		covC := 0.0
		if clusterSize > 0 {
			covC = float64(len(lc[label])) / float64(clusterSize)
		}
		out[e] = lcovD(label) * covC
	}
	return out
}

// Edges returns the summary edges sorted canonically.
func (s *CSG) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, len(s.support))
	for e := range s.support {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// MemberIDs returns the sorted IDs of all members contributing support.
func (s *CSG) MemberIDs() []int {
	set := make(map[int]struct{})
	for _, sup := range s.support {
		for id := range sup {
			set[id] = struct{}{}
		}
	}
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
